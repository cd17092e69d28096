// FPX SRAM model: zero-turnaround (ZBT-style) synchronous SRAM on AHB,
// with a backdoor port for the leon_ctrl/user path that loads programs
// while the processor is disconnected (Section 3.1).
//
// The model carries word-granular parity so injected bit flips are
// *detectable*: corrupt_word() damages the stored bytes and marks the
// word's parity bad; any subsequent bus read of that word answers with an
// AHB ERROR (the CPU takes an access trap), and the user-path can probe
// parity_ok() before trusting a backdoor read.  Writing a word scrubs its
// parity (fresh data, fresh check bits).
//
// Contents live in copy-on-write pages (mem/paged_memory.hpp): a snapshot
// shares the SRAM's written pages instead of copying them.
#pragma once

#include <cassert>
#include <span>
#include <string_view>

#include "bus/ahb.hpp"
#include "common/snapio.hpp"
#include "common/types.hpp"
#include "mem/paged_memory.hpp"

namespace la::mem {

struct SramTiming {
  Cycles read_wait = 1;   // wait states per read beat
  Cycles write_wait = 1;  // wait states per write beat
};

class Sram final : public bus::AhbSlave {
 public:
  Sram(Addr base, u32 size, SramTiming timing = {})
      : base_(base), timing_(timing), mem_(size, 4) {
    assert(size > 0);
  }

  Cycles transfer(bus::AhbTransfer& t) override;
  std::string_view name() const override { return "sram"; }
  bool debug_read(Addr addr, unsigned size, u64& out) override;
  bool debug_write(Addr addr, unsigned size, u64 value) override;

  Addr base() const { return base_; }
  u32 size() const { return mem_.size(); }
  const SramTiming& timing() const { return timing_; }

  // Direct CPU path (a pipeline's host fast path, through
  // DisconnectSwitch): the effects and data-phase cycles of transfer() for
  // one CPU store or line fill that lies inside the SRAM, with no
  // AhbTransfer.  The caller checks the range.
  /// A store of `size` bytes (8: two word beats, as the bus carries std).
  Cycles direct_store(Addr addr, unsigned size, u64 value) {
    const u32 o = addr - base_;
    // Each beat writes fresh check bits into its word, as in transfer().
    mem_.store_be(o, size, value);
    mem_.scrub(o, size);
    const Cycles beats = size == 8 ? 2 : 1;
    return beats * (1 + timing_.write_wait);
  }
  /// No word of the `len`-byte line at `addr` has bad parity, so
  /// direct_fill() may serve it (transfer() answers ERROR for such a word).
  bool direct_fill_ok(Addr addr, u32 len) const {
    return mem_.parity_ok(addr - base_, len);
  }
  /// Copy the `len`-byte line at `addr` into `line` (the caches' byte
  /// order is the memory's) and return its cycles.  The caller checks
  /// direct_fill_ok() first.
  Cycles direct_fill(Addr addr, u32 len, u8* line) const {
    mem_.read(addr - base_, {line, len});
    return (len / 4) * (1 + timing_.read_wait);
  }

  // Backdoor (user-path) access: byte-exact, no bus timing.
  bool backdoor_write(Addr addr, std::span<const u8> bytes);
  bool backdoor_read(Addr addr, std::span<u8> out) const;
  u32 backdoor_word(Addr addr) const;
  void backdoor_write_word(Addr addr, u32 value);

  /// Fault injection: XOR `mask` into the 32-bit word holding `addr` and
  /// mark its parity bad.  Returns false when out of range.
  bool corrupt_word(Addr addr, u32 mask);
  /// True when every word overlapping [addr, addr+len) has good parity.
  bool parity_ok(Addr addr, u64 len) const;

  struct Stats {
    u64 words_corrupted = 0;  // corrupt_word() calls that landed
    u64 parity_errors = 0;    // bus reads refused on bad parity
  };
  const Stats& stats() const { return stats_; }

  /// Snapshot support: contents (pages by reference), damaged-parity
  /// words, and stats.  The restoring instance must have the same size.
  void save_state(SnapWriter& w) const {
    w.tag(snap_tag("SRAM"));
    mem_.save(w);
    w.u64v(stats_.words_corrupted);
    w.u64v(stats_.parity_errors);
  }
  bool load_state(SnapReader& r) {
    if (!r.expect(snap_tag("SRAM")) || !mem_.load(r)) return false;
    stats_.words_corrupted = r.u64v();
    stats_.parity_errors = r.u64v();
    return r.ok();
  }

 private:
  bool contains(Addr addr, u64 len) const {
    return addr >= base_ && addr - base_ + len <= mem_.size();
  }

  Addr base_;
  SramTiming timing_;
  PagedMemory mem_;  // one parity flag per 32-bit word
  Stats stats_;
};

}  // namespace la::mem
