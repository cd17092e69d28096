// FPX SDRAM subsystem: a banked SDRAM device model and the multi-module
// arbitrated controller of [Dharmapurikar & Lockwood, WUCS-01-26] that the
// paper uses instead of LEON's bundled controller (Section 2.4):
//   * 64-bit data path
//   * request/grant/ack handshake per transfer
//   * up to three client modules with round-robin arbitration
//   * sequential read AND write bursts (the AHB adapter chooses not to use
//     write bursts, Section 3.2 — but the controller supports them)
#pragma once

#include <cassert>
#include <span>
#include <string_view>
#include <vector>

#include "common/bits.hpp"
#include "common/snapio.hpp"
#include "common/types.hpp"
#include "mem/paged_memory.hpp"

namespace la::mem {

struct SdramTiming {
  Cycles trcd = 2;  // RAS-to-CAS (activate -> column command)
  Cycles trp = 2;   // precharge
  Cycles cas = 2;   // CAS latency (read data appears cas cycles after cmd)
  u32 banks = 4;
  u32 row_bytes = 4096;
};

/// Raw SDRAM device: storage (copy-on-write pages, see
/// mem/paged_memory.hpp) plus open-row timing.  Addresses are byte
/// addresses, accesses are whole 64-bit words.
class SdramDevice {
 public:
  SdramDevice(u32 size_bytes, SdramTiming timing = {});

  u32 size() const { return mem_.size(); }
  const SdramTiming& timing() const { return timing_; }

  /// Burst-read `out.size()` consecutive 64-bit words starting at the
  /// 8-byte-aligned byte offset `addr`.  Returns device cycles.  A burst
  /// touching a parity-bad word still returns data (the damaged bits) but
  /// latches the parity-error flag — poll consume_parity_error() after the
  /// burst, the way a real controller samples the ECC/parity pin.
  Cycles read_burst(Addr addr, std::span<u64> out);
  /// Burst-write; returns device cycles.  Scrubs parity of written words.
  Cycles write_burst(Addr addr, std::span<const u64> in);

  /// Fault injection: XOR `mask` into the 64-bit word at the 8-byte-aligned
  /// offset holding `addr` and mark its parity bad.  Returns false when out
  /// of range.
  bool corrupt_word64(Addr addr, u64 mask);
  /// Returns the latched read-parity-error flag and clears it.
  bool consume_parity_error() {
    const bool e = parity_pending_;
    parity_pending_ = false;
    return e;
  }
  /// True when every 64-bit word overlapping [addr, addr+len) has good
  /// parity.
  bool parity_ok(Addr addr, u64 len) const;

  struct Stats {
    u64 row_hits = 0;
    u64 row_misses = 0;   // activate on idle bank
    u64 row_conflicts = 0;  // precharge + activate
    u64 reads = 0;
    u64 writes = 0;
    u64 words_corrupted = 0;  // corrupt_word64() calls that landed
    u64 parity_errors = 0;    // read bursts that touched a bad word
  };
  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

  // Backdoor for test setup.
  u64 backdoor_word64(Addr addr) const;
  void backdoor_write_word64(Addr addr, u64 v);

  /// Snapshot support: contents (pages by reference), damaged-parity
  /// words, open-row registers, and stats.
  void save_state(SnapWriter& w) const {
    w.tag(snap_tag("SDRD"));
    mem_.save(w);
    w.vec_i64(open_row_);
    w.b(parity_pending_);
    w.u64v(stats_.row_hits);
    w.u64v(stats_.row_misses);
    w.u64v(stats_.row_conflicts);
    w.u64v(stats_.reads);
    w.u64v(stats_.writes);
    w.u64v(stats_.words_corrupted);
    w.u64v(stats_.parity_errors);
  }
  bool load_state(SnapReader& r) {
    if (!r.expect(snap_tag("SDRD")) || !mem_.load(r)) return false;
    auto rows = r.vec_i64();
    if (rows.size() != open_row_.size()) return false;
    open_row_ = std::move(rows);
    parity_pending_ = r.b();
    stats_.row_hits = r.u64v();
    stats_.row_misses = r.u64v();
    stats_.row_conflicts = r.u64v();
    stats_.reads = r.u64v();
    stats_.writes = r.u64v();
    stats_.words_corrupted = r.u64v();
    stats_.parity_errors = r.u64v();
    return r.ok();
  }

 private:
  /// Open-row bookkeeping: cycles to make the row of `addr` active.
  Cycles row_cost(Addr addr);

  SdramTiming timing_;
  // log2(row_bytes) and log2(row_bytes * banks): both are powers of two,
  // so row_cost's bank and row extraction are shifts.
  u32 bank_shift_;
  u32 row_shift_;
  PagedMemory mem_;  // one parity flag per 64-bit word
  std::vector<i64> open_row_;  // per bank, -1 = all precharged
  bool parity_pending_ = false;
  Stats stats_;
};

/// Client ports of the FPX SDRAM controller.
enum class SdramPort : u8 { kLeon = 0, kNetwork = 1, kAux = 2, kCount };

class FpxSdramController {
 public:
  /// `max_burst_words` — longest sequential burst (in 64-bit words) one
  /// handshake can carry.
  FpxSdramController(SdramDevice& dev, u32 max_burst_words = 8)
      : dev_(dev), max_burst_(max_burst_words) {
    assert(max_burst_words >= 1);
  }

  /// One handshaked transfer: request -> grant -> command -> data -> ack.
  /// `now` is the current global cycle (for modelling port contention);
  /// the return value is the total cycles until completion as seen by the
  /// caller.  Bursts longer than max_burst_words are split into multiple
  /// handshakes internally (and counted as such).
  Cycles read(SdramPort p, Cycles now, Addr addr, std::span<u64> out);
  Cycles write(SdramPort p, Cycles now, Addr addr, std::span<const u64> in);

  struct Stats {
    u64 handshakes[static_cast<int>(SdramPort::kCount)] = {};
    u64 words[static_cast<int>(SdramPort::kCount)] = {};
    Cycles wait_cycles = 0;  // arbitration/busy waiting
    u64 total_handshakes() const {
      u64 n = 0;
      for (u64 h : handshakes) n += h;
      return n;
    }
  };
  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

  u32 max_burst_words() const { return max_burst_; }
  SdramDevice& device() { return dev_; }

  /// Fixed handshake overhead per transfer (request + grant + ack).
  static constexpr Cycles kHandshakeCycles = 3;

  /// Snapshot support: port-busy horizon and handshake/word counters.
  void save_state(SnapWriter& w) const {
    w.tag(snap_tag("SDRC"));
    w.u64v(static_cast<u64>(busy_until_));
    for (u64 h : stats_.handshakes) w.u64v(h);
    for (u64 n : stats_.words) w.u64v(n);
    w.u64v(static_cast<u64>(stats_.wait_cycles));
  }
  bool load_state(SnapReader& r) {
    if (!r.expect(snap_tag("SDRC"))) return false;
    busy_until_ = static_cast<Cycles>(r.u64v());
    for (u64& h : stats_.handshakes) h = r.u64v();
    for (u64& n : stats_.words) n = r.u64v();
    stats_.wait_cycles = static_cast<Cycles>(r.u64v());
    return r.ok();
  }

 private:
  SdramDevice& dev_;
  u32 max_burst_;
  Cycles busy_until_ = 0;
  Stats stats_;
};

}  // namespace la::mem
