// AMBA AHB model (transaction level, handshake-accurate timing).
//
// The LEON core connects its caches and memory controller over AHB (the
// paper's Section 2.4 discusses which corners of the protocol LEON actually
// uses: SINGLE and INCR bursts only, no SPLIT, all data <= 32 bits wide).
// Slaves compute their own wait states per beat; the bus adds the address
// phase and arbitration and keeps per-master statistics so benches can
// show bus-level effects (e.g. burst vs single-beat reads, Section 3.2).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/snapio.hpp"
#include "common/types.hpp"

namespace la::bus {

/// HBURST encodings LEON uses (plus the wrap modes for completeness).
enum class HBurst : u8 {
  kSingle = 0,
  kIncr = 1,
  kWrap4 = 2,
  kIncr4 = 3,
  kWrap8 = 4,
  kIncr8 = 5,
  kWrap16 = 6,
  kIncr16 = 7,
};

/// Bus masters in the Liquid processor system.  The LEON integer unit
/// owns two request streams (instruction fetch and data); the third port
/// exists for diagnostics/DMA-style traffic in tests.
enum class Master : u8 { kCpuInstr = 0, kCpuData = 1, kDma = 2, kCount };

/// One AHB transaction: a burst of `beats` beats of `beat_bytes` each.
/// `data` points at `beats` words; for sub-word beats the value rides in
/// the low bits (big-endian lane placement is handled by the slave).
struct AhbTransfer {
  Addr addr = 0;
  bool write = false;
  unsigned beat_bytes = 4;  // HSIZE: 1, 2, or 4 (LEON never exceeds 32 bits)
  unsigned beats = 1;
  HBurst burst = HBurst::kSingle;
  u32* data = nullptr;
  bool error = false;  // set on ERROR response / unmapped address
};

/// An AHB slave services whole transfers and reports the cycles its data
/// phases consumed (>= beats; wait states add more).
class AhbSlave {
 public:
  virtual ~AhbSlave() = default;
  virtual Cycles transfer(AhbTransfer& t) = 0;
  virtual std::string_view name() const = 0;

  /// Functional (zero-cycle, side-effect-free on timing state) access used
  /// by the cache models for hit data and by diagnostics.  Memory-like
  /// slaves implement it; peripherals (which are never cached) keep the
  /// default refusal.
  virtual bool debug_read(Addr, unsigned /*size*/, u64& /*out*/) {
    return false;
  }
  virtual bool debug_write(Addr, unsigned /*size*/, u64 /*value*/) {
    return false;
  }
};

struct AhbMasterStats {
  u64 transfers = 0;
  u64 beats = 0;
  Cycles cycles = 0;
  u64 errors = 0;
};

struct AhbBusStats {
  AhbMasterStats per_master[static_cast<int>(Master::kCount)];
  u64 unmapped = 0;
  u64 injected_errors = 0;  // transfers failed by inject_error_pulse()

  const AhbMasterStats& of(Master m) const {
    return per_master[static_cast<int>(m)];
  }
  Cycles total_cycles() const {
    Cycles c = 0;
    for (const auto& s : per_master) c += s.cycles;
    return c;
  }
};

/// HBURST for an INCR burst of `beats` word beats (LEON's fill bursts).
inline HBurst burst_for_beats(unsigned beats) {
  switch (beats) {
    case 1: return HBurst::kSingle;
    case 4: return HBurst::kIncr4;
    case 8: return HBurst::kIncr8;
    case 16: return HBurst::kIncr16;
    default: return HBurst::kIncr;
  }
}

/// Single-layer AHB with priority arbitration (fixed: lower Master value
/// wins; with one in-order CPU the arbiter mostly timestamps traffic).
class AhbBus {
 public:
  /// Map [base, base+size) to `slave`.  Ranges must not overlap.
  void attach(Addr base, u64 size, AhbSlave* slave);

  /// Run one transaction.  Returns total bus cycles charged to the master:
  /// 1 address-phase cycle + the slave's data-phase cycles (2 cycles for
  /// the ERROR response on unmapped addresses).
  Cycles transfer(Master m, AhbTransfer& t);

  /// Convenience single-beat helpers.
  Cycles read32(Master m, Addr addr, u32& value);
  Cycles write32(Master m, Addr addr, u32 value);

  /// Bulk line transfer for cache refills and writebacks: one INCR burst
  /// of `line_bytes / 4` word beats starting at line-aligned `addr`,
  /// converted to/from the caches' big-endian byte storage on a stack
  /// buffer.  Timing, statistics, error pulses, and data are exactly what
  /// transfer() produces for the equivalent burst — these exist so the hot
  /// refill path needs neither a heap beat buffer nor caller-side byte
  /// repacking.  `error` reports the transfer's error response.
  Cycles fill_line(Master m, Addr addr, u32 line_bytes, u8* line,
                   bool& error);
  Cycles write_line(Master m, Addr addr, u32 line_bytes, const u8* line,
                    bool& error);

  /// The statistics transfer() records for a transfer of `beats` beats
  /// that reached its slave without error and cost `cycles`: the direct
  /// paths that bypass transfer() for one slave (the pipeline's SRAM path)
  /// count their transfers here.
  void count_transfer(Master m, unsigned beats, Cycles cycles) {
    AhbMasterStats& st = stats_.per_master[static_cast<int>(m)];
    ++st.transfers;
    st.beats += beats;
    st.cycles += cycles;
  }

  /// Slave whose range covers `addr`, or nullptr.
  AhbSlave* slave_at(Addr addr) const;

  /// Functional access routed to the owning slave's debug port.
  bool debug_read(Addr addr, unsigned size, u64& out) const;
  bool debug_write(Addr addr, unsigned size, u64 value) const;

  const AhbBusStats& stats() const { return stats_; }
  void reset_stats() { stats_ = AhbBusStats{}; }

  /// Fault injection: the next `n` transfers answer with a two-cycle AHB
  /// ERROR response without reaching any slave (models a glitched HRESP).
  void inject_error_pulse(unsigned n) { error_pulse_ += n; }
  unsigned pending_error_pulses() const { return error_pulse_; }

  /// Snapshot support: pending injected error pulses plus per-master stats.
  /// The address map and the host-only decode cache are rebuilt, not saved.
  void save_state(SnapWriter& w) const {
    w.tag(snap_tag("AHB "));
    w.u32v(error_pulse_);
    for (const auto& s : stats_.per_master) {
      w.u64v(s.transfers);
      w.u64v(s.beats);
      w.u64v(static_cast<u64>(s.cycles));
      w.u64v(s.errors);
    }
    w.u64v(stats_.unmapped);
    w.u64v(stats_.injected_errors);
  }
  bool load_state(SnapReader& r) {
    if (!r.expect(snap_tag("AHB "))) return false;
    error_pulse_ = r.u32v();
    for (auto& s : stats_.per_master) {
      s.transfers = r.u64v();
      s.beats = r.u64v();
      s.cycles = static_cast<Cycles>(r.u64v());
      s.errors = r.u64v();
    }
    stats_.unmapped = r.u64v();
    stats_.injected_errors = r.u64v();
    return r.ok();
  }

 private:
  struct Mapping {
    Addr base;
    u64 size;
    AhbSlave* slave;
  };

  /// Mappings never overlap, so the most recent hit is an exact filter:
  /// if `addr` falls inside `hot_`'s range it IS the decoded slave.  This
  /// turns the per-transfer linear map scan into one range check on the
  /// hot SDRAM/SRAM path.
  const Mapping* lookup(Addr addr) const {
    if (hot_ != nullptr && addr >= hot_->base && addr - hot_->base < hot_->size) {
      return hot_;
    }
    for (const Mapping& m : map_) {
      if (addr >= m.base && addr - m.base < m.size) {
        hot_ = &m;
        return &m;
      }
    }
    return nullptr;
  }

  std::vector<Mapping> map_;
  mutable const Mapping* hot_ = nullptr;  // last-hit decode cache
  unsigned error_pulse_ = 0;
  AhbBusStats stats_;
};

}  // namespace la::bus
