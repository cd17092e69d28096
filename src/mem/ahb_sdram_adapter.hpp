// The AHB <-> FPX-SDRAM-controller adapter of Section 3.2.
//
// Bridges the 32-bit AMBA AHB world to the 64-bit FPX SDRAM controller:
//   * READS always issue a short sequential burst of 4 32-bit words
//     (2 x 64-bit) per handshake — "only a couple of cycles are wasted
//     when the burst length is shorter, but a significant amount of time
//     is gained by avoiding additional handshakes for 4-word bursts".
//     AHB bursts needing more than 4 words take additional handshakes.
//   * WRITES are read-modify-write: the 64-bit word is read, the 32-bit
//     half (or byte/halfword lane) is merged, and the word is written
//     back — "two separate handshakes for each write request,
//     significantly impairing performance".  Write bursts are not used
//     because the AHB does not announce burst length up front.
//
// The two behaviours are configurable so the benches can ablate them
// (bench/ablate_burst, bench/ablate_rmw).
#pragma once

#include <stdexcept>
#include <string_view>

#include "bus/ahb.hpp"
#include "common/snapio.hpp"
#include "common/types.hpp"
#include "mem/sdram.hpp"

namespace la::mem {

/// Longest read window the adapter fetches per handshake, in 64-bit words.
inline constexpr u32 kMaxReadBurstWords64 = 16;

struct AdapterConfig {
  /// Words-64 fetched per read handshake (paper: 2, i.e. 4 x 32-bit);
  /// 1..kMaxReadBurstWords64.
  u32 read_burst_words64 = 2;
  /// If false, every read is a single 64-bit handshake (ablation).
  bool always_short_burst = true;
  /// If true (paper behaviour), each 32-bit write performs a read-modify-
  /// write pair of handshakes.  If false, full 64-bit-aligned word pairs
  /// written in one AHB burst are combined and written directly (ablation:
  /// what a smarter adapter could do).
  bool rmw_writes = true;
};

struct AdapterStats {
  u64 read_handshakes = 0;
  u64 write_handshakes = 0;
  u64 rmw_reads = 0;       // extra reads caused by RMW
  u64 wasted_words64 = 0;  // fetched 64-bit words never consumed by AHB
  u64 parity_errors = 0;   // handshakes refused on bad device parity
};

class AhbSdramAdapter final : public bus::AhbSlave {
 public:
  /// `clock` points at the global cycle counter (for controller busy
  /// modelling); `base` is the AHB base address of SDRAM space.
  AhbSdramAdapter(FpxSdramController& ctrl, Addr base, u32 size,
                  const Cycles* clock, AdapterConfig cfg = {},
                  SdramPort port = SdramPort::kLeon)
      : ctrl_(ctrl),
        base_(base),
        size_(size),
        clock_(clock),
        cfg_(cfg),
        port_(port) {
    // The read window is a fixed array: a longer burst would overrun it.
    if (cfg.read_burst_words64 < 1 ||
        cfg.read_burst_words64 > kMaxReadBurstWords64) {
      throw std::invalid_argument("AdapterConfig::read_burst_words64 out of "
                                  "range");
    }
  }

  Cycles transfer(bus::AhbTransfer& t) override;
  std::string_view name() const override { return "ahb-sdram-adapter"; }
  bool debug_read(Addr addr, unsigned size, u64& out) override;
  bool debug_write(Addr addr, unsigned size, u64 value) override;

  const AdapterStats& stats() const { return stats_; }
  void reset_stats() { stats_ = AdapterStats{}; }
  const AdapterConfig& config() const { return cfg_; }

  /// Snapshot support: the adapter itself is stateless between transfers,
  /// so only the stats are captured.
  void save_state(SnapWriter& w) const {
    w.tag(snap_tag("SADP"));
    w.u64v(stats_.read_handshakes);
    w.u64v(stats_.write_handshakes);
    w.u64v(stats_.rmw_reads);
    w.u64v(stats_.wasted_words64);
    w.u64v(stats_.parity_errors);
  }
  bool load_state(SnapReader& r) {
    if (!r.expect(snap_tag("SADP"))) return false;
    stats_.read_handshakes = r.u64v();
    stats_.write_handshakes = r.u64v();
    stats_.rmw_reads = r.u64v();
    stats_.wasted_words64 = r.u64v();
    stats_.parity_errors = r.u64v();
    return r.ok();
  }

 private:
  Cycles do_read(bus::AhbTransfer& t);
  Cycles do_write(bus::AhbTransfer& t);

  bool contains(Addr a, u64 len) const {
    return a >= base_ && a - base_ + len <= size_;
  }

  FpxSdramController& ctrl_;
  Addr base_;
  u32 size_;
  const Cycles* clock_;
  AdapterConfig cfg_;
  SdramPort port_;
  AdapterStats stats_;
};

}  // namespace la::mem
