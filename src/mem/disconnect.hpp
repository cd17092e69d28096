// The external disconnect circuitry of Fig 6.
//
// Sits between the LEON processor and main memory (SRAM).  While the
// processor is disconnected its reads see all-zero data ("always drive 0s
// on the LEON processor's data bus") and its writes are dropped; the user
// path (leon_ctrl) meanwhile loads programs through the backdoor and
// plants the start address in the mailbox word.
#pragma once

#include <cstring>
#include <string_view>

#include "bus/ahb.hpp"
#include "common/snapio.hpp"
#include "common/types.hpp"
#include "mem/sram.hpp"

namespace la::mem {

class DisconnectSwitch final : public bus::AhbSlave {
 public:
  explicit DisconnectSwitch(Sram& sram) : sram_(sram) {}

  /// CPU-side AHB path: forwarded when connected, nulled when not.
  Cycles transfer(bus::AhbTransfer& t) override;
  std::string_view name() const override { return "disconnect-switch"; }

  bool debug_read(Addr addr, unsigned size, u64& out) override {
    if (!connected_) {
      out = 0;  // the switch drives zeros while the CPU is unplugged
      return true;
    }
    return sram_.debug_read(addr, size, out);
  }
  bool debug_write(Addr addr, unsigned size, u64 value) override {
    if (!connected_) return true;  // swallowed
    return sram_.debug_write(addr, size, value);
  }

  /// Direct CPU path (a pipeline's host fast path): transfer()'s effects
  /// and data-phase cycles for one store, or one line fill, that lies
  /// inside the SRAM, with no AhbTransfer.  Disconnected, the store is
  /// dropped and the line reads as zeros.  A fill needs direct_fill_ok()
  /// first: it is false when the switch is closed and the line holds a
  /// parity-damaged word, and the caller then takes the bus, which
  /// answers ERROR.
  Cycles direct_store(Addr addr, unsigned size, u64 value) {
    if (connected_) return sram_.direct_store(addr, size, value);
    const u64 beats = size == 8 ? 2 : 1;
    stats_.blocked_writes += beats;
    return beats * (1 + sram_.timing().write_wait);
  }
  bool direct_fill_ok(Addr addr, u32 len) const {
    return !connected_ || sram_.direct_fill_ok(addr, len);
  }
  Cycles direct_fill(Addr addr, u32 len, u8* line) {
    if (connected_) return sram_.direct_fill(addr, len, line);
    std::memset(line, 0, len);
    stats_.blocked_reads += len / 4;
    return (len / 4) * (1 + sram_.timing().read_wait);
  }

  void set_connected(bool on) { connected_ = on; }
  bool connected() const { return connected_; }

  /// User-side (leon_ctrl) path — always available, regardless of the
  /// switch position; this is the bus the external circuitry drives.
  Sram& user_port() { return sram_; }
  const Sram& user_port() const { return sram_; }

  struct Stats {
    u64 blocked_reads = 0;
    u64 blocked_writes = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Snapshot support: switch position + blocked-access counters.
  void save_state(SnapWriter& w) const {
    w.tag(snap_tag("DISC"));
    w.b(connected_);
    w.u64v(stats_.blocked_reads);
    w.u64v(stats_.blocked_writes);
  }
  bool load_state(SnapReader& r) {
    if (!r.expect(snap_tag("DISC"))) return false;
    connected_ = r.b();
    stats_.blocked_reads = r.u64v();
    stats_.blocked_writes = r.u64v();
    return r.ok();
  }

 private:
  Sram& sram_;
  bool connected_ = true;
  Stats stats_;
};

}  // namespace la::mem
