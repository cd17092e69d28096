// Instrumented execution-trace streaming (Fig 2: "The high-speed network
// facilitates ... the streaming of instrumented traces to the Trace
// Analyzer").
//
// The node-side TraceStreamer is fed every instruction step by
// LiquidSystem::step(), packs compact per-instruction records, and emits
// them as UDP datagrams through the packet generator whenever a batch
// fills.  The host side parses datagrams back into records.  The wire
// format is deliberately tolerant of UDP loss: every record is
// self-contained and datagrams carry a sequence number so the receiver
// can report gaps.
//
// Record wire format (9 bytes, big-endian):
//   u32 pc
//   u8  flags   (bit0 annulled, bit1 trapped, bit2 mem access,
//                bit3 mem write, bit4 load, bit5 multiply, bit6 divide)
//   u32 mem address (0 when bit2 clear)
// Datagram payload: u32 stream sequence number, then N records.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "cpu/integer_unit.hpp"  // StepResult
#include "net/packet.hpp"

namespace la::net {

/// UDP port trace datagrams are addressed to on the analysis host.
inline constexpr u16 kTracePort = 0x2002;

struct TraceRecord {
  Addr pc = 0;
  bool annulled = false;
  bool trapped = false;
  bool mem_access = false;
  bool mem_write = false;
  bool is_load = false;
  bool is_mul = false;
  bool is_div = false;
  Addr mem_addr = 0;

  static constexpr std::size_t kWireBytes = 9;

  u8 flags() const {
    return static_cast<u8>(u8{annulled} | u8{trapped} << 1 |
                           u8{mem_access} << 2 | u8{mem_write} << 3 |
                           u8{is_load} << 4 | u8{is_mul} << 5 |
                           u8{is_div} << 6);
  }

  static TraceRecord from_step(const cpu::StepResult& r);
};

/// Node side: batches records and emits trace datagrams.
class TraceStreamer {
 public:
  /// `emit` ships a finished datagram payload (the system wires this to
  /// its packet generator / wrappers).  `batch` = records per datagram.
  using Emit = std::function<void(Bytes payload)>;

  TraceStreamer(Emit emit, std::size_t batch = 100)
      : emit_(std::move(emit)), batch_(batch) {}

  /// Append one step's record; a full batch goes out as a datagram.
  void on_step(const cpu::StepResult& r);

  /// Force out a partial batch (end of run).
  void flush();

  u64 records_emitted() const { return records_; }
  u64 datagrams_emitted() const { return datagrams_; }

 private:
  Emit emit_;
  std::size_t batch_;
  ByteWriter buf_;
  std::size_t in_buf_ = 0;
  u32 seq_ = 0;
  u64 records_ = 0;
  u64 datagrams_ = 0;
};

/// Host side: datagram payload -> records (plus gap accounting).
class TraceReceiver {
 public:
  /// Parse one trace payload; malformed data is dropped (counted).
  /// Returns the records, in order.
  std::vector<TraceRecord> ingest(std::span<const u8> payload);

  u64 records() const { return records_; }
  u64 datagrams() const { return datagrams_; }
  u64 lost_datagrams() const { return lost_; }
  u64 malformed() const { return malformed_; }

 private:
  std::optional<u32> last_seq_;
  u64 records_ = 0;
  u64 datagrams_ = 0;
  u64 lost_ = 0;
  u64 malformed_ = 0;
};

}  // namespace la::net
