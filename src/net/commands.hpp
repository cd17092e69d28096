// The LEON control protocol carried in UDP payloads (Section 2.6).
//
// Every control packet starts with a one-byte command code; some commands
// carry an additional payload:
//   * Load program: total packet count (1 B), packet sequence number (2 B),
//     memory address (4 B), then the binary chunk.  Multi-packet loads use
//     the sequence number because UDP does not guarantee ordering.
//   * Start LEON: program start address (4 B).
//   * Read memory: address (4 B) + word count (2 B) — the count is our
//     extension (the paper reads one result word).
// Responses from the packet generator echo a response code.
#pragma once

#include <optional>

#include "common/bytes.hpp"
#include "common/types.hpp"

namespace la::net {

/// UDP port the control packet processor listens on.
inline constexpr u16 kLeonControlPort = 0x2001;

enum class CommandCode : u8 {
  kStatus = 0x01,         // is LEON up? what state?
  kLoadProgram = 0x02,    // write a program chunk into main memory
  kStart = 0x03,          // begin execution at the given address
  kReadMemory = 0x04,     // return memory contents
  kRestart = 0x05,        // reset the processor and control state machine
  kStatsSnapshot = 0x06,  // poll the node's metrics registry (extension)
  kStatsStream = 0x08,    // metrics delta window; optional u32 window seq
                          // makes the poll idempotent under dup/reorder
  kFlightDump = 0x09,     // dump the node's flight recorder (extension)
};

enum class ResponseCode : u8 {
  kStatus = 0x81,
  kLoadAck = 0x82,
  kStarted = 0x83,
  kMemoryData = 0x84,
  kStatsData = 0x85,   // metrics snapshot as UTF-8 JSON
  kStatsDelta = 0x87,  // metrics delta window as UTF-8 JSON
  kFlightData = 0x88,  // flight-recorder dump as UTF-8 JSON
  kError = 0xff,
};

/// Error codes carried as the one-byte payload of a kError response.
namespace err {
inline constexpr u8 kEmptyCommand = 0x01;
inline constexpr u8 kUnknownCommand = 0x02;
inline constexpr u8 kBusy = 0x10;             // load while running
inline constexpr u8 kBadLoad = 0x11;          // malformed load packet
inline constexpr u8 kLoadRange = 0x12;        // load outside SRAM window
inline constexpr u8 kNotStartable = 0x20;     // start while running/loading
inline constexpr u8 kBadStart = 0x21;         // malformed start packet
inline constexpr u8 kRestartRequired = 0x22;  // node in error state
inline constexpr u8 kBadRead = 0x31;          // malformed read packet
inline constexpr u8 kReadRange = 0x32;        // read outside backing memory
inline constexpr u8 kReadParity = 0x33;       // memory parity bad at address
inline constexpr u8 kNoStats = 0x41;          // no metrics registry wired
inline constexpr u8 kNoRecorder = 0x42;       // no flight recorder wired
inline constexpr u8 kBadStreamSeq = 0x44;     // malformed STATS_STREAM seq
inline constexpr u8 kStaleStreamSeq = 0x45;   // seq older than cache window
inline constexpr u8 kWatchdogTrip = 0x50;     // program exceeded cycle budget
}  // namespace err

/// leon_ctrl state reported in status responses.
enum class LeonState : u8 {
  kIdle = 0,
  kLoading = 1,
  kReady = 2,
  kRunning = 3,
  kDone = 4,
  kError = 5,
};

struct LoadProgramCmd {
  u8 total_packets = 1;
  u16 sequence = 0;
  Addr address = 0;
  Bytes data;

  Bytes serialize() const {
    ByteWriter w;
    w.write_u8(static_cast<u8>(CommandCode::kLoadProgram));
    w.write_u8(total_packets);
    w.write_u16(sequence);
    w.write_u32(address);
    w.write_bytes(data);
    return w.take();
  }

  static std::optional<LoadProgramCmd> parse(ByteReader& r) {
    if (r.remaining() < 7) return std::nullopt;
    LoadProgramCmd c;
    c.total_packets = r.read_u8();
    c.sequence = r.read_u16();
    c.address = r.read_u32();
    c.data = r.read_bytes(r.remaining());
    if (c.total_packets == 0 || c.sequence >= c.total_packets ||
        c.data.empty()) {
      return std::nullopt;
    }
    return c;
  }
};

struct StartCmd {
  Addr address = 0;

  Bytes serialize() const {
    ByteWriter w;
    w.write_u8(static_cast<u8>(CommandCode::kStart));
    w.write_u32(address);
    return w.take();
  }

  static std::optional<StartCmd> parse(ByteReader& r) {
    if (r.remaining() < 4) return std::nullopt;
    return StartCmd{r.read_u32()};
  }
};

struct ReadMemoryCmd {
  Addr address = 0;
  u16 words = 1;

  Bytes serialize() const {
    ByteWriter w;
    w.write_u8(static_cast<u8>(CommandCode::kReadMemory));
    w.write_u32(address);
    w.write_u16(words);
    return w.take();
  }

  static std::optional<ReadMemoryCmd> parse(ByteReader& r) {
    if (r.remaining() < 6) return std::nullopt;
    ReadMemoryCmd c;
    c.address = r.read_u32();
    c.words = r.read_u16();
    if (c.words == 0 || c.words > 256) return std::nullopt;
    return c;
  }
};

inline Bytes simple_command(CommandCode code) {
  return Bytes{static_cast<u8>(code)};
}

}  // namespace la::net
