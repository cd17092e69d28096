// Byte-accurate IPv4 and UDP packet handling, plus the cell framing used
// by the FPX's layered protocol wrappers (the FPX carries traffic as
// fixed-size cells; frames are segmented/reassembled AAL5-style).
#pragma once

#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"

namespace la::net {

/// IPv4 address as a host-order u32 (10.0.0.1 = 0x0a000001).
using Ipv4Addr = u32;

inline constexpr Ipv4Addr make_ip(u8 a, u8 b, u8 c, u8 d) {
  return (u32{a} << 24) | (u32{b} << 16) | (u32{c} << 8) | u32{d};
}

/// RFC 1071 ones'-complement checksum over a byte span (pad odd length).
u16 internet_checksum(std::span<const u8> data, u32 initial = 0);

struct Ipv4Header {
  u8 version = 4;
  u8 ihl = 5;  // no options
  u8 tos = 0;
  u16 total_length = 0;
  u16 identification = 0;
  u16 flags_fragment = 0;
  u8 ttl = 64;
  u8 protocol = 17;  // UDP
  u16 checksum = 0;
  Ipv4Addr src = 0;
  Ipv4Addr dst = 0;

  static constexpr std::size_t kSize = 20;

  /// Serialize with a freshly computed header checksum.
  void serialize(ByteWriter& w) const;
  /// Parse and verify (version, IHL, checksum, total_length vs buffer).
  /// Returns nullopt on any violation.
  static std::optional<Ipv4Header> parse(ByteReader& r,
                                         std::size_t total_available);
};

struct UdpHeader {
  u16 src_port = 0;
  u16 dst_port = 0;
  u16 length = 0;  // header + payload
  u16 checksum = 0;

  static constexpr std::size_t kSize = 8;

  void serialize(ByteWriter& w) const;
  static std::optional<UdpHeader> parse(ByteReader& r);
};

/// A parsed UDP datagram with addressing metadata.
struct UdpDatagram {
  Ipv4Addr src_ip = 0;
  Ipv4Addr dst_ip = 0;
  u16 src_port = 0;
  u16 dst_port = 0;
  Bytes payload;
};

/// Build a complete IP/UDP packet (with real checksums) from a datagram.
Bytes build_udp_packet(const UdpDatagram& d, u16 ip_id = 0);

/// Parse a complete IP/UDP packet; nullopt on malformed input or failed
/// checksum (UDP checksum 0 means "not computed" per the RFC and passes).
std::optional<UdpDatagram> parse_udp_packet(std::span<const u8> packet);

/// Compute the UDP checksum including the IPv4 pseudo-header.
u16 udp_checksum(Ipv4Addr src, Ipv4Addr dst, const UdpHeader& h,
                 std::span<const u8> payload);

// ---- Cell framing (the lowest wrapper layer) --------------------------------

/// Fixed cell payload size (ATM-like: 48 bytes of payload per cell).
inline constexpr std::size_t kCellPayload = 48;

struct Cell {
  bool last = false;           // end-of-frame marker (AAL5-style)
  u16 frame_bytes_valid = 0;   // valid bytes in this cell
  u8 payload[kCellPayload] = {};
};

/// Segment a frame into cells.
std::vector<Cell> segment_frame(std::span<const u8> frame);

/// Streaming reassembler: feed cells, get complete frames.
class CellReassembler {
 public:
  /// Returns a completed frame when `c.last` closes one.
  std::optional<Bytes> push(const Cell& c);

  u64 frames_completed() const { return frames_; }

 private:
  Bytes partial_;
  u64 frames_ = 0;
};

}  // namespace la::net
