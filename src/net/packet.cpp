#include "net/packet.hpp"

#include <algorithm>
#include <cstring>

namespace la::net {

u16 internet_checksum(std::span<const u8> data, u32 initial) {
  u32 sum = initial;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += (u32{data[i]} << 8) | data[i + 1];
  }
  if (i < data.size()) sum += u32{data[i]} << 8;  // odd byte, zero-padded
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<u16>(~sum);
}

void Ipv4Header::serialize(ByteWriter& w) const {
  ByteWriter h;
  h.write_u8(static_cast<u8>((version << 4) | ihl));
  h.write_u8(tos);
  h.write_u16(total_length);
  h.write_u16(identification);
  h.write_u16(flags_fragment);
  h.write_u8(ttl);
  h.write_u8(protocol);
  h.write_u16(0);  // checksum placeholder
  h.write_u32(src);
  h.write_u32(dst);
  Bytes bytes = h.take();
  const u16 ck = internet_checksum(bytes);
  bytes[10] = static_cast<u8>(ck >> 8);
  bytes[11] = static_cast<u8>(ck);
  w.write_bytes(bytes);
}

std::optional<Ipv4Header> Ipv4Header::parse(ByteReader& r,
                                            std::size_t total_available) {
  if (r.remaining() < kSize) return std::nullopt;
  const std::size_t start = r.position();
  Ipv4Header h;
  const u8 vi = r.read_u8();
  h.version = vi >> 4;
  h.ihl = vi & 0xf;
  h.tos = r.read_u8();
  h.total_length = r.read_u16();
  h.identification = r.read_u16();
  h.flags_fragment = r.read_u16();
  h.ttl = r.read_u8();
  h.protocol = r.read_u8();
  h.checksum = r.read_u16();
  h.src = r.read_u32();
  h.dst = r.read_u32();
  if (h.version != 4 || h.ihl != 5) return std::nullopt;
  if (h.total_length < kSize || h.total_length > total_available) {
    return std::nullopt;
  }
  // Verify: checksum over the header (with its checksum field in place)
  // must come out zero... equivalently recompute with the field zeroed.
  ByteWriter chk;
  Ipv4Header copy = h;
  copy.serialize(chk);
  const Bytes& fresh = chk.bytes();
  // fresh has the correct checksum; compare against the wire bytes' field.
  const u16 expect = static_cast<u16>((u16{fresh[10]} << 8) | fresh[11]);
  if (expect != h.checksum) return std::nullopt;
  (void)start;
  return h;
}

void UdpHeader::serialize(ByteWriter& w) const {
  w.write_u16(src_port);
  w.write_u16(dst_port);
  w.write_u16(length);
  w.write_u16(checksum);
}

std::optional<UdpHeader> UdpHeader::parse(ByteReader& r) {
  if (r.remaining() < kSize) return std::nullopt;
  UdpHeader h;
  h.src_port = r.read_u16();
  h.dst_port = r.read_u16();
  h.length = r.read_u16();
  h.checksum = r.read_u16();
  if (h.length < kSize) return std::nullopt;
  return h;
}

u16 udp_checksum(Ipv4Addr src, Ipv4Addr dst, const UdpHeader& h,
                 std::span<const u8> payload) {
  ByteWriter w;
  // Pseudo-header.
  w.write_u32(src);
  w.write_u32(dst);
  w.write_u8(0);
  w.write_u8(17);
  w.write_u16(h.length);
  // UDP header with zero checksum.
  w.write_u16(h.src_port);
  w.write_u16(h.dst_port);
  w.write_u16(h.length);
  w.write_u16(0);
  w.write_bytes(payload);
  u16 ck = internet_checksum(w.bytes());
  if (ck == 0) ck = 0xffff;  // RFC 768: transmitted as all-ones
  return ck;
}

Bytes build_udp_packet(const UdpDatagram& d, u16 ip_id) {
  UdpHeader uh;
  uh.src_port = d.src_port;
  uh.dst_port = d.dst_port;
  uh.length = static_cast<u16>(UdpHeader::kSize + d.payload.size());
  uh.checksum = udp_checksum(d.src_ip, d.dst_ip, uh, d.payload);

  Ipv4Header ih;
  ih.total_length =
      static_cast<u16>(Ipv4Header::kSize + UdpHeader::kSize + d.payload.size());
  ih.identification = ip_id;
  ih.src = d.src_ip;
  ih.dst = d.dst_ip;

  ByteWriter w;
  ih.serialize(w);
  uh.serialize(w);
  w.write_bytes(d.payload);
  return w.take();
}

std::optional<UdpDatagram> parse_udp_packet(std::span<const u8> packet) {
  ByteReader r(packet);
  const auto ih = Ipv4Header::parse(r, packet.size());
  if (!ih || ih->protocol != 17) return std::nullopt;
  const auto uh = UdpHeader::parse(r);
  if (!uh) return std::nullopt;
  const std::size_t payload_len = uh->length - UdpHeader::kSize;
  if (r.remaining() < payload_len) return std::nullopt;
  UdpDatagram d;
  d.src_ip = ih->src;
  d.dst_ip = ih->dst;
  d.src_port = uh->src_port;
  d.dst_port = uh->dst_port;
  d.payload = r.read_bytes(payload_len);
  if (uh->checksum != 0) {
    UdpHeader copy = *uh;
    const u16 expect = udp_checksum(ih->src, ih->dst, copy, d.payload);
    if (expect != uh->checksum) return std::nullopt;
  }
  return d;
}

std::vector<Cell> segment_frame(std::span<const u8> frame) {
  std::vector<Cell> cells;
  std::size_t off = 0;
  do {
    Cell c;
    const std::size_t n = std::min(kCellPayload, frame.size() - off);
    // An empty frame's data() may be null, and memcpy's source must not be.
    if (n != 0) std::memcpy(c.payload, frame.data() + off, n);
    c.frame_bytes_valid = static_cast<u16>(n);
    off += n;
    c.last = off >= frame.size();
    cells.push_back(c);
  } while (off < frame.size());
  return cells;
}

std::optional<Bytes> CellReassembler::push(const Cell& c) {
  partial_.insert(partial_.end(), c.payload, c.payload + c.frame_bytes_valid);
  if (!c.last) return std::nullopt;
  ++frames_;
  Bytes out = std::move(partial_);
  partial_.clear();
  return out;
}

}  // namespace la::net
