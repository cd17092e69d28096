// Binary snapshot serialization helpers.
//
// SnapWriter/SnapReader implement a tiny little-endian tagged stream used by
// sim::SystemSnapshot.  Every component that participates in snapshotting
// implements
//
//   void save_state(SnapWriter& w) const;
//   bool load_state(SnapReader& r);
//
// and begins its section with a fourcc tag so a mismatched stream fails fast
// with a clear position instead of silently misaligning.  The reader is
// sticky-failing: any short read or tag mismatch latches ok() == false and
// all further reads return zeroes, so load paths can check once at the end.
//
// Memory pages travel by reference, not by value: page() records an index
// into the writer's page table and shares the page itself, so a capture
// costs a pointer per page instead of a copy of its bytes.
#pragma once

#include <array>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"

namespace la {

/// Fourcc section tag, e.g. snap_tag("CPU ").
constexpr u32 snap_tag(const char (&s)[5]) {
  return (u32{static_cast<u8>(s[0])} << 24) | (u32{static_cast<u8>(s[1])} << 16) |
         (u32{static_cast<u8>(s[2])} << 8) | u32{static_cast<u8>(s[3])};
}

/// Simulated memory is stored, captured and restored in 4 KiB pages.
inline constexpr u32 kPageBits = 12;
inline constexpr u32 kPageBytes = 1u << kPageBits;
using Page = std::array<u8, kPageBytes>;
/// An immutable page shared between a live memory and its snapshots
/// (mem/paged_memory.hpp).
using PageRef = std::shared_ptr<const Page>;

class SnapWriter {
 public:
  void u8v(u8 v) { out_.push_back(v); }
  void b(bool v) { u8v(v ? 1 : 0); }
  void u16v(u16 v) {
    u8v(static_cast<u8>(v));
    u8v(static_cast<u8>(v >> 8));
  }
  void u32v(u32 v) {
    u16v(static_cast<u16>(v));
    u16v(static_cast<u16>(v >> 16));
  }
  void u64v(u64 v) {
    u32v(static_cast<u32>(v));
    u32v(static_cast<u32>(v >> 32));
  }
  void i64v(i64 v) { u64v(static_cast<u64>(v)); }
  void tag(u32 t) { u32v(t); }

  void bytes(const Bytes& v) {
    u64v(v.size());
    raw(v.data(), v.size());
  }
  /// Unprefixed bytes (the reader must know the length).
  void raw(const u8* p, std::size_t n) { out_.insert(out_.end(), p, p + n); }
  /// A page by reference: the stream holds its 1-based index into pages().
  void page(PageRef p) {
    pages_.push_back(std::move(p));
    u32v(static_cast<u32>(pages_.size()));
  }
  void str(const std::string& s) {
    u64v(s.size());
    out_.insert(out_.end(), s.begin(), s.end());
  }
  void vec_u32(const std::vector<u32>& v) {
    u64v(v.size());
    for (u32 x : v) u32v(x);
  }
  void vec_i64(const std::vector<i64>& v) {
    u64v(v.size());
    for (i64 x : v) i64v(x);
  }
  void vec_bool(const std::vector<bool>& v) {
    u64v(v.size());
    for (bool x : v) b(x);
  }

  const Bytes& data() const { return out_; }
  Bytes take() { return std::move(out_); }
  std::vector<PageRef> take_pages() { return std::move(pages_); }

 private:
  Bytes out_;
  std::vector<PageRef> pages_;
};

class SnapReader {
 public:
  /// `pages` resolves the stream's page() indices (null: a stream that
  /// references no pages).
  explicit SnapReader(const Bytes& data,
                      const std::vector<PageRef>* pages = nullptr)
      : data_(&data), pages_(pages) {}

  u8 u8v() {
    if (pos_ >= data_->size()) {
      ok_ = false;
      return 0;
    }
    return (*data_)[pos_++];
  }
  bool b() { return u8v() != 0; }
  u16 u16v() {
    const u16 lo = u8v();
    return static_cast<u16>(lo | (u16{u8v()} << 8));
  }
  u32 u32v() {
    const u32 lo = u16v();
    return lo | (u32{u16v()} << 16);
  }
  u64 u64v() {
    const u64 lo = u32v();
    return lo | (u64{u32v()} << 32);
  }
  i64 i64v() { return static_cast<i64>(u64v()); }

  /// Reads a tag and fails the stream if it is not the expected one.
  bool expect(u32 t) {
    if (u32v() != t) ok_ = false;
    return ok_;
  }

  Bytes bytes() {
    Bytes v(len(1));
    raw(v.data(), v.size());
    return v;
  }
  /// `n` unprefixed bytes into `out` (zeroes past the end of the stream).
  void raw(u8* out, std::size_t n) {
    if (n > data_->size() - pos_) {
      ok_ = false;
      std::memset(out, 0, n);
      return;
    }
    std::memcpy(out, data_->data() + pos_, n);
    pos_ += n;
  }
  /// The page a writer's page() recorded here.
  PageRef page() {
    const u32 i = u32v();
    if (pages_ == nullptr || i == 0 || i > pages_->size()) {
      ok_ = false;
      return nullptr;
    }
    return (*pages_)[i - 1];
  }
  std::string str() {
    const u64 n = len(1);
    std::string s;
    s.reserve(n);
    for (u64 i = 0; i < n; ++i) s.push_back(static_cast<char>(u8v()));
    return s;
  }
  std::vector<u32> vec_u32() {
    const u64 n = len(4);
    std::vector<u32> v(n);
    for (auto& x : v) x = u32v();
    return v;
  }
  std::vector<i64> vec_i64() {
    const u64 n = len(8);
    std::vector<i64> v(n);
    for (auto& x : v) x = i64v();
    return v;
  }
  std::vector<bool> vec_bool() {
    const u64 n = len(1);
    std::vector<bool> v(n);
    for (u64 i = 0; i < n; ++i) v[i] = b();
    return v;
  }

  bool ok() const { return ok_; }
  std::size_t pos() const { return pos_; }
  bool at_end() const { return pos_ == data_->size(); }

 private:
  // Length prefix, clamped against the remaining bytes so a corrupt stream
  // cannot drive a multi-gigabyte allocation.
  u64 len(u64 elem_size) {
    const u64 n = u64v();
    if (!ok_ || n > (data_->size() - pos_ + elem_size - 1) / elem_size) {
      ok_ = false;
      return 0;
    }
    return n;
  }

  const Bytes* data_;
  const std::vector<PageRef>* pages_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// FNV-1a 64 over a byte range; used as the snapshot stream checksum and for
/// warm-start pool program digests.
inline u64 snap_fnv1a(const u8* p, std::size_t n, u64 h = 0xcbf29ce484222325ull) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace la
