// Bit-manipulation helpers shared by the decoder, caches, and bus models.
#pragma once

#include <bit>
#include <cassert>
#include <cstring>

#include "common/types.hpp"

namespace la {

/// Extract bits [lo, hi] (inclusive, hi >= lo) of `v`, shifted down to bit 0.
constexpr u32 bits(u32 v, unsigned hi, unsigned lo) {
  assert(hi >= lo && hi < 32);
  const u32 width = hi - lo + 1;
  const u32 mask = (width >= 32) ? ~0u : ((1u << width) - 1u);
  return (v >> lo) & mask;
}

/// Single bit `n` of `v` as 0/1.
constexpr u32 bit(u32 v, unsigned n) {
  assert(n < 32);
  return (v >> n) & 1u;
}

/// Sign-extend the low `width` bits of `v` to a full 32-bit signed value.
constexpr i32 sign_extend(u32 v, unsigned width) {
  assert(width >= 1 && width <= 32);
  if (width == 32) return static_cast<i32>(v);
  const u32 sign = 1u << (width - 1);
  const u32 mask = (1u << width) - 1u;
  v &= mask;
  return static_cast<i32>((v ^ sign) - sign);
}

constexpr bool is_pow2(u64 v) { return v != 0 && (v & (v - 1)) == 0; }

/// floor(log2(v)) for v > 0.
constexpr unsigned ilog2(u64 v) {
  assert(v != 0);
  return 63u - static_cast<unsigned>(std::countl_zero(v));
}

constexpr u64 align_down(u64 v, u64 a) {
  assert(is_pow2(a));
  return v & ~(a - 1);
}

constexpr u64 align_up(u64 v, u64 a) {
  assert(is_pow2(a));
  return (v + a - 1) & ~(a - 1);
}

constexpr bool is_aligned(u64 v, u64 a) { return align_down(v, a) == v; }

/// ceil(n / d) for positive integers.
constexpr u64 ceil_div(u64 n, u64 d) {
  assert(d != 0);
  return (n + d - 1) / d;
}

/// Byte-order reversal (C++23's std::byteswap); compilers emit one bswap.
constexpr u16 byteswap(u16 v) { return static_cast<u16>((v << 8) | (v >> 8)); }
constexpr u32 byteswap(u32 v) {
  return (v << 24) | ((v << 8) & 0x00ff0000u) | ((v >> 8) & 0x0000ff00u) |
         (v >> 24);
}
constexpr u64 byteswap(u64 v) {
  return (u64{byteswap(static_cast<u32>(v))} << 32) |
         byteswap(static_cast<u32>(v >> 32));
}

namespace detail {
/// Host-order value of the big-endian T stored at `p` (any alignment).
template <class T>
T load_big(const u8* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::little) v = byteswap(v);
  return v;
}
template <class T>
void store_big(u8* p, T v) {
  if constexpr (std::endian::native == std::endian::little) v = byteswap(v);
  std::memcpy(p, &v, sizeof v);
}
}  // namespace detail

/// Big-endian value of the `n` (1, 2, 4 or 8) bytes at `p`: the one
/// byte-order path of the simulated memories and cache lines.  With `n` a
/// constant the switch folds to a single load.
inline u64 read_be(const u8* p, unsigned n) {
  assert(n == 1 || n == 2 || n == 4 || n == 8);
  switch (n) {
    case 1: return p[0];
    case 2: return detail::load_big<u16>(p);
    case 4: return detail::load_big<u32>(p);
    default: return detail::load_big<u64>(p);
  }
}

/// Store the low `n` (1, 2, 4 or 8) bytes of `v` big-endian at `p`.
inline void write_be(u8* p, unsigned n, u64 v) {
  assert(n == 1 || n == 2 || n == 4 || n == 8);
  switch (n) {
    case 1: p[0] = static_cast<u8>(v); break;
    case 2: detail::store_big(p, static_cast<u16>(v)); break;
    case 4: detail::store_big(p, static_cast<u32>(v)); break;
    default: detail::store_big(p, v); break;
  }
}

}  // namespace la
