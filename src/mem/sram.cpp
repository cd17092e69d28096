#include "mem/sram.hpp"

namespace la::mem {

Cycles Sram::transfer(bus::AhbTransfer& t) {
  Cycles cycles = 0;
  for (unsigned b = 0; b < t.beats; ++b) {
    const Addr a = t.addr + b * t.beat_bytes;
    if (!contains(a, t.beat_bytes)) {
      t.error = true;
      return cycles + 2;
    }
    const u32 o = a - base_;
    if (t.write) {
      mem_.store_be(o, t.beat_bytes, t.data[b]);
      // Fresh data regenerates the word's check bits.  Sub-word writes scrub
      // too: the model treats a write as a read-modify-write of the parity
      // word, which recomputes parity over the (now intentional) contents.
      mem_.scrub(o, 1);
      cycles += 1 + timing_.write_wait;
    } else {
      if (mem_.parity_bad(o)) {
        ++stats_.parity_errors;
        t.error = true;
        return cycles + 2;
      }
      t.data[b] = static_cast<u32>(mem_.load_be(o, t.beat_bytes));
      cycles += 1 + timing_.read_wait;
    }
  }
  return cycles;
}

bool Sram::debug_read(Addr addr, unsigned size, u64& out) {
  if (!contains(addr, size)) return false;
  out = mem_.load_be(addr - base_, size);
  return true;
}

bool Sram::debug_write(Addr addr, unsigned size, u64 value) {
  if (!contains(addr, size)) return false;
  mem_.store_be(addr - base_, size, value);
  return true;
}

bool Sram::backdoor_write(Addr addr, std::span<const u8> bytes) {
  if (!contains(addr, bytes.size())) return false;
  mem_.write(addr - base_, bytes);
  // The user path rewrites whole buffers; every word it touches gets fresh
  // parity.
  mem_.scrub(addr - base_, bytes.size());
  return true;
}

bool Sram::backdoor_read(Addr addr, std::span<u8> out) const {
  if (!contains(addr, out.size())) return false;
  mem_.read(addr - base_, out);
  return true;
}

u32 Sram::backdoor_word(Addr addr) const {
  u8 b[4] = {};
  const bool ok = backdoor_read(addr, b);
  assert(ok);
  (void)ok;
  return (u32{b[0]} << 24) | (u32{b[1]} << 16) | (u32{b[2]} << 8) | u32{b[3]};
}

void Sram::backdoor_write_word(Addr addr, u32 value) {
  const u8 b[4] = {static_cast<u8>(value >> 24), static_cast<u8>(value >> 16),
                   static_cast<u8>(value >> 8), static_cast<u8>(value)};
  const bool ok = backdoor_write(addr, b);
  assert(ok);
  (void)ok;
}

bool Sram::corrupt_word(Addr addr, u32 mask) {
  if (!contains(addr & ~Addr{3}, 4)) return false;
  const u32 o = (addr - base_) & ~u32{3};
  mem_.store_be(o, 4, mem_.load_be(o, 4) ^ mask);
  mem_.mark_parity_bad(o);
  ++stats_.words_corrupted;
  return true;
}

bool Sram::parity_ok(Addr addr, u64 len) const {
  if (len == 0) return true;
  if (!contains(addr, len)) return true;  // out of range: nothing to report
  return mem_.parity_ok(addr - base_, len);
}

}  // namespace la::mem
