#include "mem/sdram.hpp"

#include <algorithm>

namespace la::mem {

SdramDevice::SdramDevice(u32 size_bytes, SdramTiming timing)
    : timing_(timing),
      bank_shift_(ilog2(timing.row_bytes)),
      row_shift_(ilog2(timing.row_bytes) + ilog2(timing.banks)),
      mem_(size_bytes, 8),
      open_row_(timing.banks, -1) {
  assert(is_pow2(size_bytes) && is_pow2(timing.banks) &&
         is_pow2(timing.row_bytes));
}

Cycles SdramDevice::row_cost(Addr addr) {
  const u32 bank = (addr >> bank_shift_) & (timing_.banks - 1);
  const i64 row = static_cast<i64>(addr >> row_shift_);
  if (open_row_[bank] == row) {
    ++stats_.row_hits;
    return 0;
  }
  if (open_row_[bank] < 0) {
    ++stats_.row_misses;
    open_row_[bank] = row;
    return timing_.trcd;
  }
  ++stats_.row_conflicts;
  open_row_[bank] = row;
  return timing_.trp + timing_.trcd;
}

Cycles SdramDevice::read_burst(Addr addr, std::span<u64> out) {
  assert(is_aligned(addr, 8) && addr + out.size() * 8 <= size());
  Cycles c = row_cost(addr) + timing_.cas;
  for (std::size_t w = 0; w < out.size(); ++w) {
    const u32 o = addr + static_cast<u32>(w * 8);
    if (mem_.parity_bad(o)) {
      parity_pending_ = true;
      ++stats_.parity_errors;
    }
    out[w] = mem_.load_be(o, 8);
    c += 1;  // one word per clock once the pipe is primed
  }
  ++stats_.reads;
  return c;
}

Cycles SdramDevice::write_burst(Addr addr, std::span<const u64> in) {
  assert(is_aligned(addr, 8) && addr + in.size() * 8 <= size());
  Cycles c = row_cost(addr);
  for (std::size_t w = 0; w < in.size(); ++w) {
    mem_.store_be(addr + static_cast<u32>(w * 8), 8, in[w]);
    c += 1;
  }
  mem_.scrub(addr, in.size() * 8);
  ++stats_.writes;
  return c;
}

u64 SdramDevice::backdoor_word64(Addr addr) const {
  assert(is_aligned(addr, 8) && addr + 8 <= size());
  return mem_.load_be(addr, 8);
}

void SdramDevice::backdoor_write_word64(Addr addr, u64 v) {
  assert(is_aligned(addr, 8) && addr + 8 <= size());
  mem_.store_be(addr, 8, v);
  mem_.scrub(addr, 8);
}

bool SdramDevice::corrupt_word64(Addr addr, u64 mask) {
  const Addr word = addr & ~Addr{7};
  if (word + 8 > size()) return false;
  mem_.store_be(word, 8, mem_.load_be(word, 8) ^ mask);
  mem_.mark_parity_bad(word);
  ++stats_.words_corrupted;
  return true;
}

bool SdramDevice::parity_ok(Addr addr, u64 len) const {
  if (len == 0) return true;
  if (addr + len > size()) return true;
  return mem_.parity_ok(addr, len);
}

Cycles FpxSdramController::read(SdramPort p, Cycles now, Addr addr,
                                std::span<u64> out) {
  const int pi = static_cast<int>(p);
  Cycles t = now;
  if (busy_until_ > t) {
    stats_.wait_cycles += busy_until_ - t;
    t = busy_until_;
  }
  std::size_t done = 0;
  while (done < out.size()) {
    const std::size_t n = std::min<std::size_t>(max_burst_, out.size() - done);
    ++stats_.handshakes[pi];
    stats_.words[pi] += n;
    t += kHandshakeCycles +
         dev_.read_burst(addr + static_cast<Addr>(done * 8),
                         out.subspan(done, n));
    done += n;
  }
  busy_until_ = t;
  return t - now;
}

Cycles FpxSdramController::write(SdramPort p, Cycles now, Addr addr,
                                 std::span<const u64> in) {
  const int pi = static_cast<int>(p);
  Cycles t = now;
  if (busy_until_ > t) {
    stats_.wait_cycles += busy_until_ - t;
    t = busy_until_;
  }
  std::size_t done = 0;
  while (done < in.size()) {
    const std::size_t n = std::min<std::size_t>(max_burst_, in.size() - done);
    ++stats_.handshakes[pi];
    stats_.words[pi] += n;
    t += kHandshakeCycles +
         dev_.write_burst(addr + static_cast<Addr>(done * 8),
                          in.subspan(done, n));
    done += n;
  }
  busy_until_ = t;
  return t - now;
}

}  // namespace la::mem
