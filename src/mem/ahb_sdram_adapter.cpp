#include "mem/ahb_sdram_adapter.hpp"

#include <algorithm>

#include "common/bits.hpp"

namespace la::mem {
namespace {

/// Shift of the `size`-byte lane at byte offset `pos` (0..7, big-endian)
/// of a 64-bit word.
unsigned lane_shift(unsigned pos, unsigned size) {
  return 8 * (8 - pos - size);
}
/// The low `size` (1, 2 or 4) bytes' mask.
u64 lane_mask(unsigned size) { return (u64{1} << (8 * size)) - 1; }

/// Merge the low `size` bytes of `value` into the big-endian 64-bit word
/// `w64` that starts at byte address `word_base`; the beat sits at `addr`.
u64 merge_lane(u64 w64, Addr word_base, Addr addr, unsigned size, u32 value) {
  const unsigned shift = lane_shift(addr - word_base, size);
  const u64 mask = lane_mask(size);
  return (w64 & ~(mask << shift)) | ((value & mask) << shift);
}

/// Extract `size` bytes at `addr` from the 64-bit word starting at
/// `word_base`.
u32 extract_lane(u64 w64, Addr word_base, Addr addr, unsigned size) {
  return static_cast<u32>((w64 >> lane_shift(addr - word_base, size)) &
                          lane_mask(size));
}

}  // namespace

bool AhbSdramAdapter::debug_read(Addr addr, unsigned size, u64& out) {
  if (!contains(addr, size)) return false;
  const Addr dev = addr - base_;
  const Addr word = static_cast<Addr>(align_down(dev, 8));
  if (size == 8) {
    out = ctrl_.device().backdoor_word64(word);
    return true;
  }
  out = extract_lane(ctrl_.device().backdoor_word64(word), word, dev, size);
  return true;
}

bool AhbSdramAdapter::debug_write(Addr addr, unsigned size, u64 value) {
  if (!contains(addr, size)) return false;
  const Addr dev = addr - base_;
  const Addr word = static_cast<Addr>(align_down(dev, 8));
  if (size == 8) {
    ctrl_.device().backdoor_write_word64(word, value);
    return true;
  }
  u64 w64 = ctrl_.device().backdoor_word64(word);
  w64 = merge_lane(w64, word, dev, size, static_cast<u32>(value));
  ctrl_.device().backdoor_write_word64(word, w64);
  return true;
}

Cycles AhbSdramAdapter::transfer(bus::AhbTransfer& t) {
  const u64 span = static_cast<u64>(t.beats) * t.beat_bytes;
  if (!contains(t.addr, span)) {
    t.error = true;
    return 2;
  }
  return t.write ? do_write(t) : do_read(t);
}

Cycles AhbSdramAdapter::do_read(bus::AhbTransfer& t) {
  Cycles c = 0;
  // Fetched window of 64-bit words: win[0, win_size).
  u64 win[kMaxReadBurstWords64];
  u32 win_size = 0;
  Addr win_base = 0;  // device-local byte offset of win[0]
  u32 consumed = 0;   // 64-bit words of the window actually used

  for (unsigned b = 0; b < t.beats; ++b) {
    const Addr abs = t.addr + b * t.beat_bytes;
    const Addr dev = abs - base_;
    const Addr word = static_cast<Addr>(align_down(dev, 8));
    const bool in_window =
        win_size != 0 && word >= win_base && word < win_base + win_size * 8;
    if (!in_window) {
      stats_.wasted_words64 += win_size - consumed;
      // Clamp the prefetch to the device end.
      win_size = std::min(cfg_.always_short_burst ? cfg_.read_burst_words64
                                                  : 1u,
                          static_cast<u32>((size_ - word) / 8));
      win_base = word;
      std::fill_n(win, win_size, 0);
      ++stats_.read_handshakes;
      c += ctrl_.read(port_, *clock_ + c, win_base,
                      std::span<u64>(win, win_size));
      if (ctrl_.device().consume_parity_error()) {
        // The controller saw bad check bits on the data it fetched; answer
        // the AHB with ERROR rather than forwarding damaged words.
        ++stats_.parity_errors;
        t.error = true;
        return c + 2;
      }
      consumed = 0;
    }
    const u32 idx = (word - win_base) / 8;
    consumed = std::max(consumed, idx + 1);
    t.data[b] = extract_lane(win[idx], win_base + idx * 8, dev, t.beat_bytes);
  }
  stats_.wasted_words64 += win_size - consumed;
  return c;
}

Cycles AhbSdramAdapter::do_write(bus::AhbTransfer& t) {
  Cycles c = 0;
  for (unsigned b = 0; b < t.beats; ++b) {
    const Addr abs = t.addr + b * t.beat_bytes;
    const Addr dev = abs - base_;
    const Addr word = static_cast<Addr>(align_down(dev, 8));

    // Combining fast path (ablation config): two consecutive 32-bit beats
    // covering one aligned 64-bit word are written with one handshake and
    // no read.
    if (!cfg_.rmw_writes && t.beat_bytes == 4 && dev == word &&
        b + 1 < t.beats) {
      u64 w64 = (u64{t.data[b]} << 32) | t.data[b + 1];
      ++stats_.write_handshakes;
      c += ctrl_.write(port_, *clock_ + c, word, std::span<const u64>(&w64, 1));
      ++b;  // consumed two beats
      continue;
    }

    // Paper behaviour: read-modify-write, two handshakes per 32-bit store.
    u64 w64 = 0;
    ++stats_.rmw_reads;
    ++stats_.read_handshakes;
    c += ctrl_.read(port_, *clock_ + c, word, std::span<u64>(&w64, 1));
    if (ctrl_.device().consume_parity_error()) {
      // Writing the merged lane back would regenerate the word's check
      // bits while the *untouched* lanes still hold damaged data — turning
      // a detectable fault into a silent one.  Refuse the store instead.
      ++stats_.parity_errors;
      t.error = true;
      return c + 2;
    }
    w64 = merge_lane(w64, word, dev, t.beat_bytes, t.data[b]);
    ++stats_.write_handshakes;
    c += ctrl_.write(port_, *clock_ + c, word, std::span<const u64>(&w64, 1));
  }
  return c;
}

}  // namespace la::mem
