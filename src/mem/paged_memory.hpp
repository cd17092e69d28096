// Byte storage for the simulated RAMs (SRAM, SDRAM) as copy-on-write 4 KiB
// pages, plus the RAMs' parity shadow.
//
// Each page is in one of three states:
//   * zero     — never written; reads see the shared all-zero page and no
//                storage is allocated;
//   * shared   — held by at least one snapshot and therefore immutable; the
//                next store into it copies it first;
//   * dirty    — owned by this memory alone and written in place.
// A capture (save) shares every allocated page with the snapshot and turns
// the dirty ones shared; a restore (load) points the page table at the
// snapshot's pages.  Neither copies page contents, so both cost a pointer
// per page, and the only bytes ever copied are the pages a job stores into
// afterwards.  This is the machine-forking scheme of libriscv-style
// emulators, applied to the FPX memories.
//
// Parity is one check-bit flag per `parity_word` bytes (4 for the SRAM, 8
// for the SDRAM).  Only fault injection ever damages a word, so the shadow
// is the sparse set of damaged words: the hot path tests one emptiness
// flag, and a capture copies the set.
#pragma once

#include <set>
#include <span>
#include <vector>

#include "common/bits.hpp"
#include "common/snapio.hpp"
#include "common/types.hpp"

namespace la::mem {

class PagedMemory {
 public:
  PagedMemory(u32 size, u32 parity_word);

  u32 size() const { return size_; }

  /// Big-endian value of the `n` (1, 2, 4 or 8) bytes at `off`.
  u64 load_be(u32 off, unsigned n) const {
    if ((off & kPageMask) + n <= kPageBytes) [[likely]] {
      return read_be(rd_[off >> kPageBits] + (off & kPageMask), n);
    }
    u8 buf[8];
    read(off, {buf, n});
    return read_be(buf, n);
  }
  /// Store the low `n` (1, 2, 4 or 8) bytes of `v` big-endian at `off`.
  void store_be(u32 off, unsigned n, u64 v) {
    if ((off & kPageMask) + n <= kPageBytes) [[likely]] {
      write_be(writable(off >> kPageBits) + (off & kPageMask), n, v);
      return;
    }
    u8 buf[8];
    write_be(buf, n, v);
    write(off, {buf, n});
  }
  /// Byte ranges; may span pages.  The caller bounds-checks.
  void read(u32 off, std::span<u8> out) const;
  void write(u32 off, std::span<const u8> in);

  // ---- parity shadow ----
  bool parity_bad(u32 off) const {
    return !bad_words_.empty() && bad_words_.count(off / parity_word_) != 0;
  }
  void mark_parity_bad(u32 off) { bad_words_.insert(off / parity_word_); }
  /// Fresh check bits for every word overlapping [off, off + len).
  void scrub(u32 off, u64 len) {
    if (!bad_words_.empty() && len != 0) erase_bad(off, len);
  }
  /// True when no word overlapping [off, off + len) is damaged.
  bool parity_ok(u32 off, u64 len) const;

  // ---- page accounting ----
  /// Pages with storage of their own (written at least once).
  std::size_t resident_pages() const;
  /// Pages written since the last save() or load(): what the next capture
  /// adds beyond the previous one.
  std::size_t dirty_pages() const { return dirty_.size(); }

  /// Snapshot support: the page table (resident pages by reference) and
  /// the damaged-word set.  save() is logically const — the contents do not
  /// change — but it freezes the dirty pages, which now belong to the
  /// snapshot too.  load() requires the same size and swaps only the page
  /// pointers that differ.
  void save(SnapWriter& w) const;
  bool load(SnapReader& r);

 private:
  static constexpr u32 kPageMask = kPageBytes - 1;

  u8* writable(u32 page) {
    u8* p = wr_[page];
    return p != nullptr ? p : unshare(page);
  }
  /// Copy-on-write fault: give `page` storage of its own.
  u8* unshare(u32 page);
  void erase_bad(u32 off, u64 len);

  u32 size_;
  u32 parity_word_;
  std::vector<PageRef> pages_;  // null: never written, reads as zero
  std::vector<const u8*> rd_;   // page contents (the zero page when null)
  mutable std::vector<u8*> wr_;      // set only for dirty pages
  mutable std::vector<u32> dirty_;   // indices whose wr_ is set
  std::set<u32> bad_words_;          // parity-damaged word indices
};

}  // namespace la::mem
