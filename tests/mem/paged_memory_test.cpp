// PagedMemory: copy-on-write page semantics, page-crossing accesses, the
// sparse parity shadow, and the snapshot stream round trip.
#include "mem/paged_memory.hpp"

#include <gtest/gtest.h>

#include <array>

namespace la::mem {
namespace {

constexpr u32 kSize = 4 * kPageBytes;

struct Capture {
  Bytes state;
  std::vector<PageRef> pages;
};

Capture capture(const PagedMemory& m) {
  SnapWriter w;
  m.save(w);
  return {w.take(), w.take_pages()};
}

bool restore(PagedMemory& m, const Capture& c) {
  SnapReader r(c.state, &c.pages);
  return m.load(r) && r.ok() && r.at_end();
}

TEST(PagedMemory, NeverWrittenPagesReadZeroAndHoldNoStorage) {
  PagedMemory m(kSize, 4);
  EXPECT_EQ(m.resident_pages(), 0u);
  EXPECT_EQ(m.load_be(kSize - 8, 8), 0u);

  m.store_be(kPageBytes + 16, 4, 0xdeadbeef);
  EXPECT_EQ(m.resident_pages(), 1u);
  EXPECT_EQ(m.dirty_pages(), 1u);
  EXPECT_EQ(m.load_be(kPageBytes + 16, 4), 0xdeadbeefu);
  EXPECT_EQ(m.load_be(kPageBytes + 17, 2), 0xadbeu);
  // A capture references resident pages only.
  EXPECT_EQ(capture(m).pages.size(), 1u);
}

TEST(PagedMemory, CaptureSharesPagesAndTheNextStoreCopiesOnlyItsPage) {
  PagedMemory m(kSize, 4);
  m.store_be(0, 4, 0x11111111);
  m.store_be(2 * kPageBytes, 4, 0x22222222);
  const Capture snap = capture(m);
  ASSERT_EQ(snap.pages.size(), 2u);
  EXPECT_EQ(m.dirty_pages(), 0u);  // frozen: the snapshot holds them now

  // Capturing again without a store shares the very same pages.
  const Capture again = capture(m);
  ASSERT_EQ(again.pages.size(), 2u);
  EXPECT_EQ(again.pages[0], snap.pages[0]);
  EXPECT_EQ(again.pages[1], snap.pages[1]);

  m.store_be(4, 4, 0x33333333);
  EXPECT_EQ(m.dirty_pages(), 1u);
  const Capture after = capture(m);
  EXPECT_NE(after.pages[0], snap.pages[0]);  // the written page was copied
  EXPECT_EQ(after.pages[1], snap.pages[1]);  // the other is still shared
  // The snapshot's copy never sees the later store.
  EXPECT_EQ((*snap.pages[0])[4], 0u);
  EXPECT_EQ(m.load_be(0, 8), 0x1111111133333333u);
}

TEST(PagedMemory, LoadRestoresContentsPagesAndParity) {
  PagedMemory m(kSize, 4);
  m.store_be(8, 4, 0xabcdef01);
  m.mark_parity_bad(8);
  const Capture snap = capture(m);

  m.store_be(8, 4, 0);
  m.scrub(8, 4);
  m.store_be(3 * kPageBytes, 4, 0x55);  // a page the snapshot never had
  ASSERT_TRUE(restore(m, snap));
  EXPECT_EQ(m.load_be(8, 4), 0xabcdef01u);
  EXPECT_TRUE(m.parity_bad(8));
  EXPECT_EQ(m.load_be(3 * kPageBytes, 4), 0u);
  EXPECT_EQ(m.resident_pages(), 1u);
  EXPECT_EQ(m.dirty_pages(), 0u);

  // Restored pages are shared: a store copies, the snapshot stays intact.
  m.store_be(8, 4, 0x77);
  PagedMemory fresh(kSize, 4);
  ASSERT_TRUE(restore(fresh, snap));
  EXPECT_EQ(fresh.load_be(8, 4), 0xabcdef01u);
}

TEST(PagedMemory, AccessesSpanningPageBoundaries) {
  PagedMemory m(kSize, 8);
  m.store_be(kPageBytes - 3, 8, 0x0102030405060708);
  EXPECT_EQ(m.load_be(kPageBytes - 3, 8), 0x0102030405060708u);
  EXPECT_EQ(m.resident_pages(), 2u);

  std::array<u8, 3 * kPageBytes> out{};
  std::array<u8, 3 * kPageBytes> in{};
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = static_cast<u8>(i * 7);
  m.write(100, in);
  m.read(100, out);
  EXPECT_EQ(in, out);
  EXPECT_EQ(m.resident_pages(), 4u);
}

TEST(PagedMemory, ParityShadowCoversEveryOverlappingWord) {
  PagedMemory m(kSize, 8);
  m.mark_parity_bad(16);  // word 2 = bytes 16..23
  EXPECT_TRUE(m.parity_bad(23));
  EXPECT_FALSE(m.parity_bad(24));
  EXPECT_TRUE(m.parity_ok(0, 16));
  EXPECT_FALSE(m.parity_ok(15, 2));
  EXPECT_TRUE(m.parity_ok(24, 100));
  m.scrub(20, 1);  // any byte of the word regenerates its check bits
  EXPECT_TRUE(m.parity_ok(0, kSize));
}

TEST(PagedMemory, LoadRejectsMismatchedSizeAndDanglingPages) {
  PagedMemory m(kSize, 4);
  m.store_be(0, 4, 1);
  const Capture snap = capture(m);

  PagedMemory other(2 * kPageBytes, 4);
  SnapReader wrong_size(snap.state, &snap.pages);
  EXPECT_FALSE(other.load(wrong_size));

  PagedMemory same(kSize, 4);
  SnapReader no_pages(snap.state);  // the page table did not travel
  EXPECT_FALSE(same.load(no_pages));
  EXPECT_EQ(same.resident_pages(), 0u);  // nothing half-applied
}

}  // namespace
}  // namespace la::mem
