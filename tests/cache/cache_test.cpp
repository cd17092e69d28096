// Directed tests of the set-associative cache model.
#include "cache/cache.hpp"

#include <gtest/gtest.h>

namespace la::cache {
namespace {

CacheConfig direct_1k() {
  return CacheConfig{.size_bytes = 1024, .line_bytes = 32, .ways = 1};
}

TEST(CacheConfig, Validity) {
  EXPECT_TRUE(direct_1k().valid());
  EXPECT_FALSE((CacheConfig{.size_bytes = 1000}).valid());
  EXPECT_FALSE((CacheConfig{.size_bytes = 32, .line_bytes = 32, .ways = 2})
                   .valid());
  EXPECT_EQ(direct_1k().num_sets(), 32u);
  CacheConfig two_way{.size_bytes = 1024, .line_bytes = 32, .ways = 2};
  EXPECT_EQ(two_way.num_sets(), 16u);
}

TEST(Cache, ColdMissThenHit) {
  Cache c(direct_1k());
  EXPECT_FALSE(c.access(0x100, false).hit);
  EXPECT_TRUE(c.access(0x100, false).hit);
  EXPECT_TRUE(c.access(0x11c, false).hit);   // same 32B line
  EXPECT_FALSE(c.access(0x120, false).hit);  // next line
  EXPECT_EQ(c.stats().read_hits, 2u);
  EXPECT_EQ(c.stats().read_misses, 2u);
}

TEST(Cache, DirectMappedConflict) {
  Cache c(direct_1k());
  // 1 KB direct-mapped: addresses 1 KB apart alias to the same set.
  EXPECT_FALSE(c.access(0x0, false).hit);
  EXPECT_FALSE(c.access(0x400, false).hit);
  EXPECT_FALSE(c.access(0x0, false).hit);  // evicted by 0x400
  EXPECT_EQ(c.stats().evictions, 2u);
}

TEST(Cache, TwoWayAvoidsSimpleConflict) {
  Cache c(CacheConfig{.size_bytes = 1024, .line_bytes = 32, .ways = 2});
  c.access(0x0, false);
  c.access(0x400, false);
  EXPECT_TRUE(c.access(0x0, false).hit);
  EXPECT_TRUE(c.access(0x400, false).hit);
}

TEST(Cache, LruEvictsLeastRecent) {
  Cache c(CacheConfig{.size_bytes = 1024, .line_bytes = 32, .ways = 2});
  c.access(0x0, false);    // way A
  c.access(0x400, false);  // way B
  c.access(0x0, false);    // touch A: B is now LRU
  c.access(0x800, false);  // evicts B
  EXPECT_TRUE(c.access(0x0, false).hit);
  EXPECT_FALSE(c.access(0x400, false).hit);
}

TEST(Cache, WriteThroughNoAllocate) {
  Cache c(direct_1k());
  const auto w = c.access(0x200, true);
  EXPECT_FALSE(w.hit);
  EXPECT_FALSE(w.fill);  // write-around
  EXPECT_FALSE(c.probe(0x200));
  // After a read brings the line in, writes hit.
  c.access(0x200, false);
  EXPECT_TRUE(c.access(0x200, true).hit);
  EXPECT_EQ(c.stats().write_misses, 1u);
  EXPECT_EQ(c.stats().write_hits, 1u);
}

TEST(Cache, WriteBackAllocatesAndWritesBack) {
  CacheConfig cfg = direct_1k();
  cfg.write_policy = WritePolicy::kWriteBackAllocate;
  Cache c(cfg);
  const auto w = c.access(0x200, true);
  EXPECT_TRUE(w.fill);  // write-allocate
  EXPECT_TRUE(c.probe(0x200));
  // Conflicting fill must report the dirty victim.
  const auto v = c.access(0x200 + 1024, false);
  EXPECT_TRUE(v.writeback);
  EXPECT_EQ(v.victim_addr, 0x200u);
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, FlushInvalidatesEverything) {
  Cache c(direct_1k());
  for (Addr a = 0; a < 1024; a += 32) c.access(a, false);
  EXPECT_EQ(c.valid_lines(), 32u);
  c.flush();
  EXPECT_EQ(c.valid_lines(), 0u);
  EXPECT_FALSE(c.probe(0));
  EXPECT_EQ(c.stats().flushes, 1u);
}

TEST(Cache, FlushReportsDirtyLines) {
  CacheConfig cfg = direct_1k();
  cfg.write_policy = WritePolicy::kWriteBackAllocate;
  Cache c(cfg);
  c.access(0x40, true);
  c.access(0x80, false);  // clean
  std::vector<DirtyLine> dirty;
  c.flush(&dirty);
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0].addr, 0x40u);
  EXPECT_EQ(dirty[0].data.size(), 32u);
}

TEST(Cache, LineDataSurvivesInCache) {
  Cache c(direct_1k());
  auto out = c.access(0x100, false);
  ASSERT_TRUE(out.fill);
  ASSERT_NE(out.data, nullptr);
  out.data[0] = 0xab;
  out.data[31] = 0xcd;
  const u8* peek = c.peek_line(0x11f);
  ASSERT_NE(peek, nullptr);
  EXPECT_EQ(peek[0], 0xab);
  EXPECT_EQ(peek[31], 0xcd);
  EXPECT_EQ(c.peek_line(0x200), nullptr);
}

TEST(Cache, InvalidateReturnsDirtyData) {
  CacheConfig cfg = direct_1k();
  cfg.write_policy = WritePolicy::kWriteBackAllocate;
  Cache c(cfg);
  auto out = c.access(0x40, true);
  out.data[4] = 0x5a;
  DirtyLine d;
  ASSERT_TRUE(c.invalidate_line(0x40, &d));
  EXPECT_EQ(d.addr, 0x40u);
  ASSERT_EQ(d.data.size(), 32u);
  EXPECT_EQ(d.data[4], 0x5a);
}

TEST(Cache, InvalidateSingleLine) {
  Cache c(direct_1k());
  c.access(0x300, false);
  EXPECT_TRUE(c.invalidate_line(0x300));
  EXPECT_FALSE(c.probe(0x300));
  EXPECT_FALSE(c.invalidate_line(0x300));  // already gone
}

TEST(Cache, ProbeDoesNotDisturbState) {
  Cache c(CacheConfig{.size_bytes = 1024, .line_bytes = 32, .ways = 2});
  c.access(0x0, false);
  c.access(0x400, false);
  // Probing 0x400 repeatedly must not refresh its LRU position.
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(c.probe(0x400));
  c.access(0x0, false);    // 0x400 stays LRU
  c.access(0x800, false);  // evicts 0x400
  EXPECT_FALSE(c.probe(0x400));
  EXPECT_TRUE(c.probe(0x0));
}

TEST(Cache, PaperGeometryWorkingSetCliff) {
  // The Fig 8/9 setting: stride-128B over a 4 KB array (32 lines touched,
  // 128 bytes apart).  1 KB and 2 KB direct-mapped caches conflict on
  // every access; a 4 KB cache holds the whole working set.
  for (const u32 kb : {1u, 2u, 4u, 8u, 16u}) {
    Cache c(CacheConfig{.size_bytes = kb * 1024, .line_bytes = 32, .ways = 1});
    // Warm-up pass + measured pass.
    for (int pass = 0; pass < 2; ++pass) {
      for (Addr a = 0; a < 4096; a += 128) c.access(a, false);
    }
    if (kb >= 4) {
      // All 32 lines fit: second pass all hits, first pass 32 cold misses.
      EXPECT_EQ(c.stats().read_misses, 32u) << kb << "KB";
      EXPECT_EQ(c.stats().read_hits, 32u) << kb << "KB";
    } else {
      // Too small: every access misses (conflicts), both passes.
      EXPECT_EQ(c.stats().read_misses, 64u) << kb << "KB";
      EXPECT_EQ(c.stats().read_hits, 0u) << kb << "KB";
    }
  }
}

TEST(Cache, RandomReplacementStaysInSet) {
  CacheConfig cfg{.size_bytes = 1024,
                  .line_bytes = 32,
                  .ways = 4,
                  .replacement = Replacement::kRandom};
  Cache c(cfg, /*seed=*/123);
  // Fill one set with 4 lines, then alternate two more; victims must always
  // come from the same set and the cache must never exceed 4 valid lines
  // in it.
  const u32 set_stride = 1024 / 4;  // ways*line... set count = 8, stride 256
  for (u32 i = 0; i < 64; ++i) {
    c.access(i * set_stride * 8, false);  // always set 0 (stride 2 KB > cache)
  }
  EXPECT_LE(c.valid_lines(), 4u);
}

TEST(Cache, StatsRatios) {
  Cache c(direct_1k());
  c.access(0, false);
  c.access(0, false);
  c.access(0, true);
  c.access(64, true);
  EXPECT_EQ(c.stats().accesses(), 4u);
  EXPECT_DOUBLE_EQ(c.stats().miss_ratio(), 2.0 / 4.0);
  c.reset_stats();
  EXPECT_EQ(c.stats().accesses(), 0u);
}

/// Every byte save_state writes: tags, LRU, parity, data, stats, tick.
Bytes state_of(const Cache& c) {
  SnapWriter w;
  c.save_state(w);
  return w.take();
}

// The pipeline's inline write-through probe stands in for
// access(addr, true) on the hot store path: it must leave exactly what
// access() leaves, on a hit, on a miss, and (by refusing, untouched) on a
// poisoned line, whose recovery stays access()'s.
TEST(Cache, WriteThroughProbeMatchesAccess) {
  const CacheConfig cfg{.size_bytes = 1024, .line_bytes = 32, .ways = 2};
  // Two ways of set 0 resident (0x400 the LRU one), set 2 poisoned.
  const auto history = [](Cache& c) {
    c.access(0x000, false);
    c.access(0x400, false);
    c.access(0x004, false);
    c.access(0x040, false);
    ASSERT_TRUE(c.poison_line(0x040, 3, 1));
  };
  struct Case {
    Addr addr;
    bool hit;
    bool refused;
  };
  for (const Case k : {Case{0x404, true, false}, Case{0x800, false, false},
                       Case{0x044, false, true}}) {
    SCOPED_TRACE(k.addr);
    Cache probe(cfg);
    Cache full(cfg);
    history(probe);
    history(full);
    u8* line = nullptr;
    const bool done = probe.write_through(k.addr, line);
    EXPECT_EQ(done, !k.refused);
    if (!done) {
      EXPECT_EQ(state_of(probe), state_of(full));  // touched nothing
      EXPECT_EQ(probe.gen(), full.gen());
      line = probe.access(k.addr, true).data;
    }
    const AccessOutcome out = full.access(k.addr, true);
    EXPECT_EQ(out.hit, k.hit);
    EXPECT_EQ(line != nullptr, k.hit);
    EXPECT_EQ(state_of(probe), state_of(full));
    EXPECT_EQ(probe.gen(), full.gen());
    EXPECT_EQ(probe.stats().write_hits, full.stats().write_hits);
    EXPECT_EQ(probe.stats().write_misses, full.stats().write_misses);
  }
}

// A streak's batched re-hits leave what one re-hit per fetch leaves.
TEST(Cache, BatchedReHitsMatchOneAtATime) {
  const CacheConfig cfg{.size_bytes = 1024, .line_bytes = 32, .ways = 2};
  Cache batched(cfg);
  Cache single(cfg);
  const HitRef a = (batched.access(0x400, false), batched.lookup_hit(0x400));
  const HitRef b = (single.access(0x400, false), single.lookup_hit(0x400));
  ASSERT_NE(a.data, nullptr);
  ASSERT_EQ(a.slot, b.slot);
  batched.touch_read_hits(a.slot, 7);
  for (int i = 0; i < 7; ++i) single.touch_read_hit(b.slot);
  EXPECT_EQ(state_of(batched), state_of(single));
  EXPECT_EQ(batched.gen(), single.gen());
}

}  // namespace
}  // namespace la::cache
