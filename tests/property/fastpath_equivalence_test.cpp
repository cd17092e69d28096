// Property: the host fast paths are unobservable.  The same random
// program on the same rig must leave LeonPipeline with bit-identical
// architectural state, statistics (cycles included), cache statistics,
// full save_state bytes (LRU ticks, line data, write-buffer and annul
// latches), and memory with `host_fast_paths` on vs off.
//
// This is the direct fast-vs-slow sibling of cpu_equivalence_test (which
// checks the pipeline against the functional reference model); programs
// come from the same shared generator, seed count from LA_PROPERTY_SEEDS.
#include <gtest/gtest.h>

#include <cstdlib>
#include <ios>
#include <memory>
#include <string>
#include <vector>

#include "bus/ahb.hpp"
#include "common/snapio.hpp"
#include "cpu/leon_pipeline.hpp"
#include "fuzz/differential.hpp"  // compare_full
#include "fuzz/program_generator.hpp"
#include "mem/sram.hpp"
#include "sasm/assembler.hpp"

namespace la::test {
namespace {

constexpr Addr kMemBase = 0x40000000;
constexpr u32 kMemSize = 1u << 20;


int seed_count() {
  if (const char* env = std::getenv("LA_PROPERTY_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 20;
}

std::vector<u64> seeds() {
  std::vector<u64> v;
  for (int i = 1; i <= seed_count(); ++i) v.push_back(static_cast<u64>(i));
  return v;
}

/// One leg: assemble + run the program to its `done` symbol on a bare
/// SRAM-backed bus, then flush caches so memory holds the architectural
/// contents (write-back configs).
struct Leg {
  explicit Leg(const sasm::Image& img, const cpu::PipelineConfig& cfg)
      : sram(kMemBase, kMemSize), clock(0) {
    sram.backdoor_write(img.base, img.data);
    bus.attach(kMemBase, kMemSize, &sram);
    pipe = std::make_unique<cpu::LeonPipeline>(cfg, bus, &clock,
                                               cpu::Cacheable::kEverything);
    pipe->reset(img.entry);
  }

  mem::Sram sram;
  bus::AhbBus bus;
  Cycles clock;
  std::unique_ptr<cpu::LeonPipeline> pipe;
};

void check_seed(u64 seed, cpu::PipelineConfig base, int chunks) {
  fuzz::GenOptions opts;
  opts.mode = fuzz::ProgramMode::kCore;
  opts.instructions = chunks;
  fuzz::ProgramGenerator gen(seed);
  const fuzz::ProgramSpec spec = gen.generate(opts);

  sasm::Assembler as;
  sasm::AsmResult ar = as.assemble(spec.render());
  ASSERT_TRUE(ar.ok) << "seed " << seed << ": " << ar.error_text();
  const sasm::Image& img = ar.image;
  const Addr done = img.symbol(fuzz::kDoneSymbol);
  const u64 budget = 4096 + 16u * (img.data.size() / 4);

  base.host_fast_paths = true;
  Leg fast(img, base);
  base.host_fast_paths = false;
  Leg slow(img, base);

  const u64 nf = fast.pipe->run(budget, done);
  const u64 ns = slow.pipe->run(budget, done);

  // Everything the pipeline snapshots — the caches' tags, LRU ticks, and
  // line bytes included — before the flush below resets the caches.
  SnapWriter wf;
  SnapWriter ws;
  fast.pipe->save_state(wf);
  slow.pipe->save_state(ws);
  EXPECT_TRUE(wf.data() == ws.data())
      << "seed " << seed << ": save_state bytes differ";

  fast.pipe->flush_caches();
  slow.pipe->flush_caches();

  EXPECT_EQ(nf, ns) << "seed " << seed << ": step counts differ";
  EXPECT_EQ(fast.clock, slow.clock) << "seed " << seed << ": clocks differ";

  const std::string d =
      fuzz::compare_full(fast.pipe->state(), slow.pipe->state());
  EXPECT_TRUE(d.empty()) << "seed " << seed << " state diverged: " << d
                         << "\nprogram:\n"
                         << spec.render();

  const cpu::PipelineStats& sa = fast.pipe->stats();
  const cpu::PipelineStats& sb = slow.pipe->stats();
  EXPECT_EQ(sa.instructions, sb.instructions) << "seed " << seed;
  EXPECT_EQ(sa.annulled, sb.annulled) << "seed " << seed;
  EXPECT_EQ(sa.traps, sb.traps) << "seed " << seed;
  EXPECT_EQ(sa.cycles, sb.cycles) << "seed " << seed;
  EXPECT_EQ(sa.icache_stall, sb.icache_stall) << "seed " << seed;
  EXPECT_EQ(sa.dcache_stall, sb.dcache_stall) << "seed " << seed;
  EXPECT_EQ(sa.store_stall, sb.store_stall) << "seed " << seed;
  EXPECT_EQ(sa.loads, sb.loads) << "seed " << seed;
  EXPECT_EQ(sa.stores, sb.stores) << "seed " << seed;
  EXPECT_EQ(sa.branches, sb.branches) << "seed " << seed;
  EXPECT_EQ(sa.taken_branches, sb.taken_branches) << "seed " << seed;
  EXPECT_EQ(sa.calls, sb.calls) << "seed " << seed;
  EXPECT_EQ(sa.muldiv, sb.muldiv) << "seed " << seed;

  // Cache statistics: lookup_hit must count exactly like access().
  const auto cmp_cache = [seed](const char* which, const cache::CacheStats& x,
                                const cache::CacheStats& y) {
    EXPECT_EQ(x.read_hits, y.read_hits) << "seed " << seed << " " << which;
    EXPECT_EQ(x.read_misses, y.read_misses)
        << "seed " << seed << " " << which;
    EXPECT_EQ(x.write_hits, y.write_hits) << "seed " << seed << " " << which;
    EXPECT_EQ(x.write_misses, y.write_misses)
        << "seed " << seed << " " << which;
    EXPECT_EQ(x.evictions, y.evictions) << "seed " << seed << " " << which;
    EXPECT_EQ(x.writebacks, y.writebacks) << "seed " << seed << " " << which;
  };
  cmp_cache("icache", fast.pipe->icache().stats(),
            slow.pipe->icache().stats());
  cmp_cache("dcache", fast.pipe->dcache().stats(),
            slow.pipe->dcache().stats());

  // Memory: the whole image footprint, word by word.
  for (Addr a = img.base; a + 4 <= img.end(); a += 4) {
    u64 vf = 0;
    u64 vs = 0;
    ASSERT_TRUE(fast.sram.debug_read(a, 4, vf));
    ASSERT_TRUE(slow.sram.debug_read(a, 4, vs));
    ASSERT_EQ(vf, vs) << "seed " << seed << ": memory differs at 0x"
                      << std::hex << a;
  }
}

class FastPathEquivalence : public ::testing::TestWithParam<u64> {};

TEST_P(FastPathEquivalence, DefaultConfig) {
  check_seed(GetParam(), cpu::PipelineConfig{}, 300);
}

TEST_P(FastPathEquivalence, TinyCaches) {
  cpu::PipelineConfig pcfg;
  pcfg.icache.size_bytes = 128;
  pcfg.icache.line_bytes = 16;
  pcfg.dcache.size_bytes = 128;
  pcfg.dcache.line_bytes = 16;
  check_seed(GetParam() * 7919 + 1, pcfg, 300);
}

TEST_P(FastPathEquivalence, CachesDisabled) {
  cpu::PipelineConfig pcfg;
  pcfg.icache_enabled = false;
  pcfg.dcache_enabled = false;
  pcfg.write_buffer_depth = 0;
  check_seed(GetParam() * 104729 + 2, pcfg, 200);
}

TEST_P(FastPathEquivalence, TwoWayLruCaches) {
  // A geometry ablate_geometry runs (1 KB, 32 B lines, 2-way LRU): the
  // LRU ticks pick the victims, so a tick stamped differently on either
  // path changes which line a fill evicts — invisible on the
  // direct-mapped default.
  cpu::PipelineConfig pcfg;
  pcfg.icache.ways = 2;
  pcfg.dcache.ways = 2;
  check_seed(GetParam() * 6151 + 4, pcfg, 300);
}

TEST_P(FastPathEquivalence, WriteBackCache) {
  cpu::PipelineConfig pcfg;
  pcfg.dcache.write_policy = cache::WritePolicy::kWriteBackAllocate;
  check_seed(GetParam() * 31 + 3, pcfg, 300);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastPathEquivalence,
                         ::testing::ValuesIn(seeds()));

}  // namespace
}  // namespace la::test
