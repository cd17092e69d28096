// Timing invariants of the pipeline, checked over random programs:
// CPI >= 1, cycle accounting reconciles, stall counters never exceed the
// total, and shrinking a direct-mapped cache never makes a run faster
// (LRU/direct-mapped caches have the inclusion property, so a smaller
// cache's hits are a subset of the larger one's).
#include <gtest/gtest.h>

#include <sstream>

#include "bus/ahb.hpp"
#include "common/rng.hpp"
#include "cpu/leon_pipeline.hpp"
#include "mem/sram.hpp"
#include "sasm/assembler.hpp"

namespace la::test {
namespace {

constexpr Addr kBase = 0x40000000;


/// Loopy random program: strided walks + arithmetic, always terminating.
std::string random_workload(u64 seed) {
  Rng rng(seed);
  std::ostringstream os;
  os << "    .org 0x40000100\n_start:\n";
  os << "    set data, %g7\n";
  const unsigned loops = 1 + rng.below(3);
  for (unsigned l = 0; l < loops; ++l) {
    const u32 stride = 4u << rng.below(6);           // 4..128
    const u32 span = 512u << rng.below(4);           // 512..4096
    os << "    set " << span << ", %o5\n";
    os << "    mov 0, %o1\n";
    os << "w" << l << ":\n";
    os << "    ld [%g7 + %o1], %o2\n";
    if (rng.chance(0.4)) os << "    st %o2, [%g7 + %o1]\n";
    os << "    add %o1, " << stride << ", %o1\n";
    os << "    cmp %o1, %o5\n";
    os << "    bl w" << l << "\n    nop\n";
  }
  os << "done:\n    ba done\n    nop\n";
  os << "    .align 32\ndata:\n    .skip 4096\n";
  return os.str();
}

struct TimedRun {
  Cycles cycles = 0;
  cpu::PipelineStats stats;
};

TimedRun run_with(const sasm::Image& img, u32 dcache_bytes) {
  mem::Sram sram(kBase, 1u << 20);
  sram.backdoor_write(img.base, img.data);
  bus::AhbBus bus;
  bus.attach(kBase, 1u << 20, &sram);
  Cycles clock = 0;
  cpu::PipelineConfig cfg;
  cfg.dcache.size_bytes = dcache_bytes;
  cpu::LeonPipeline pipe(cfg, bus, &clock, cpu::Cacheable::kEverything);
  pipe.reset(img.entry);
  pipe.run(2'000'000, img.symbol("done"));
  EXPECT_EQ(pipe.state().pc, img.symbol("done"));
  return {clock, pipe.stats()};
}

class TimingInvariants : public ::testing::TestWithParam<u64> {};

TEST_P(TimingInvariants, CpiAtLeastOneAndAccountingReconciles) {
  const auto img = sasm::assemble_or_throw(random_workload(GetParam()));
  const TimedRun r = run_with(img, 1024);
  const u64 slots = r.stats.instructions + r.stats.annulled + r.stats.traps;
  EXPECT_GE(r.stats.cycles, slots);          // CPI >= 1
  EXPECT_EQ(r.cycles, r.stats.cycles);       // clock == accounted cycles
  EXPECT_LE(r.stats.icache_stall + r.stats.dcache_stall +
                r.stats.store_stall,
            r.stats.cycles);
  EXPECT_LE(r.stats.taken_branches, r.stats.branches);
  EXPECT_LE(r.stats.loads + r.stats.stores, r.stats.instructions);
}

TEST_P(TimingInvariants, BiggerDirectMappedCacheNeverSlower) {
  const auto img = sasm::assemble_or_throw(random_workload(GetParam()));
  Cycles prev = ~Cycles{0};
  for (const u32 kb : {16u, 8u, 4u, 2u, 1u}) {  // shrinking
    const TimedRun r = run_with(img, kb * 1024);
    // Inclusion property: shrinking the cache can only add misses, so the
    // run can only get slower (or stay equal).
    if (prev != ~Cycles{0}) {
      EXPECT_GE(r.cycles, prev) << kb << "KB vs previous size";
    }
    prev = r.cycles;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimingInvariants,
                         ::testing::Range<u64>(1, 13));

}  // namespace
}  // namespace la::test
