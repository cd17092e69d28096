// LiquidFarm integration tests: real nodes, real worker threads, the
// shared bitfile cache, and the fleet report.
#include "farm/farm.hpp"

#include <gtest/gtest.h>

#include <map>

#include "farm/workload.hpp"

namespace la::farm {
namespace {

TEST(Farm, RunsASeededBatchExactlyOnceWithCorrectResults) {
  FarmConfig fc;
  fc.nodes = 2;
  LiquidFarm f(fc);

  WorkloadConfig wc;
  wc.seed = 42;
  WorkloadGenerator gen(wc);

  std::map<u64, u32> expected;
  for (int i = 0; i < 24; ++i) {
    GeneratedJob g = gen.next();
    const Result<u64> id = f.submit(g.job);
    ASSERT_TRUE(id) << id.error().to_string();
    expected[*id] = g.expected;
  }
  f.drain();

  std::map<u64, int> completions;
  while (auto out = f.try_pop_result()) {
    ++completions[out->id];
    ASSERT_TRUE(out->result.ok) << out->result.error;
    ASSERT_FALSE(out->result.readback.empty());
    EXPECT_EQ(out->result.readback[0], expected.at(out->id));
    EXPECT_LT(out->node, 2u);
  }
  EXPECT_EQ(completions.size(), expected.size());
  for (const auto& [id, n] : completions) EXPECT_EQ(n, 1) << "job " << id;
}

TEST(Farm, ReportAggregatesTheFleet) {
  FarmConfig fc;
  fc.nodes = 3;
  LiquidFarm f(fc);

  WorkloadConfig wc;
  wc.seed = 5;
  WorkloadGenerator gen(wc);
  for (int i = 0; i < 18; ++i) {
    GeneratedJob g = gen.next();
    ASSERT_TRUE(f.submit(g.job));
  }
  f.drain();
  FarmReport rep = f.report();

  EXPECT_EQ(rep.jobs, 18u);
  EXPECT_EQ(rep.failures, 0u);
  ASSERT_EQ(rep.nodes.size(), 3u);
  u64 node_jobs = 0;
  double max_busy = 0.0, sum_busy = 0.0;
  for (const auto& n : rep.nodes) {
    node_jobs += n.jobs;
    max_busy = std::max(max_busy, n.busy_seconds);
    sum_busy += n.busy_seconds;
  }
  EXPECT_EQ(node_jobs, 18u);
  EXPECT_DOUBLE_EQ(rep.makespan_seconds, max_busy);
  EXPECT_DOUBLE_EQ(rep.total_busy_seconds, sum_busy);
  EXPECT_GT(rep.jobs_per_second, 0.0);
  EXPECT_GT(rep.p50_wall_seconds, 0.0);
  EXPECT_LE(rep.p50_wall_seconds, rep.p95_wall_seconds);
  EXPECT_LE(rep.p95_wall_seconds, rep.p99_wall_seconds);

  // The merged snapshot carries the farm.* family and the per-node
  // pipeline counters folded together (18 jobs' worth of instructions).
  EXPECT_EQ(rep.fleet.value_u64("farm.jobs"), 18u);
  EXPECT_EQ(rep.fleet.value_u64("farm.nodes"), 3u);
  EXPECT_TRUE(rep.fleet.has("reconfig_cache.size"));
  EXPECT_GT(rep.fleet.value_or("cpu.instructions", 0.0), 0.0);
  EXPECT_FALSE(rep.text().empty());
}

TEST(Farm, PregenerateMakesEveryJobABitfileHit) {
  FarmConfig fc;
  fc.nodes = 2;
  LiquidFarm f(fc);

  WorkloadConfig wc;
  wc.seed = 9;
  WorkloadGenerator gen(wc);
  liquid::ConfigSpace space;
  space.dcache_sizes.clear();
  space.mul_latencies.clear();
  for (const liquid::ArchConfig& c : gen.catalog()) {
    space.dcache_sizes.push_back(c.dcache_bytes);
    space.mul_latencies.push_back(c.mul_latency);
  }
  EXPECT_GT(f.pregenerate(space), 0.0);  // synthesis hours, offline

  for (int i = 0; i < 12; ++i) ASSERT_TRUE(f.submit(gen.next().job));
  f.drain();
  const FarmReport rep = f.report();
  EXPECT_EQ(rep.bitfile_hits, 12u);  // nothing synthesized online
}

TEST(Farm, SaturationRejectsWithTypedError) {
  FarmConfig fc;
  fc.nodes = 1;
  fc.autostart = false;  // workers parked: the queue can only fill
  fc.scheduler.queue_capacity = 2;
  LiquidFarm f(fc);

  WorkloadGenerator gen;
  ASSERT_TRUE(f.submit(gen.next().job));
  ASSERT_TRUE(f.submit(gen.next().job));
  const Result<u64> r = f.submit(gen.next().job);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().kind, FarmErrorKind::kSaturated);

  f.drain();  // drain() releases the gate and finishes the two admitted
  const FarmReport rep = f.report();
  EXPECT_EQ(rep.jobs, 2u);
  EXPECT_EQ(rep.rejected, 1u);
}

TEST(Farm, DeferredWakeSubmissionsRunOnceWoken) {
  FarmConfig fc;
  fc.nodes = 2;
  LiquidFarm f(fc);
  WorkloadGenerator gen;
  std::vector<u32> expected;
  for (int i = 0; i < 4; ++i) {
    GeneratedJob g = gen.next();
    ASSERT_TRUE(f.submit(std::move(g.job), /*wake=*/false));
    expected.push_back(g.expected);
  }
  f.wake();
  f.drain();
  std::size_t done = 0;
  while (auto out = f.try_pop_result()) {
    ASSERT_TRUE(out->result.ok) << out->result.error;
    EXPECT_EQ(out->result.readback.at(0), expected.at(out->id - 1));
    ++done;
  }
  EXPECT_EQ(done, expected.size());
}

TEST(Farm, SubmitAfterShutdownIsRefused) {
  LiquidFarm f(FarmConfig{.nodes = 1});
  f.shutdown();
  WorkloadGenerator gen;
  const Result<u64> r = f.submit(gen.next().job);
  ASSERT_FALSE(r);
  EXPECT_EQ(r.error().kind, FarmErrorKind::kShuttingDown);
}

}  // namespace
}  // namespace la::farm
