// Tests of the benchmark's own machinery: percentiles and sample counts,
// seeded job sets, and the node_progs kernels' host-side expectations.
#include <gtest/gtest.h>

#include "bench.hpp"
#include "sasm/assembler.hpp"

namespace fleetbench {
namespace {

TEST(Percentiles, NearestRankOverOneToHundred) {
  Samples s;
  for (int i = 100; i >= 1; --i) s.add(i);
  EXPECT_EQ(s.count(), 100u);
  EXPECT_EQ(s.median(), 50);
  EXPECT_EQ(s.pct(0.99), 99);
  EXPECT_EQ(s.pct(1.0), 100);
  EXPECT_EQ(s.pct(0.0), 1);
}

TEST(Percentiles, TailNeedsTenSamplesBeyond) {
  EXPECT_EQ(nearest_rank(1000, 0.99), 990u);
  EXPECT_EQ(beyond(1000, 0.99), 10u);
  EXPECT_EQ(beyond(999, 0.99), 9u);
  EXPECT_EQ(beyond(2000, 0.99), 20u);
  EXPECT_EQ(beyond(0, 0.99), 0u);
  EXPECT_EQ(beyond(500, 0.5), 250u);
}

TEST(Percentiles, EmptyAndSingleton) {
  Samples s;
  EXPECT_EQ(s.median(), 0);
  EXPECT_EQ(s.count(), 0u);
  s.add(7);
  EXPECT_EQ(s.median(), 7);
  EXPECT_EQ(s.pct(0.99), 7);
}

TEST(Histogram, InterpolatesInsideTheBucketAndClamps) {
  la::metrics::MetricsRegistry reg;
  la::metrics::Histogram& h = reg.histogram("h");
  for (int i = 1; i <= 100; ++i) h.observe(i);
  const la::metrics::HistogramSnapshot snap = reg.snapshot().histograms.at("h");
  const double p50 = histogram_pct(snap, 0.5);
  EXPECT_GE(p50, 1);
  EXPECT_LE(p50, 100);
  EXPECT_LE(histogram_pct(snap, 0.5), histogram_pct(snap, 0.99));
  EXPECT_EQ(histogram_pct(snap, 1.0), 100);
  la::metrics::HistogramSnapshot merged;
  merge_histogram(merged, snap);
  merge_histogram(merged, snap);
  EXPECT_EQ(merged.count, 200u);
  EXPECT_EQ(histogram_pct(merged, 0.5), p50);
}

std::vector<std::string> digest(DistinctSource src, int n) {
  std::vector<std::string> out;
  for (int i = 0; i < n; ++i) {
    const BenchJob b = src.next();
    out.push_back(b.job.owner + b.job.config.key() +
                  std::string(b.job.program.data.begin(), b.job.program.data.end()) +
                  std::to_string(b.expect.at(0)));
  }
  return out;
}

TEST(JobSets, DistinctStreamFollowsTheSeed) {
  EXPECT_EQ(digest(DistinctSource(1), 20), digest(DistinctSource(1), 20));
  EXPECT_NE(digest(DistinctSource(1), 20), digest(DistinctSource(2), 20));
  EXPECT_NE(digest(DistinctSource(1, 2), 20), digest(DistinctSource(1, 8), 20));
}

std::vector<std::pair<std::size_t, std::string>> picks(u64 seed) {
  PairSource src(seed, 10);
  std::vector<std::pair<std::size_t, std::string>> out;
  for (int i = 0; i < 50; ++i) {
    const PairPick p = src.next();
    out.emplace_back(p.pair, p.owner);
  }
  return out;
}

TEST(JobSets, PairPicksFollowTheSeed) {
  EXPECT_EQ(picks(1), picks(1));
  EXPECT_NE(picks(1), picks(2));
  for (const auto& [pair, owner] : picks(3)) EXPECT_LT(pair, 10u);
}

TEST(JobSets, ArrivalsFollowTheSeed) {
  const auto a = poisson_arrivals(1, 40, 10, 256, 1.1, 32);
  const auto b = poisson_arrivals(1, 40, 10, 256, 1.1, 32);
  const auto c = poisson_arrivals(2, 40, 10, 256, 1.1, 32);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_ms, b[i].due_ms);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].program, b[i].program);
  }
  EXPECT_NE(a[0].due_ms, c[0].due_ms);
  // Exactly rate x window arrivals, in due order, inside the window.
  EXPECT_EQ(a.size(), 400u);
  EXPECT_EQ(c.size(), 400u);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GE(a[i].due_ms, a[i - 1].due_ms);
  EXPECT_LT(a.back().due_ms, 10'000);
  for (const Arrival& x : a) {
    EXPECT_LT(x.tenant, 256u);
    EXPECT_LT(x.program, 32u);
  }
}

TEST(Kernels, HostModels) {
  // stream.s's own test value and the classic CRC-32 of 00..FF.
  EXPECT_EQ(crc32_of_ramp(1), 0x29058C73u);
  u32 sum = 0;
  for (u32 i = 0; i < 4; ++i) sum += 3 * (7 + 3 * i) + 3 * (4 * (7 + 3 * i));
  EXPECT_EQ(stream_sum(4), sum);
}

TEST(Kernels, EveryPairAssemblesInsideTheLoadLimit) {
  Samples assemble_ms;
  const std::vector<BenchJob> pairs =
      assemble_pairs(node_progs_kernels(FLEETBENCH_PROGS_DIR), assemble_ms);
  EXPECT_EQ(pairs.size(), 10u);
  EXPECT_EQ(assemble_ms.count(), 5u);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const BenchJob& p = pairs[i];
    EXPECT_EQ(p.program, i);
    EXPECT_LE(p.job.program.data.size(), 255u * 1024u) << i;
    EXPECT_LE(p.job.result_words, 256u) << i;
    EXPECT_TRUE(p.expect.empty() || p.expect.size() == p.job.result_words) << i;
  }
}

}  // namespace
}  // namespace fleetbench
