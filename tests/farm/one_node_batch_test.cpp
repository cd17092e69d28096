// Batch scheduling on a one-node farm (what examples/batch_server.cpp
// demonstrates): with the worker held at its start gate until the batch is
// queued, FIFO runs jobs in submission order, affinity groups them by
// configuration and so reprograms the FPGA less, every job gets its own
// result, and a job that fails does not poison the rest of the batch.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "farm/farm.hpp"
#include "sasm/assembler.hpp"

namespace la::farm {
namespace {

sasm::Image tiny_program(u32 value) {
  return sasm::assemble_or_throw(R"(
      .org 0x40000100
  _start:
      set )" + std::to_string(value) + R"(, %g1
      set result, %g2
      st %g1, [%g2]
      jmp 0x40
      nop
      .align 4
  result:
      .skip 4
  )");
}

FarmJob make_job(const std::string& owner, u32 dcache, u32 value) {
  FarmJob j;
  j.owner = owner;
  j.config.dcache_bytes = dcache;
  j.program = tiny_program(value);
  j.result_addr = j.program.symbol("result");
  j.result_words = 1;
  return j;
}

struct Batch {
  std::vector<u64> planned;             // ids, in plan(0) order
  std::vector<FarmJobOutcome> items;    // in execution order
  u64 reconfigurations = 0;
  u64 failures = 0;
  double reprogram_seconds = 0.0;

  std::vector<std::string> owners() const {
    std::vector<std::string> v;
    for (const FarmJobOutcome& o : items) v.push_back(o.owner);
    return v;
  }
};

/// Queue `jobs` on a fresh one-node farm (the node boots into the 1 KB
/// baseline image), then release the worker and collect the batch.
Batch run_batch(FarmPolicy policy, std::vector<FarmJob> jobs) {
  FarmConfig fc;
  fc.nodes = 1;
  fc.autostart = false;
  fc.scheduler.policy = policy;
  LiquidFarm f(fc);
  f.pregenerate(liquid::ConfigSpace{});  // warm: isolate scheduling
  for (FarmJob& j : jobs) EXPECT_TRUE(f.submit(std::move(j)));
  Batch b;
  b.planned = f.plan(0);
  f.start();
  while (auto out = f.pop_result()) {
    b.reprogram_seconds += out->result.reprogram_seconds;
    b.items.push_back(std::move(*out));
  }
  const FarmReport rep = f.report();
  b.reconfigurations = rep.reconfigurations;
  b.failures = rep.failures;
  return b;
}

std::vector<u64> ids(const Batch& b) {
  std::vector<u64> v;
  for (const FarmJobOutcome& o : b.items) v.push_back(o.id);
  return v;
}

TEST(OneNodeBatch, FifoRunsInSubmissionOrder) {
  const Batch b = run_batch(FarmPolicy::kFifo, {make_job("alice", 1024, 11),
                                                make_job("bob", 4096, 22),
                                                make_job("carol", 1024, 33)});
  EXPECT_EQ(b.planned, ids(b));
  EXPECT_EQ(b.owners(), (std::vector<std::string>{"alice", "bob", "carol"}));
  EXPECT_EQ(b.failures, 0u);
  // FIFO pays: 1k(loaded) -> 4k -> 1k = 2 reprogrammings.
  EXPECT_EQ(b.reconfigurations, 2u);
}

TEST(OneNodeBatch, GroupingMinimizesReconfigurations) {
  const Batch b =
      run_batch(FarmPolicy::kAffinity,
                {make_job("alice", 1024, 11), make_job("bob", 4096, 22),
                 make_job("carol", 1024, 33), make_job("dave", 4096, 44)});
  // Loaded config is the 1 KB baseline: its group first, FIFO inside.
  EXPECT_EQ(b.planned, ids(b));
  EXPECT_EQ(b.owners(),
            (std::vector<std::string>{"alice", "carol", "bob", "dave"}));
  EXPECT_EQ(b.reconfigurations, 1u);  // one switch to 4 KB, ever
}

TEST(OneNodeBatch, ResultsAreDeliveredPerJob) {
  const Batch b = run_batch(FarmPolicy::kAffinity,
                            {make_job("a", 1024, 101), make_job("b", 4096, 202)});
  ASSERT_EQ(b.items.size(), 2u);
  for (const FarmJobOutcome& item : b.items) {
    ASSERT_TRUE(item.result.ok) << item.result.error;
    ASSERT_EQ(item.result.readback.size(), 1u);
  }
  EXPECT_EQ(b.items[0].result.readback[0], 101u);
  EXPECT_EQ(b.items[1].result.readback[0], 202u);
}

TEST(OneNodeBatch, GroupingSavesWallClockOverFifo) {
  std::vector<FarmJob> jobs;
  for (int round = 0; round < 3; ++round) {
    jobs.push_back(make_job("x" + std::to_string(round), 1024, 1));
    jobs.push_back(make_job("y" + std::to_string(round), 4096, 2));
  }
  const Batch grouped = run_batch(FarmPolicy::kAffinity, jobs);
  const Batch fifo = run_batch(FarmPolicy::kFifo, jobs);
  EXPECT_LT(grouped.reconfigurations, fifo.reconfigurations);
  EXPECT_LT(grouped.reprogram_seconds, fifo.reprogram_seconds);
}

TEST(OneNodeBatch, FailedJobDoesNotPoisonTheBatch) {
  FarmJob bad = make_job("mallory", 1024, 5);
  bad.config.dcache_bytes = 512 * 1024;  // will not fit the device
  std::vector<FarmJob> jobs;
  jobs.push_back(make_job("a", 1024, 7));
  jobs.push_back(std::move(bad));
  jobs.push_back(make_job("b", 1024, 9));
  const Batch b = run_batch(FarmPolicy::kFifo, std::move(jobs));
  EXPECT_EQ(b.failures, 1u);
  ASSERT_EQ(b.items.size(), 3u);
  EXPECT_TRUE(b.items[0].result.ok);
  EXPECT_FALSE(b.items[1].result.ok);
  EXPECT_TRUE(b.items[2].result.ok);
  ASSERT_EQ(b.items[2].result.readback.size(), 1u);
  EXPECT_EQ(b.items[2].result.readback[0], 9u);
}

TEST(OneNodeBatch, EmptyQueueRunsCleanly) {
  const Batch b = run_batch(FarmPolicy::kAffinity, {});
  EXPECT_TRUE(b.items.empty());
  EXPECT_EQ(b.reconfigurations, 0u);
}

}  // namespace
}  // namespace la::farm
