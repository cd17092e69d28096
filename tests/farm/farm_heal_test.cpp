// Self-healing farm tests: drain-on-fault (a wedged node's job is
// requeued and retried elsewhere while the node is quarantined and
// RESTART-probed back to health), retry exhaustion (a deterministically
// failing job is delivered as a failure after max_job_retries), and
// warm-start pools (a repeated (architecture, program) pair restores a
// post-LOAD snapshot instead of re-running the chunked network load).
#include "farm/farm.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <vector>

#include "farm/workload.hpp"
#include "mem/memory_map.hpp"
#include "sasm/assembler.hpp"
#include "sim/liquid_system.hpp"

namespace la::farm {
namespace {

// Two nodes, held at their gate (autostart off) so a fault can be wired
// before any worker touches a node.
FarmConfig wedge_farm_config() {
  FarmConfig fc;
  fc.nodes = 2;
  fc.autostart = false;
  fc.node_template.watchdog_budget = 20'000;
  fc.max_job_retries = 2;
  return fc;
}

// One wedge for the whole farm: whichever node first starts a user
// program wedges permanently (until reset) right there, and no node
// wedges after it; only the watchdog + drain-on-fault machinery can save
// that job.  Armed on every node, it does not depend on which worker
// claims a job first (with a wedge on one fixed node, the other worker
// could drain the whole queue before that node ran anything).  The
// trigger is the program entry rather than a cycle count: a wedge that
// lands while the node boots or loads is wiped by the next warm-start
// restore (it replaces the whole CPU state), and when that happens
// depends on how fast the sibling donates its snapshots.
class SharedWedge {
 public:
  SharedWedge(LiquidFarm& f, std::size_t nodes) {
    for (std::size_t i = 0; i < nodes; ++i) {
      sim::LiquidSystem& node = f.node_for_setup(i);
      nodes_.push_back(&node);
      node.set_step_hook([this, &node, i](const cpu::StepResult& r) {
        if (r.pc != mem::map::kUserProgramBase) return;
        int none = -1;
        if (wedged_.compare_exchange_strong(none, static_cast<int>(i))) {
          node.cpu().set_wedged(true);
        }
      });
    }
  }
  ~SharedWedge() {
    for (sim::LiquidSystem* node : nodes_) node->set_step_hook({});
  }
  SharedWedge(const SharedWedge&) = delete;
  SharedWedge& operator=(const SharedWedge&) = delete;

  /// The node that wedged (-1 while none has).
  int node() const { return wedged_.load(); }

 private:
  std::vector<sim::LiquidSystem*> nodes_;
  std::atomic<int> wedged_{-1};
};

WorkloadConfig wedge_workload() {
  WorkloadConfig wc;
  wc.seed = 77;
  wc.owners = 4;
  return wc;
}

// Both nodes boot to their polling loops before any job exists (a drain
// of the empty farm waits for that), so the node that stays healthy is in
// rotation when the wedged node's job goes back on the queue, and takes
// it: the retry is a migration whatever order the workers start in.
void start_and_boot(LiquidFarm& f) {
  f.start();
  f.drain();
}

TEST(FarmHeal, WedgedNodeDrainsRetriesAndRecovers) {
  LiquidFarm f(wedge_farm_config());
  SharedWedge wedge(f, wedge_farm_config().nodes);
  start_and_boot(f);

  WorkloadGenerator gen(wedge_workload());
  std::map<u64, u32> expected;
  std::map<u64, std::string> owners;
  for (int i = 0; i < 16; ++i) {
    GeneratedJob g = gen.next();
    const std::string owner = g.job.owner;
    const Result<u64> id = f.submit(std::move(g.job));
    ASSERT_TRUE(id) << id.error().to_string();
    expected[*id] = g.expected;
    owners[*id] = owner;
  }
  f.drain();

  std::map<u64, int> completions;
  std::map<std::string, u64> last_id_per_owner;
  u64 extra_attempts = 0;
  while (auto out = f.try_pop_result()) {
    ++completions[out->id];
    ASSERT_TRUE(out->result.ok)
        << "job " << out->id << ": " << out->result.error;
    ASSERT_FALSE(out->result.readback.empty());
    EXPECT_EQ(out->result.readback[0], expected.at(out->id))
        << "job " << out->id << " returned a wrong result after healing";
    // The audit trail: one node per execution, last entry = final node.
    ASSERT_EQ(out->node_history.size(), out->attempts);
    EXPECT_EQ(out->node_history.back(), out->node);
    extra_attempts += out->attempts - 1;
    // Per-owner FIFO survives requeueing: results of one owner are
    // delivered in submission (= id) order.
    const std::string& owner = owners.at(out->id);
    auto [it, fresh] = last_id_per_owner.try_emplace(owner, out->id);
    if (!fresh) {
      EXPECT_LT(it->second, out->id) << "owner " << owner << " reordered";
      it->second = out->id;
    }
  }
  EXPECT_EQ(completions.size(), expected.size());
  for (const auto& [id, n] : completions) {
    EXPECT_EQ(n, 1) << "job " << id << " delivered " << n << " times";
  }

  const FarmReport rep = f.report();
  ASSERT_GE(wedge.node(), 0) << "no node started a program";
  EXPECT_GE(rep.retries, 1u) << "the wedge never caused a retry";
  EXPECT_EQ(rep.retries, extra_attempts);
  EXPECT_GE(rep.migrations, 1u)
      << "the retried job should have drained to the healthy node";
  EXPECT_GE(rep.nodes.at(static_cast<std::size_t>(wedge.node())).quarantines,
            1u);
  for (const auto& n : rep.nodes) {
    EXPECT_EQ(n.health, NodeHealth::kHealthy) << "node " << n.index;
  }
  EXPECT_EQ(rep.fleet.value_u64("farm.retries"), rep.retries);
  EXPECT_EQ(rep.fleet.value_u64("farm.migrations"), rep.migrations);
}

TEST(FarmHeal, ResultListenerFiresOncePerDeliveredOutcome) {
  std::atomic<u64> calls{0};  // outlives the farm and its workers
  LiquidFarm f(wedge_farm_config());
  SharedWedge wedge(f, wedge_farm_config().nodes);
  f.set_result_listener([&] { ++calls; });
  start_and_boot(f);

  WorkloadGenerator gen(wedge_workload());
  constexpr u64 kJobs = 16;
  for (u64 i = 0; i < kJobs; ++i) ASSERT_TRUE(f.submit(gen.next().job));
  f.drain();

  // One call per queued outcome; the wedged executions that went back on
  // the queue as retries queued none.
  u64 popped = 0;
  while (f.try_pop_result()) ++popped;
  EXPECT_EQ(popped, kJobs);
  EXPECT_EQ(calls.load(), kJobs);
  const FarmReport rep = f.report();
  EXPECT_GE(rep.retries, 1u) << "the wedge never caused a retry";
  EXPECT_EQ(rep.jobs, kJobs + rep.retries);  // executions, retries included

  // Cleared, it stays silent while the farm keeps delivering.
  f.set_result_listener({});
  ASSERT_TRUE(f.submit(gen.next().job));
  ASSERT_TRUE(f.submit(gen.next().job));
  f.drain();
  popped = 0;
  while (f.try_pop_result()) ++popped;
  EXPECT_EQ(popped, 2u);
  EXPECT_EQ(calls.load(), kJobs);
}

TEST(FarmHeal, RetriesExhaustedDeliverTheFailureAndTheNodeHeals) {
  FarmConfig fc;
  fc.nodes = 1;
  fc.max_job_retries = 1;
  fc.node_template.watchdog_budget = 15'000;
  LiquidFarm f(fc);

  // A program that spins forever never kicks the watchdog: every attempt
  // trips it deterministically — node fault, retry, same story, exhausted.
  const sasm::Image spin = sasm::assemble_or_throw(R"(
      .org 0x40000100
  _start:
  loop:
      ba loop
      nop
  )");
  FarmJob bad;
  bad.owner = "victim";
  bad.config = liquid::ArchConfig::paper_baseline();
  bad.program = spin;
  const Result<u64> bad_id = f.submit(std::move(bad));
  ASSERT_TRUE(bad_id);
  f.drain();

  auto out = f.try_pop_result();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->id, *bad_id);
  EXPECT_FALSE(out->result.ok);
  EXPECT_TRUE(out->result.node_fault);
  EXPECT_EQ(out->attempts, 2u);  // initial + max_job_retries
  EXPECT_EQ(out->node_history, (std::vector<std::size_t>{0, 0}));

  // The node healed behind the failure: an honest job runs fine.
  WorkloadGenerator gen(WorkloadConfig{});
  GeneratedJob g = gen.next();
  const u32 want = g.expected;
  ASSERT_TRUE(f.submit(std::move(g.job)));
  f.drain();
  auto good = f.try_pop_result();
  ASSERT_TRUE(good.has_value());
  ASSERT_TRUE(good->result.ok) << good->result.error;
  EXPECT_EQ(good->attempts, 1u);
  EXPECT_EQ(good->result.readback[0], want);

  const FarmReport rep = f.report();
  EXPECT_EQ(rep.retries, 1u);
  EXPECT_EQ(rep.failures, 2u);  // both executions of the bad job
  EXPECT_GE(rep.nodes.at(0).quarantines, 2u);
  EXPECT_EQ(rep.nodes.at(0).health, NodeHealth::kHealthy);
}

TEST(FarmHeal, RepeatedJobWarmStartsFromThePool) {
  FarmConfig fc;
  fc.nodes = 1;
  LiquidFarm f(fc);

  // The same job twice: identical (architecture, program) pair, so the
  // second execution is guaranteed a program-pool hit.
  WorkloadGenerator gen(WorkloadConfig{});
  const GeneratedJob g1 = gen.next();
  ASSERT_TRUE(f.submit(g1.job));
  ASSERT_TRUE(f.submit(g1.job));
  f.drain();

  auto first = f.try_pop_result();
  auto second = f.try_pop_result();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  ASSERT_TRUE(first->result.ok) << first->result.error;
  ASSERT_TRUE(second->result.ok) << second->result.error;
  // Same program, same architecture: the second execution restores the
  // post-LOAD snapshot the first one donated — and computes the same
  // answer.
  EXPECT_FALSE(first->result.warm_start);
  EXPECT_TRUE(second->result.warm_start);
  EXPECT_EQ(first->result.readback, second->result.readback);
  EXPECT_EQ(first->result.readback[0], g1.expected);

  const FarmReport rep = f.report();
  EXPECT_GE(rep.warm_starts, 1u);
  EXPECT_EQ(rep.fleet.value_u64("farm.warm_starts"), rep.warm_starts);
}

TEST(FarmHeal, ReportCarriesTheWarmPoolGauges) {
  FarmConfig fc;
  fc.nodes = 2;
  LiquidFarm f(fc);

  // Distinct programs: every job donates a post-LOAD snapshot.  Each
  // holds the few pages its node has touched, so the pool stays far below
  // its budget.
  WorkloadGenerator gen(WorkloadConfig{});
  constexpr u64 kJobs = 24;
  for (u64 i = 0; i < kJobs; ++i) ASSERT_TRUE(f.submit(gen.next().job));
  f.drain();

  const FarmReport rep = f.report();
  const auto gauge = [&](const char* name) { return rep.fleet.value_u64(name); };
  EXPECT_GE(gauge("snapshot_pool.entries"), kJobs);  // + boot images
  EXPECT_GE(gauge("snapshot_pool.misses"), kJobs);
  EXPECT_EQ(gauge("snapshot_pool.hits"), rep.warm_starts);
  EXPECT_EQ(gauge("snapshot_pool.evictions"), 0u);
  EXPECT_GT(gauge("snapshot_pool.bytes"), 0u);
  EXPECT_LT(gauge("snapshot_pool.bytes"), kJobs * 64 * 1024);
}

}  // namespace
}  // namespace la::farm
