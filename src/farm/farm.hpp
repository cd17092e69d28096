// Liquid Farm: a fleet of LiquidSystem nodes behind one thread-safe
// front end.
//
// Fig 1 shows the Reconfiguration Server brokering multiple remote users
// onto FPX hardware; this subsystem scales that picture out.  N fully
// independent simulated nodes (each its own LEON pipeline, memories,
// control network, ReconfigurationServer, and MetricsRegistry) run on N
// worker threads.  One shared, mutex-guarded ReconfigurationCache holds
// the fleet's synthesized bitfiles, so an image synthesized for any node
// is a hit everywhere.  The FarmScheduler routes submissions with
// bitstream affinity (prefer the node already configured for the job) and
// bounded queues (typed backpressure), and FarmReport folds the per-node
// registries into one fleet-level snapshot.
//
// Time has two axes here.  *Host* time is how long your machine takes to
// simulate the fleet — it scales with host cores and is reported only as
// context.  *Simulated* wall-clock is the paper's economics: synthesis
// hours, bitstream downloads, and cycles at each image's own fmax.  Nodes
// are independent machines, so the fleet's simulated makespan is the
// busiest node's total, and throughput = jobs / makespan.  That is the
// number affinity routing and the shared cache actually improve.
//
// Threading contract: each worker thread is the single writer of its
// node, server, and node registry (see common/metrics.hpp).  All shared
// state — scheduler, result queue, per-node accumulators, current
// configuration keys — is guarded by one farm mutex.  report() waits for
// the fleet to go idle before it touches node registries, which the
// mutex then orders after every worker write.  Runs clean under TSan.
#pragma once

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "common/span_log.hpp"
#include "farm/scheduler.hpp"
#include "liquid/reconfig_server.hpp"

namespace la::farm {

struct FarmConfig {
  std::size_t nodes = 4;
  SchedulerConfig scheduler;
  /// Per-node server template.  bridge_cache_metrics is forced off: the
  /// shared cache is bridged once at fleet level, not once per node.
  liquid::ServerConfig server;
  /// Per-node system template; node_ip is bumped per node so frames in a
  /// debug dump say which machine they belong to.
  sim::SystemConfig node_template;
  /// When false, workers hold at a gate until start() — lets tests and
  /// benches submit a whole batch first so execution order is the plan.
  bool autostart = true;
  /// Fleet-wide causal tracing: submit() mints a TraceContext per job and
  /// every phase (queue-wait, synthesis, reconfigure, load, run, readback,
  /// error) lands in span_log() — one merged timeline, one process lane
  /// per node.  report() folds per-phase latency histograms into the
  /// fleet registry as farm.phase.*.  The spans come from the server and
  /// client; the farm never attaches a job trace to its nodes, so none is
  /// logged twice, and tracing changes no simulated cycle.
  bool tracing = false;
  /// Self-healing: a job whose failure smells like a node fault
  /// (JobResult::node_fault — watchdog trip, silent node) is requeued at
  /// the head of the queue and retried — on any healthy node — up to this
  /// many extra times before its failure is delivered.  The faulting node
  /// is quarantined and must pass a RESTART probe before taking work
  /// again.  0 disables retries (quarantine still happens).
  unsigned max_job_retries = 2;
};

/// Worker-node health in the self-healing loop.  Healthy nodes take work;
/// a node whose job died of a node fault is quarantined, then must pass a
/// RESTART probe (recovering) before rejoining the fleet.
enum class NodeHealth : u8 { kHealthy = 0, kQuarantined = 1, kRecovering = 2 };

const char* to_string(NodeHealth h);

/// A completed job, as delivered back to whoever submitted it.
struct FarmJobOutcome {
  u64 id = 0;
  std::string owner;
  std::string config_key;
  std::size_t node = 0;  // which node ran it
  liquid::JobResult result;
  /// Causal trace id (0 when fleet tracing was off at submission).
  u64 trace_id = 0;
  /// Post-mortem JSON from the node's flight recorder, captured when the
  /// job failed on a recorder-armed node; empty otherwise.
  std::string flight_dump;
  /// Executions this job took (1 = no retries) and the node that ran each
  /// of them; `node` above is the last entry.  An audit can assert
  /// exactly-once delivery and trace a job's path through the fleet.
  unsigned attempts = 1;
  std::vector<std::size_t> node_history;
};

/// Fleet-level rollup; built by LiquidFarm::report() once the fleet is
/// idle.  `fleet` carries every per-node metric merged name-by-name plus
/// the farm.* and reconfig_cache.* families, so the JSON path is the same
/// one snapshot/report JSON has used since PR 1.
struct FarmReport {
  u64 jobs = 0;
  u64 failures = 0;
  u64 reconfigurations = 0;
  u64 bitfile_hits = 0;
  u64 rejected = 0;       // submissions bounced by admission control
  u64 affinity_hits = 0;  // dispatches that needed no reprogramming
  u64 retries = 0;        // failed executions requeued for another try
  u64 migrations = 0;     // retries that landed on a different node
  u64 warm_starts = 0;    // snapshot-pool restores instead of boot/load
  double makespan_seconds = 0.0;    // busiest node's simulated busy time
  double total_busy_seconds = 0.0;  // sum over nodes
  double jobs_per_second = 0.0;     // jobs / makespan (simulated)
  double p50_wall_seconds = 0.0;    // per-job latency percentiles
  double p95_wall_seconds = 0.0;
  double p99_wall_seconds = 0.0;
  double host_seconds = 0.0;  // context only: host time spent running

  struct Node {
    std::size_t index = 0;
    u64 jobs = 0;
    u64 failures = 0;
    u64 reconfigurations = 0;
    u64 quarantines = 0;  // times this node was benched for a fault
    NodeHealth health = NodeHealth::kHealthy;
    double busy_seconds = 0.0;
    std::string config_key;  // image loaded when the fleet went idle
  };
  std::vector<Node> nodes;

  metrics::Snapshot fleet;

  std::string to_json(int indent = 2) const { return fleet.to_json(indent); }
  /// Human-readable summary (what lfarm prints).
  std::string text() const;
};

class LiquidFarm {
 public:
  explicit LiquidFarm(FarmConfig cfg = {});
  /// Joins the workers.  Pending jobs that never dispatched are abandoned
  /// — drain() first for a clean finish.
  ~LiquidFarm();

  /// Release the workers (no-op when autostart, or already started).
  void start();

  /// Thread-safe submission; returns the job id or a typed rejection.
  /// With `wake` false the job waits for the next wake() (or any other
  /// dispatch): a front end that answers its client before the work
  /// starts keeps the woken worker from preempting that answer.
  Result<u64> submit(FarmJob job, bool wake = true);
  /// Wake the workers to pick up queued work.
  void wake();

  /// Call `fn` each time a job's final outcome is queued for popping
  /// (never for an execution requeued as a retry).  It runs under the
  /// farm lock on a worker thread, so it must be cheap and must not call
  /// back into the farm; in exchange, once a call that clears the
  /// listener (empty `fn`) returns, no call is in flight and whatever the
  /// old listener touched may be torn down.  One listener at a time.
  void set_result_listener(std::function<void()> fn);

  /// Pop one completed job if any is ready.
  std::optional<FarmJobOutcome> try_pop_result();
  /// Pop one completed job, waiting if work is still in the pipe;
  /// nullopt once the farm is idle with nothing left to deliver.
  std::optional<FarmJobOutcome> pop_result();

  /// Block until every admitted job has executed and every benched node
  /// has healed, so no worker is using its node (results may still be
  /// queued for popping).
  void drain();
  /// Stop accepting work and park the workers (drain first to finish
  /// outstanding jobs).  Idempotent; the destructor calls it.
  void shutdown();

  /// Pre-synthesize a configuration space into the shared cache (the
  /// paper's offline pass).  Returns simulated seconds spent.
  double pregenerate(const liquid::ConfigSpace& space);

  /// The order node `node` would run the current queue in, were it alone
  /// (see FarmScheduler::plan — exact for a single-node farm).
  std::vector<u64> plan(std::size_t node) const;

  /// Fleet rollup; waits for the fleet to go idle first.
  FarmReport report();

  std::size_t nodes() const { return workers_.size(); }
  liquid::ReconfigurationCache& cache() { return cache_; }
  FarmScheduler::Stats scheduler_stats() const;

  /// The fleet's span log (every traced job's phases, all nodes on one
  /// timeline).  Reading/exporting while jobs are in flight is safe (the
  /// log locks internally) but a coherent file wants drain() first.
  trace::SpanLog& span_log() { return span_log_; }
  const trace::SpanLog& span_log() const { return span_log_; }

  /// Direct node access for pre-start setup (arming fault injectors and
  /// flight recorders).  Only safe on an autostart=false
  /// farm before start() — the workers hold at their gate and have not
  /// touched their nodes yet — or after drain() with no new submissions.
  sim::LiquidSystem& node_for_setup(std::size_t i) {
    return *workers_.at(i)->node;
  }

 private:
  struct Worker {
    std::size_t index = 0;
    std::unique_ptr<sim::LiquidSystem> node;
    std::unique_ptr<liquid::ReconfigurationServer> server;
    std::thread thread;
    // Shared-state mirror of this worker, guarded by mu_: the scheduler
    // and report() read these instead of poking the node cross-thread.
    std::string current_key;
    bool ready = false;  // booted to the polling loop
    NodeHealth health = NodeHealth::kHealthy;
    u64 jobs = 0;
    u64 failures = 0;
    u64 reconfigurations = 0;
    u64 bitfile_hits = 0;
    u64 quarantines = 0;
    double busy_seconds = 0.0;
  };

  void worker_loop(Worker& w);
  /// RESTART-probe a quarantined node until the control state machine
  /// answers idle again (the §4.1 recovery path).  Runs on the worker's
  /// own thread; only the health flips take the farm mutex.
  void recover_node(Worker& w);
  bool fleet_idle_locked() const;

  FarmConfig cfg_;
  liquid::SynthesisModel syn_;
  liquid::ReconfigurationCache cache_;
  sim::SnapshotPool warm_pool_;  // internally locked; shared by all servers

  mutable std::mutex mu_;
  std::condition_variable cv_work_;     // workers: job available / shutdown
  std::condition_variable cv_results_;  // consumers: result ready / idle
  FarmScheduler sched_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::deque<FarmJobOutcome> results_;
  std::function<void()> result_listener_;  // guarded by mu_
  trace::SpanLog span_log_;  // internally locked; written by all workers
  std::vector<double> wall_samples_;  // per-job wall_seconds, for p50/95/99
  bool started_ = false;
  bool shutdown_ = false;
  double host_seconds_ = 0.0;
  u64 retries_ = 0;     // requeued executions (guarded by mu_)
  u64 migrations_ = 0;  // retry picked up by a different node (mu_)
};

}  // namespace la::farm
