// Shared state of one benchmark run: the audit, the per-round totals the
// metrics are computed from, and the functions that run one round.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/span_log.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace fleetbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// User + system CPU seconds this process has spent so far.
double process_cpu_s();
/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Every check the benchmark makes on a result.  Each violation counts
/// against the run (fail_ratio) and makes the exit code nonzero.
class Audit {
 public:
  /// Record a violation; the first few are printed to stderr.
  void fail(const std::string& what);

  /// The readback of one run of `program`: must equal `expect`, or, when
  /// `expect` is empty, the first readback seen for that program.
  void check_words(std::size_t program, const std::vector<u32>& expect,
                   const std::vector<u32>& got, const std::string& who);

  /// Simulated Start->done cycles of one run of `program`: every run of
  /// one (kernel, configuration) pair must take exactly as many cycles.
  void check_cycles(std::size_t program, u64 cycles, const std::string& who);

  /// A new fleet starts with an empty snapshot pool: its first run of a
  /// program captures the state later runs restore, so pins start afresh.
  void new_fleet() {
    pinned_words_.clear();
    pinned_cycles_.clear();
  }

  u64 violations() const { return violations_; }
  /// The pinned cycle count of `program` (0 when never run).
  u64 cycles_of(std::size_t program) const;

 private:
  u64 violations_ = 0;
  std::map<std::size_t, std::vector<u32>> pinned_words_;
  std::map<std::size_t, u64> pinned_cycles_;
};

/// Span-log phases of traced jobs, folded per job (layers.cpp).
struct PhaseBreakdown {
  Samples queue_wait_ms, synthesis_us, reconfigure_ms, load_ms, run_ms,
      readback_us, unattributed_ms;
  double run_job_us = 0;  // sum over jobs of root span minus queue_wait
  double reconfigure_us = 0, load_us = 0, run_us = 0, readback_us_sum = 0,
         unattributed_us = 0;
  u64 jobs = 0;
  u64 captures = 0;    // chunked LOADs (each followed by a snapshot capture)
  u64 warm_loads = 0;  // LOADs replaced by a snapshot restore

  void add(const std::vector<la::trace::Span>& spans);
};

/// Standalone LiquidSystem::snapshot()/restore() timings (layers.cpp).
struct SimProbe {
  Samples snapshot_ms, restore_ms;
  double snapshot_mb = 0;
};

/// Time snapshot() and restore() on a node the probe boots and loads with
/// each of `jobs` in turn.  After each restore the program runs again and
/// must reproduce the cycles and readback of the run before it.
SimProbe probe_snapshot_restore(const std::vector<BenchJob>& jobs,
                                Audit& audit);

/// Nearest-rank-in-bucket percentile of a metrics histogram, interpolated
/// linearly inside the bucket and clamped to the observed range.
double histogram_pct(const la::metrics::HistogramSnapshot& h, double q);
/// Fold `b` into `a` (counts and buckets add; range widens).
void merge_histogram(la::metrics::HistogramSnapshot& a,
                     const la::metrics::HistogramSnapshot& b);

/// Everything the rounds of one run accumulate.
struct Totals {
  // The measured windows (untraced rounds only in a traced run).
  u64 attempted = 0;
  u64 completed = 0;
  u64 job_failures = 0;  // jobs the farm delivered as failed
  u64 unfinished = 0;    // jobs with no result at the deadline
  double window_s = 0;   // measured host seconds
  double cpu_s = 0;      // process CPU seconds inside the windows
  double cycles = 0;     // simulated Start->done cycles of completed jobs
  Samples job_ms, accept_ms, e2e_ms;
  Samples setup_s;

  // Per-layer observations.
  Samples submit_us, assemble_ms, gen_late_ms;
  PhaseBreakdown phases;
  double traced_cycles = 0;  // cycles of completed jobs in traced rounds
  double traced_cpu_s = 0, untraced_cpu_s = 0;
  u64 traced_jobs = 0, untraced_jobs = 0;
  u64 farm_jobs = 0, rejected = 0, picks = 0, affinity_hits = 0,
      reconfigurations = 0, warm_starts = 0;
  // Gateway counters (gate_open) plus the client's own resends.
  std::map<std::string, double> gate;
  la::metrics::HistogramSnapshot gate_job_ms;
  u64 resends = 0;
  double all_windows_s = 0;  // measured windows of every round
  std::vector<BenchJob> probe_jobs;  // the sim probe's programs (round 0's)
};

struct RoundPlan {
  Workload workload = Workload::kFarmDistinct;
  u64 seed = 1;
  std::size_t round = 0;
  bool traced = false;
  double window_budget_s = 0;        // measured window of one round
  Clock::time_point setup_start;     // when this round's set-up began
};

void run_inprocess_round(const RoundPlan& plan, Audit& audit, Totals& t);
void run_gate_round(const RoundPlan& plan, Audit& audit, Totals& t);

}  // namespace fleetbench
