// fleetbench: the fleet benchmark.  One command takes a workload and a seed,
// sets the system up through its public APIs, drives the workload for the
// given number of seconds, audits every result, and prints the workload's
// metrics by name with their units.
//
//   fleetbench --workload farm_distinct|node_progs|gate_open --seed N
//              --seconds S --trace 0|1 [--commit ID]
//
// --trace 0 prints the end-to-end metrics, measured with tracing off.
// --trace 1 alternates untraced and traced rounds and prints the per-layer
// metrics: the traced rounds' span log, timers around the calls into each
// layer, a standalone snapshot/restore probe, and what tracing costs.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// The line before it records the run's metadata and sample counts.  The
// exit code is 0 only when every audit passed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

#ifndef FLEETBENCH_BUILD_TYPE
#define FLEETBENCH_BUILD_TYPE "unknown"
#endif

namespace fleetbench {
namespace {

// Set-up is measured on at least this many rounds (its median is
// reported); a traced run needs two untraced and two traced rounds.
constexpr std::size_t kMinRounds = 4;
// gate_open refuses to report when its generator queued arrivals later
// than this after their due time (p99): one mean inter-arrival gap.
constexpr double kLateLimitMs = 25.0;

struct Options {
  Workload workload = Workload::kFarmDistinct;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
};

bool parse(int argc, char** argv, Options& o) {
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "fleetbench: %s needs a value\n", a.c_str());
      return false;
    }
    const char* v = argv[i + 1];
    char* end = nullptr;
    bool ok = true;
    if (a == "--workload") {
      const auto w = workload_by_name(v);
      ok = w.has_value();
      if (ok) o.workload = *w;
      have_workload = ok;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      ok = *v != '\0' && *end == '\0';
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &end);
      ok = *end == '\0' && o.seconds > 0;
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "1") == 0;
      ok = o.trace || std::strcmp(v, "0") == 0;
    } else if (a == "--commit") {
      o.commit = v;
    } else {
      std::fprintf(stderr, "fleetbench: unknown argument '%s'\n", a.c_str());
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "fleetbench: bad value '%s' for %s\n", v, a.c_str());
      return false;
    }
  }
  if (!have_workload) std::fprintf(stderr, "fleetbench: --workload is required\n");
  return have_workload;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;  // 0 = not a sampled timing
};

double per(double x, double n) { return n > 0 ? x / n : 0.0; }

std::vector<Metric> end_to_end(const Totals& t) {
  const double good = static_cast<double>(t.completed - t.job_failures);
  return {
      {"jobs_per_s", per(good, t.window_s), "1/s", 0},
      {"job_p50_ms", t.job_ms.median(), "ms", t.job_ms.count()},
      {"sim_mcycles_per_s", per(t.cycles / 1e6, t.window_s), "Mcycle/s", 0},
      {"accept_p50_ms", t.accept_ms.median(), "ms", t.accept_ms.count()},
      {"e2e_p50_ms", t.e2e_ms.median(), "ms", t.e2e_ms.count()},
      {"cpu_ms_per_job", per(t.cpu_s * 1e3, static_cast<double>(t.completed)), "ms", 0},
      {"peak_rss_mb", peak_rss_mb(), "MB", 0},
      {"setup_s", t.setup_s.median(), "s", t.setup_s.count()},
  };
}

std::vector<Metric> per_layer(const Totals& t, const SimProbe& probe) {
  const PhaseBreakdown& p = t.phases;
  const double jobs = static_cast<double>(t.farm_jobs);
  const auto share = [&](double us) { return per(us, p.run_job_us); };
  const auto gate = [&](const char* name) {
    const auto it = t.gate.find(name);
    return it == t.gate.end() ? 0.0 : it->second;
  };
  const double gate_jobs = gate("gate.results_pushed");
  const double cpu_traced = per(t.traced_cpu_s, static_cast<double>(t.traced_jobs));
  const double cpu_untraced = per(t.untraced_cpu_s, static_cast<double>(t.untraced_jobs));
  return {
      // The end-to-end tails: they do not repeat within a tenth from run
      // to run, so they are reported here, from all rounds of the run.
      {"job_p99_ms", t.job_ms.pct(0.99), "ms", t.job_ms.count()},
      {"accept_p99_ms", t.accept_ms.pct(0.99), "ms", t.accept_ms.count()},
      {"e2e_p99_ms", t.e2e_ms.pct(0.99), "ms", t.e2e_ms.count()},
      {"liquid.unattributed_ms.p50", p.unattributed_ms.median(), "ms", p.unattributed_ms.count()},
      {"liquid.span_coverage", per(p.run_job_us - p.unattributed_us, p.run_job_us), "ratio", 0},
      {"sim.snapshot_ms", probe.snapshot_ms.median(), "ms", probe.snapshot_ms.count()},
      {"sim.snapshot_mb", probe.snapshot_mb, "MB", 0},
      {"sim.restore_ms", probe.restore_ms.median(), "ms", probe.restore_ms.count()},
      {"liquid.reconfigure_ms.p50", p.reconfigure_ms.median(), "ms", p.reconfigure_ms.count()},
      {"liquid.reconfigure_ms.p99", p.reconfigure_ms.pct(0.99), "ms", p.reconfigure_ms.count()},
      {"ctrl.load_ms.p50", p.load_ms.median(), "ms", p.load_ms.count()},
      {"ctrl.load_ms.p99", p.load_ms.pct(0.99), "ms", p.load_ms.count()},
      {"ctrl.readback_us.p50", p.readback_us.median(), "us", p.readback_us.count()},
      {"liquid.synthesis_us.p50", p.synthesis_us.median(), "us", p.synthesis_us.count()},
      {"cpu.run_ms.p50", p.run_ms.median(), "ms", p.run_ms.count()},
      {"cpu.run_ms.p99", p.run_ms.pct(0.99), "ms", p.run_ms.count()},
      {"cpu.run_mcycles_per_s", per(t.traced_cycles, p.run_us), "Mcycle/s", 0},
      {"liquid.share.reconfigure", share(p.reconfigure_us), "ratio", 0},
      {"liquid.share.load", share(p.load_us), "ratio", 0},
      {"liquid.share.run", share(p.run_us), "ratio", 0},
      {"liquid.share.readback", share(p.readback_us_sum), "ratio", 0},
      {"liquid.share.unattributed", share(p.unattributed_us), "ratio", 0},
      {"liquid.captures_per_job", per(static_cast<double>(p.captures), static_cast<double>(p.jobs)), "ratio", 0},
      {"farm.submit_us.p50", t.submit_us.median(), "us", t.submit_us.count()},
      {"farm.submit_us.p99", t.submit_us.pct(0.99), "us", t.submit_us.count()},
      {"farm.queue_wait_ms.p50", p.queue_wait_ms.median(), "ms", p.queue_wait_ms.count()},
      {"farm.queue_wait_ms.p99", p.queue_wait_ms.pct(0.99), "ms", p.queue_wait_ms.count()},
      {"farm.rejected_per_job", per(static_cast<double>(t.rejected), jobs), "ratio", 0},
      {"farm.affinity_hit_ratio", per(static_cast<double>(t.affinity_hits), static_cast<double>(t.picks)), "ratio", 0},
      {"farm.reconfigs_per_job", per(static_cast<double>(t.reconfigurations), jobs), "ratio", 0},
      {"farm.warm_starts_per_job", per(static_cast<double>(t.warm_starts), jobs), "ratio", 0},
      {"gate.retry_after_per_job", per(gate("gate.retry_after.rate") + gate("gate.retry_after.busy") + gate("gate.retry_after.farm"), gate_jobs), "ratio", 0},
      {"gate.dup_submits_per_job", per(gate("gate.dup_submits"), gate_jobs), "ratio", 0},
      {"gate.resends_per_job", per(static_cast<double>(t.resends), gate_jobs), "ratio", 0},
      {"gate.job_ms.p50", histogram_pct(t.gate_job_ms, 0.5), "ms", t.gate_job_ms.count},
      {"gate.job_ms.p99", histogram_pct(t.gate_job_ms, 0.99), "ms", t.gate_job_ms.count},
      {"gate.rx_frames_per_job", per(gate("gate.rx_frames"), gate_jobs), "ratio", 0},
      {"gate.tx_frames_per_job", per(gate("gate.tx_frames"), gate_jobs), "ratio", 0},
      {"sasm.assemble_ms", t.assemble_ms.median(), "ms", t.assemble_ms.count()},
      {"trace.overhead", cpu_untraced > 0 ? cpu_traced / cpu_untraced - 1.0 : 0.0, "ratio", 0},
      {"gen.late_ms.p99", t.gen_late_ms.pct(0.99), "ms", t.gen_late_ms.count()},
  };
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace
}  // namespace fleetbench

int main(int argc, char** argv) {
  using namespace fleetbench;
  const Clock::time_point process_start = Clock::now();
  Options opt;
  if (!parse(argc, argv, opt)) return 2;

  Audit audit;
  Totals t;
  std::size_t rounds = 0;
  try {
    const bool gate = opt.workload == Workload::kGateOpen;
    // A traced run traces every other round, and its traced and untraced
    // windows together last as long as an untraced run's.
    for (;;) {
      const bool enough = gate ? rounds >= kMinRounds
                               : rounds >= kMinRounds && t.all_windows_s >= opt.seconds;
      if (enough) break;
      RoundPlan plan;
      plan.workload = opt.workload;
      plan.seed = opt.seed;
      plan.round = rounds;
      plan.traced = opt.trace && rounds % 2 == 1;
      plan.window_budget_s = opt.seconds / static_cast<double>(kMinRounds);
      plan.setup_start = rounds == 0 ? process_start : Clock::now();
      if (gate) {
        run_gate_round(plan, audit, t);
      } else {
        run_inprocess_round(plan, audit, t);
      }
      ++rounds;
    }

    SimProbe probe;
    if (opt.trace) probe = probe_snapshot_restore(t.probe_jobs, audit);

    if (gate && t.gen_late_ms.pct(0.99) > kLateLimitMs) {
      audit.fail("the open-loop generator fell behind: send p99 " +
                 json_number(t.gen_late_ms.pct(0.99)) + " ms after due");
    }
    const std::vector<Metric> metrics = opt.trace ? per_layer(t, probe) : end_to_end(t);

    const u64 failed = t.job_failures + t.unfinished + audit.violations();
    const u64 attempted = std::max<u64>(1, t.attempted);
    const bool correct = audit.violations() == 0 && t.job_failures == 0 && t.unfinished == 0;

    for (const Metric& m : metrics) {
      std::fprintf(stderr, "  %-30s %14.4f %-9s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                   m.samples ? (" n=" + std::to_string(m.samples)).c_str() : "");
    }
    // Sample counts, and the p99s with fewer than ten samples beyond them.
    std::string samples, unresolved;
    for (const Metric& m : metrics) {
      if (m.samples == 0) continue;
      samples += (samples.empty() ? "" : ", ") + json_string(m.name) + ": " +
                 std::to_string(m.samples);
      if (m.name.find("p99") != std::string::npos && beyond(m.samples, 0.99) < 10) {
        unresolved += (unresolved.empty() ? "" : ", ") + json_string(m.name);
      }
    }
    std::printf(
        "{\"fleetbench\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
        "\"trace\": %d, \"build_type\": %s, \"commit\": %s, \"nproc\": %u, "
        "\"rounds\": %zu, \"measured_s\": %s, \"fail_ratio\": %s, "
        "\"samples\": {%s}, \"unresolved_p99\": [%s]}}\n",
        json_string(workload_name(opt.workload)).c_str(),
        static_cast<unsigned long long>(opt.seed), json_number(opt.seconds).c_str(),
        opt.trace ? 1 : 0, json_string(FLEETBENCH_BUILD_TYPE).c_str(),
        json_string(opt.commit).c_str(), std::thread::hardware_concurrency(), rounds,
        json_number(t.all_windows_s).c_str(),
        json_number(static_cast<double>(failed) / static_cast<double>(attempted)).c_str(),
        samples.c_str(), unresolved.c_str());
    std::string body;
    for (const Metric& m : metrics) {
      body += (body.empty() ? "" : ", ") + json_string(m.name) + ": {\"value\": " +
              json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), body.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetbench: %s\n", e.what());
    return 2;
  }
}
