// lfarm: drive a Liquid Farm with a seeded closed-loop workload and
// verify it end to end.
//
// The tool is both a demo and a checker: it generates a reproducible
// stream of jobs (mixed owners, Zipf-skewed configuration popularity),
// submits them against admission-control backpressure, and audits every
// outcome — each admitted job must complete exactly once, its program's
// result word must read back with the host-predicted value, and each
// owner's results must arrive in submission order.  Any lost, duplicated,
// failed, out-of-order, or corrupted job makes the exit code nonzero,
// which is what CI's farm-smoke job keys on.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/prometheus.hpp"
#include "common/rng.hpp"
#include "farm/farm.hpp"
#include "farm/workload.hpp"
#include "fault/injector.hpp"

namespace {

using namespace la;

struct Options {
  std::size_t nodes = 4;
  u64 jobs = 200;  // 0 = unlimited (requires --budget-secs)
  u64 seed = 1;
  farm::FarmPolicy policy = farm::FarmPolicy::kAffinity;
  // Enough distinct owners to keep every node of a wide fleet fed: per-
  // owner FIFO serializes each owner, so the runnable set (and with it
  // both parallelism and affinity's choices) is capped by owner count.
  unsigned owners = 24;
  unsigned configs = 8;
  std::size_t window = 16;
  std::size_t queue = 256;
  u32 max_skips = 8;
  double budget_secs = 0.0;  // stop submitting after this much host time
  bool cold = false;         // skip pre-synthesizing the catalog
  std::string report_json;
  std::string metrics_json;  // fleet snapshot via the bench egress
  std::string trace_out;     // causal job spans, Chrome trace_event
  std::string spans_out;     // causal job spans, JSONL
  std::string prom;          // fleet snapshot, Prometheus exposition
  bool flight_recorder = false;
  bool quiet = false;
  /// Chaos mode: wedge this many distinct nodes (seeded pick, seeded
  /// trigger cycle) and require the self-healing machinery to deliver
  /// every job anyway — with at least one migration and one warm start.
  std::size_t fault_nodes = 0;
};

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: lfarm [options]\n"
               "  --nodes N        fleet size (default 4)\n"
               "  --jobs N         jobs to run; 0 = until budget "
               "(default 200)\n"
               "  --seed S         workload seed (default 1)\n"
               "  --policy P       affinity | fifo (default affinity)\n"
               "  --owners N       distinct job owners (default 24)\n"
               "  --configs N      configuration catalog size (default 8)\n"
               "  --window N       affinity look-ahead window (default 16)\n"
               "  --queue N        admission-control capacity (default 256)\n"
               "  --budget-secs S  stop submitting after S host seconds\n"
               "  --cold           start with an empty bitfile cache\n"
               "  --report-json F  write the fleet metrics snapshot to F\n"
               "  --metrics-json F write the fleet snapshot via the bench\n"
               "                   egress format ({benchmark, runs})\n"
               "  --trace-out F    causal job tracing: every job's phases\n"
               "                   (queue wait through readback, with the\n"
               "                   node cycles each covered) as a Chrome\n"
               "                   trace_event file, one process lane per\n"
               "                   node\n"
               "  --spans-out F    causal job tracing as JSONL, one span\n"
               "                   object per line\n"
               "  --prom F         write the fleet snapshot as Prometheus\n"
               "                   text exposition\n"
               "  --flight-recorder  arm each node's black-box recorder;\n"
               "                   failed jobs deliver a post-mortem dump\n"
               "  --fault-nodes K  chaos: wedge K distinct nodes (seeded)\n"
               "                   mid-run; the audit then also requires\n"
               "                   retries, >=1 migration and >=1 warm\n"
               "                   start on top of exactly-once delivery\n"
               "  --quiet          suppress the report text\n");
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "lfarm: %s needs a value\n", what);
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--nodes") {
      const char* v = next("--nodes");
      if (v == nullptr) return false;
      o.nodes = std::strtoull(v, nullptr, 10);
    } else if (a == "--jobs") {
      const char* v = next("--jobs");
      if (v == nullptr) return false;
      o.jobs = std::strtoull(v, nullptr, 10);
    } else if (a == "--seed") {
      const char* v = next("--seed");
      if (v == nullptr) return false;
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--policy") {
      const char* v = next("--policy");
      if (v == nullptr) return false;
      if (std::strcmp(v, "affinity") == 0) {
        o.policy = farm::FarmPolicy::kAffinity;
      } else if (std::strcmp(v, "fifo") == 0) {
        o.policy = farm::FarmPolicy::kFifo;
      } else {
        std::fprintf(stderr, "lfarm: unknown policy '%s'\n", v);
        return false;
      }
    } else if (a == "--owners") {
      const char* v = next("--owners");
      if (v == nullptr) return false;
      o.owners = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (a == "--configs") {
      const char* v = next("--configs");
      if (v == nullptr) return false;
      o.configs = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (a == "--window") {
      const char* v = next("--window");
      if (v == nullptr) return false;
      o.window = std::strtoull(v, nullptr, 10);
    } else if (a == "--queue") {
      const char* v = next("--queue");
      if (v == nullptr) return false;
      o.queue = std::strtoull(v, nullptr, 10);
    } else if (a == "--budget-secs") {
      const char* v = next("--budget-secs");
      if (v == nullptr) return false;
      o.budget_secs = std::strtod(v, nullptr);
    } else if (a == "--cold") {
      o.cold = true;
    } else if (a == "--report-json") {
      const char* v = next("--report-json");
      if (v == nullptr) return false;
      o.report_json = v;
    } else if (a == "--metrics-json") {
      const char* v = next("--metrics-json");
      if (v == nullptr) return false;
      o.metrics_json = v;
    } else if (a == "--trace-out") {
      const char* v = next("--trace-out");
      if (v == nullptr) return false;
      o.trace_out = v;
    } else if (a == "--spans-out") {
      const char* v = next("--spans-out");
      if (v == nullptr) return false;
      o.spans_out = v;
    } else if (a == "--prom") {
      const char* v = next("--prom");
      if (v == nullptr) return false;
      o.prom = v;
    } else if (a == "--fault-nodes") {
      const char* v = next("--fault-nodes");
      if (v == nullptr) return false;
      o.fault_nodes = std::strtoull(v, nullptr, 10);
    } else if (a == "--flight-recorder") {
      o.flight_recorder = true;
    } else if (a == "--quiet") {
      o.quiet = true;
    } else if (a == "--help" || a == "-h") {
      usage(stdout);
      std::exit(0);
    } else {
      std::fprintf(stderr, "lfarm: unknown argument '%s'\n", a.c_str());
      usage(stderr);
      return false;
    }
  }
  if (o.jobs == 0 && o.budget_secs <= 0.0) {
    std::fprintf(stderr, "lfarm: --jobs 0 requires --budget-secs\n");
    return false;
  }
  if (o.owners == 0) {
    std::fprintf(stderr, "lfarm: --owners must be at least 1\n");
    return false;
  }
  if (o.fault_nodes >= o.nodes && o.fault_nodes != 0) {
    // At least one never-faulted node must exist or a migration target
    // cannot be guaranteed.
    std::fprintf(stderr, "lfarm: --fault-nodes must be < --nodes\n");
    return false;
  }
  return true;
}

/// Everything the auditor remembers about one admitted job.
struct Expectation {
  std::string owner;
  u32 expected = 0;
  u32 completions = 0;
};

struct Audit {
  std::map<u64, Expectation> admitted;
  std::map<std::string, u64> last_id_by_owner;
  u64 completed = 0;
  u64 duplicated = 0;
  u64 failed = 0;
  u64 corrupted = 0;
  u64 reordered = 0;
  u64 bad_history = 0;

  void record(const farm::FarmJobOutcome& out) {
    // Retry bookkeeping must audit clean on every outcome, healed or not:
    // one node per execution, final entry naming the delivering node.
    if (out.node_history.size() != out.attempts || out.attempts == 0 ||
        out.node_history.back() != out.node) {
      ++bad_history;
      std::fprintf(stderr, "lfarm: job %llu has a broken audit trail\n",
                   static_cast<unsigned long long>(out.id));
    }
    const auto it = admitted.find(out.id);
    if (it == admitted.end() || ++it->second.completions > 1) {
      ++duplicated;
      return;
    }
    ++completed;
    if (!out.result.ok) {
      ++failed;
      std::fprintf(stderr, "lfarm: job %llu failed: %s\n",
                   static_cast<unsigned long long>(out.id),
                   out.result.error.c_str());
      if (!out.flight_dump.empty()) {
        std::fprintf(stderr,
                     "lfarm: flight-recorder post-mortem for job %llu:\n%s\n",
                     static_cast<unsigned long long>(out.id),
                     out.flight_dump.c_str());
      }
      return;
    }
    if (out.result.readback.empty() ||
        out.result.readback[0] != it->second.expected) {
      ++corrupted;
      std::fprintf(stderr,
                   "lfarm: job %llu read back 0x%08x, expected 0x%08x\n",
                   static_cast<unsigned long long>(out.id),
                   out.result.readback.empty() ? 0u : out.result.readback[0],
                   it->second.expected);
    }
    // Per-owner FIFO: ids are assigned in submission order, so an owner's
    // outcomes must arrive with strictly increasing ids.
    u64& last = last_id_by_owner[out.owner];
    if (out.id <= last) ++reordered;
    last = out.id;
  }
};

bool write_file(const char* tool, const std::string& path,
                const std::string& text) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "%s: cannot write %s\n", tool, path.c_str());
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), out) == text.size();
  return std::fclose(out) == 0 && ok;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) return 2;

  farm::FarmConfig fc;
  fc.nodes = opt.nodes;
  fc.scheduler.policy = opt.policy;
  fc.scheduler.queue_capacity = opt.queue;
  fc.scheduler.affinity_window = opt.window;
  fc.scheduler.max_skips = opt.max_skips;
  fc.tracing = !opt.trace_out.empty() || !opt.spans_out.empty();
  fc.node_template.flight_recorder = opt.flight_recorder;
  if (opt.fault_nodes > 0) {
    // Hold the workers at their gate so injectors can be armed safely,
    // and keep fault detection fast: a wedged CPU should trip the node
    // watchdog, not the client's 10M-step deadline.
    fc.autostart = false;
    fc.node_template.watchdog_budget = 20'000;
  }
  farm::LiquidFarm f(fc);

  // Chaos: pick K distinct victims and wedge each one permanently (until
  // reset) at a seeded cycle early in its run.  Only drain-on-fault,
  // retry and migration can then deliver a clean audit.
  std::vector<std::unique_ptr<fault::FaultInjector>> injectors;
  if (opt.fault_nodes > 0) {
    Rng pick_rng(opt.seed * 0x9e3779b97f4a7c15ull + 1);
    std::set<std::size_t> victims;
    while (victims.size() < opt.fault_nodes) {
      victims.insert(static_cast<std::size_t>(
          pick_rng.below(static_cast<u32>(opt.nodes))));
    }
    for (const std::size_t v : victims) {
      // A single wedge can evaporate without tripping anything: an FPGA
      // reprogram (warm or cold) legitimately replaces the whole CPU
      // state, wedge included, so a wedge landing in a harmless phase
      // just before an architecture switch heals silently.  Wedge the
      // victim repeatedly so one lands across a run phase and the
      // watchdog + drain machinery actually engage.
      fault::FaultPlan plan;
      const u64 first = 2'000 + pick_rng.below(10'000);
      for (u64 shot = 0; shot < 6; ++shot) {
        plan.events.push_back(
            {{fault::TriggerKind::kCycle, first + shot * 25'000},
             {fault::FaultSite::kCpuWedge, 0, 1, 1, 0}});
      }
      injectors.push_back(std::make_unique<fault::FaultInjector>(
          f.node_for_setup(v), plan));
      if (!opt.quiet) {
        std::printf("chaos: node %zu wedges from cycle %llu\n", v,
                    static_cast<unsigned long long>(first));
      }
    }
    f.start();
  }

  farm::WorkloadConfig wc;
  wc.seed = opt.seed;
  wc.owners = opt.owners;
  wc.configs = opt.configs;
  farm::WorkloadGenerator gen(wc);

  if (!opt.cold) {
    // The paper's offline pass: pre-synthesize the catalog once so the
    // run measures scheduling and reconfiguration, not synthesis hours.
    liquid::ConfigSpace space;
    space.dcache_sizes.clear();
    space.mul_latencies.clear();
    for (const liquid::ArchConfig& c : gen.catalog()) {
      space.dcache_sizes.push_back(c.dcache_bytes);
      space.mul_latencies.push_back(c.mul_latency);
    }
    f.pregenerate(space);
  }

  Audit audit;
  u64 rejected = 0;
  const auto t0 = std::chrono::steady_clock::now();
  auto budget_left = [&] {
    if (opt.budget_secs <= 0.0) return true;
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    return dt.count() < opt.budget_secs;
  };

  // Closed loop: submit until the queue pushes back, then absorb a result
  // before trying again — the generator never outruns admission control.
  u64 submitted = 0;
  while ((opt.jobs == 0 || submitted < opt.jobs) && budget_left()) {
    farm::GeneratedJob g = gen.next();
    const std::string owner = g.job.owner;
    for (;;) {
      farm::Result<u64> id = f.submit(g.job);
      if (id) {
        audit.admitted[*id] = {owner, g.expected, 0};
        ++submitted;
        break;
      }
      if (id.error().kind != farm::FarmErrorKind::kSaturated) {
        std::fprintf(stderr, "lfarm: submit failed: %s\n",
                     id.error().to_string().c_str());
        return 2;
      }
      ++rejected;
      if (auto out = f.pop_result()) audit.record(*out);
    }
  }

  f.drain();
  while (auto out = f.try_pop_result()) audit.record(*out);

  farm::FarmReport rep = f.report();
  const farm::FarmScheduler::Stats ss = f.scheduler_stats();

  const u64 lost = submitted - audit.completed;
  if (!opt.quiet) {
    std::fputs(rep.text().c_str(), stdout);
    std::printf(
        "scheduler: %llu picks, %llu affinity hits, %llu aged, "
        "%llu submissions bounced\n",
        static_cast<unsigned long long>(ss.picks),
        static_cast<unsigned long long>(ss.affinity_hits),
        static_cast<unsigned long long>(ss.aged_picks),
        static_cast<unsigned long long>(rejected));
  }
  if (!opt.report_json.empty() &&
      !write_file("lfarm", opt.report_json, rep.to_json())) {
    return 2;
  }
  if (!opt.metrics_json.empty()) {
    // Same egress shape as the benches and lsim, so downstream tooling
    // reads one format everywhere.
    bench::BenchIo io("lfarm", opt.metrics_json, "");
    io.add_run("fleet", rep.fleet);
    if (!io.finish()) return 2;
  }
  if (!opt.trace_out.empty() &&
      !f.span_log().write_chrome_json(opt.trace_out)) {
    std::fprintf(stderr, "lfarm: cannot write %s\n", opt.trace_out.c_str());
    return 2;
  }
  if (!opt.spans_out.empty() && !f.span_log().write_jsonl(opt.spans_out)) {
    std::fprintf(stderr, "lfarm: cannot write %s\n", opt.spans_out.c_str());
    return 2;
  }
  if (!opt.prom.empty() &&
      !write_file("lfarm", opt.prom,
                  metrics::to_prometheus(rep.fleet, "liquid_"))) {
    return 2;
  }

  std::printf("verify: %llu submitted, %llu completed, %llu lost, "
              "%llu duplicated, %llu failed, %llu corrupted, %llu reordered, "
              "%llu bad history\n",
              static_cast<unsigned long long>(submitted),
              static_cast<unsigned long long>(audit.completed),
              static_cast<unsigned long long>(lost),
              static_cast<unsigned long long>(audit.duplicated),
              static_cast<unsigned long long>(audit.failed),
              static_cast<unsigned long long>(audit.corrupted),
              static_cast<unsigned long long>(audit.reordered),
              static_cast<unsigned long long>(audit.bad_history));
  bool ok = lost == 0 && audit.duplicated == 0 && audit.failed == 0 &&
            audit.corrupted == 0 && audit.reordered == 0 &&
            audit.bad_history == 0;
  if (opt.fault_nodes > 0) {
    // Chaos runs must also show the self-healing machinery actually
    // engaged: clean-because-nothing-happened is a test bug, not a pass.
    std::printf("chaos: %llu retries, %llu migrations, %llu warm starts\n",
                static_cast<unsigned long long>(rep.retries),
                static_cast<unsigned long long>(rep.migrations),
                static_cast<unsigned long long>(rep.warm_starts));
    if (rep.retries == 0 || rep.migrations == 0 || rep.warm_starts == 0) {
      std::fprintf(stderr,
                   "lfarm: chaos run did not exercise retry + migration + "
                   "warm start\n");
      ok = false;
    }
  }
  std::printf("RESULT: %s\n", ok ? "OK" : "FAIL");
  return ok ? 0 : 1;
}
