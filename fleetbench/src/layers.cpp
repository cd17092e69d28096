// The audit and the per-layer observations made from outside the program:
// span-log folding, the standalone snapshot/restore probe, and the
// gateway's job-time histogram.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "bench.hpp"
#include "ctrl/client.hpp"
#include "sim/snapshot.hpp"

namespace fleetbench {

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

// ---- audit ---------------------------------------------------------------

void Audit::fail(const std::string& what) {
  ++violations_;
  if (violations_ <= 20) std::fprintf(stderr, "fleetbench: AUDIT %s\n", what.c_str());
}

void Audit::check_words(std::size_t program, const std::vector<u32>& expect,
                        const std::vector<u32>& got, const std::string& who) {
  const std::vector<u32>* want = &expect;
  if (expect.empty()) {
    const auto [it, first] = pinned_words_.emplace(program, got);
    if (first) return;
    want = &it->second;
  }
  if (got != *want) {
    fail(who + ": readback " +
         (got.empty() ? std::string("<none>") : std::to_string(got[0])) +
         " != expected " +
         (want->empty() ? std::string("<none>") : std::to_string((*want)[0])));
  }
}

void Audit::check_cycles(std::size_t program, u64 cycles, const std::string& who) {
  const auto [it, first] = pinned_cycles_.emplace(program, cycles);
  if (!first && it->second != cycles) {
    fail(who + ": ran " + std::to_string(cycles) + " cycles, earlier runs " +
         std::to_string(it->second));
  }
}

u64 Audit::cycles_of(std::size_t program) const {
  const auto it = pinned_cycles_.find(program);
  return it == pinned_cycles_.end() ? 0 : it->second;
}

// ---- span log ------------------------------------------------------------

void PhaseBreakdown::add(const std::vector<la::trace::Span>& spans) {
  struct Job {
    double root_us = -1, queue_wait_us = 0, covered_us = 0;
  };
  std::unordered_map<u64, Job> by_trace;
  for (const la::trace::Span& s : spans) {
    Job& j = by_trace[s.trace_id];
    if (s.name == "job") {
      j.root_us = s.dur_us;
    } else if (s.name == "queue_wait") {
      j.queue_wait_us += s.dur_us;
      queue_wait_ms.add(s.dur_us / 1e3);
    } else if (s.name == "synthesis") {
      j.covered_us += s.dur_us;
      synthesis_us.add(s.dur_us);
    } else if (s.name == "reconfigure") {
      j.covered_us += s.dur_us;
      reconfigure_us += s.dur_us;
      reconfigure_ms.add(s.dur_us / 1e3);
    } else if (s.name == "load") {
      j.covered_us += s.dur_us;
      load_us += s.dur_us;
      load_ms.add(s.dur_us / 1e3);
      ++(s.note == "warm_start" ? warm_loads : captures);
    } else if (s.name == "run") {
      j.covered_us += s.dur_us;
      run_us += s.dur_us;
      run_ms.add(s.dur_us / 1e3);
    } else if (s.name == "readback") {
      j.covered_us += s.dur_us;
      readback_us_sum += s.dur_us;
      readback_us.add(s.dur_us);
    }
  }
  for (const auto& [id, j] : by_trace) {
    if (j.root_us < 0) continue;  // no delivery: not a completed job
    const double run_job = j.root_us - j.queue_wait_us;
    const double gap = std::max(0.0, run_job - j.covered_us);
    ++jobs;
    run_job_us += run_job;
    unattributed_us += gap;
    unattributed_ms.add(gap / 1e3);
  }
}

// ---- standalone snapshot / restore ---------------------------------------

namespace {

struct Ran {
  bool ok = false;
  u64 cycles = 0;
  std::vector<u32> words;
};

Ran start_and_read(la::sim::LiquidSystem& node, la::ctrl::LiquidClient& c,
                   const la::farm::FarmJob& job) {
  Ran r;
  if (!c.start(job.program.entry) || !c.await_done(10'000'000)) return r;
  r.cycles = node.controller().last_run_cycles();
  auto words = c.read_memory(job.result_addr, job.result_words);
  if (!words) return r;
  r.words = std::move(*words);
  r.ok = true;
  return r;
}

}  // namespace

SimProbe probe_snapshot_restore(const std::vector<BenchJob>& jobs,
                                Audit& audit) {
  SimProbe p;
  la::sim::LiquidSystem node;
  node.run(100);
  la::liquid::ArchConfig current = la::liquid::ArchConfig::paper_baseline();
  for (const BenchJob& b : jobs) {
    const std::string who = "sim probe " + b.job.config.key();
    if (!(b.job.config == current)) {
      node.reconfigure(b.job.config.to_pipeline());
      node.run(100);
      current = b.job.config;
    }
    la::ctrl::LiquidClient c(node);
    if (!c.load_program(b.job.program)) {
      audit.fail(who + ": LOAD failed");
      continue;
    }
    const Clock::time_point t0 = Clock::now();
    const la::sim::SystemSnapshot snap = node.snapshot();
    p.snapshot_ms.add(ms_between(t0, Clock::now()));
    p.snapshot_mb = static_cast<double>(snap.size_bytes()) / (1024.0 * 1024.0);
    const Ran before = start_and_read(node, c, b.job);

    const Clock::time_point t1 = Clock::now();
    const bool restored = node.restore(snap);
    p.restore_ms.add(ms_between(t1, Clock::now()));
    const Ran after = restored ? start_and_read(node, c, b.job) : Ran{};

    if (!before.ok || !after.ok) {
      audit.fail(who + ": run before or after restore failed");
    } else if (after.cycles != before.cycles || after.words != before.words) {
      audit.fail(who + ": restore changed the run (" +
                 std::to_string(before.cycles) + " -> " +
                 std::to_string(after.cycles) + " cycles)");
    } else if (!b.expect.empty() && before.words != b.expect) {
      audit.fail(who + ": wrong result word");
    }
  }
  return p;
}

// ---- gateway histogram ---------------------------------------------------

double histogram_pct(const la::metrics::HistogramSnapshot& h, double q) {
  if (h.count == 0) return 0.0;
  const double rank = static_cast<double>(nearest_rank(h.count, q));
  double below = 0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const double n = static_cast<double>(h.buckets[i]);
    if (n > 0 && below + n >= rank) {
      const double lo =
          i == 0 ? h.min : std::max(h.min, la::metrics::Histogram::bucket_limit(i - 1));
      const double hi = std::min(h.max, la::metrics::Histogram::bucket_limit(i));
      return std::clamp(lo + (hi - lo) * (rank - below) / n, h.min, h.max);
    }
    below += n;
  }
  return h.max;
}

void merge_histogram(la::metrics::HistogramSnapshot& a,
                     const la::metrics::HistogramSnapshot& b) {
  if (b.count == 0) return;
  a.min = a.count == 0 ? b.min : std::min(a.min, b.min);
  a.max = a.count == 0 ? b.max : std::max(a.max, b.max);
  a.count += b.count;
  for (std::size_t i = 0; i < a.buckets.size(); ++i) a.buckets[i] += b.buckets[i];
}

}  // namespace fleetbench
