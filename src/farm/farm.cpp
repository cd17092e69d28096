#include "farm/farm.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/stats.hpp"

namespace la::farm {

namespace {

/// Shared bitfile store capacity (count; 0 = unlimited).
constexpr std::size_t kCacheCapacity = 0;
/// Simulated seconds charged to the faulting node per retry, doubling
/// with each attempt (capped at 16x) — the operator's pause before
/// kicking hardware that just misbehaved.
constexpr double kRetryBackoffSeconds = 0.05;

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

const char* to_string(NodeHealth h) {
  switch (h) {
    case NodeHealth::kHealthy:
      return "healthy";
    case NodeHealth::kQuarantined:
      return "quarantined";
    case NodeHealth::kRecovering:
      return "recovering";
  }
  return "?";
}

LiquidFarm::LiquidFarm(FarmConfig cfg)
    : cfg_(std::move(cfg)), cache_(kCacheCapacity), sched_(cfg_.scheduler) {
  if (cfg_.nodes == 0) cfg_.nodes = 1;
  liquid::ServerConfig server_cfg = cfg_.server;
  server_cfg.bridge_cache_metrics = false;  // bridged once, fleet-level
  workers_.reserve(cfg_.nodes);
  for (std::size_t i = 0; i < cfg_.nodes; ++i) {
    auto w = std::make_unique<Worker>();
    w->index = i;
    sim::SystemConfig node_cfg = cfg_.node_template;
    node_cfg.node_ip = cfg_.node_template.node_ip + static_cast<u32>(i);
    w->node = std::make_unique<sim::LiquidSystem>(node_cfg);
    w->server = std::make_unique<liquid::ReconfigurationServer>(
        *w->node, cache_, syn_, server_cfg);
    // One warm-start snapshot pool across the fleet's servers: the first
    // node to boot an architecture (or load a program under it) donates a
    // snapshot, and every later affinity miss restores it instead of
    // simulating the boot / chunked network load.
    w->server->set_warm_pool(&warm_pool_);
    w->current_key = w->server->current().key();
    if (cfg_.tracing) {
      const u32 pid = static_cast<u32>(i) + 1;  // process lane: node i
      span_log_.set_process_name(pid, "node " + std::to_string(i));
      span_log_.set_thread_name(pid, 1, "worker " + std::to_string(i));
    }
    workers_.push_back(std::move(w));
  }
  started_ = cfg_.autostart;
  for (auto& w : workers_) {
    w->thread = std::thread([this, worker = w.get()] { worker_loop(*worker); });
  }
}

LiquidFarm::~LiquidFarm() { shutdown(); }

void LiquidFarm::start() {
  const std::lock_guard<std::mutex> lk(mu_);
  if (!started_) {
    started_ = true;
    cv_work_.notify_all();
  }
}

Result<u64> LiquidFarm::submit(FarmJob job, bool wake) {
  const std::lock_guard<std::mutex> lk(mu_);
  if (shutdown_) return FarmError{FarmErrorKind::kShuttingDown, {}};
  if (cfg_.tracing && !job.trace.valid()) {
    // The trace is born where the job enters the system; queue-wait
    // measures from this stamp.
    job.trace = span_log_.mint();
    job.submitted_us = span_log_.now_us();
  }
  Result<u64> admitted = sched_.enqueue(std::move(job));
  if (admitted && wake) cv_work_.notify_all();
  return admitted;
}

void LiquidFarm::wake() {
  const std::lock_guard<std::mutex> lk(mu_);
  cv_work_.notify_all();
}

void LiquidFarm::set_result_listener(std::function<void()> fn) {
  const std::lock_guard<std::mutex> lk(mu_);
  result_listener_ = std::move(fn);
}

std::optional<FarmJobOutcome> LiquidFarm::try_pop_result() {
  const std::lock_guard<std::mutex> lk(mu_);
  if (results_.empty()) return std::nullopt;
  FarmJobOutcome out = std::move(results_.front());
  results_.pop_front();
  return out;
}

std::optional<FarmJobOutcome> LiquidFarm::pop_result() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_results_.wait(lk, [&] {
    return !results_.empty() || shutdown_ || sched_.idle();
  });
  if (results_.empty()) return std::nullopt;
  FarmJobOutcome out = std::move(results_.front());
  results_.pop_front();
  return out;
}

void LiquidFarm::drain() {
  start();  // a paused farm can never drain
  std::unique_lock<std::mutex> lk(mu_);
  // Idle, not just an empty queue: a node benched by the last job is still
  // being RESTART-probed by its worker, which must be done with the node
  // before the caller may touch it again (node_for_setup).
  cv_results_.wait(lk, [&] { return shutdown_ || fleet_idle_locked(); });
}

void LiquidFarm::shutdown() {
  {
    // Idempotent: a second call finds every thread already joined.
    const std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
    cv_work_.notify_all();
    cv_results_.notify_all();
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

double LiquidFarm::pregenerate(const liquid::ConfigSpace& space) {
  return cache_.pregenerate(space, syn_);
}

std::vector<u64> LiquidFarm::plan(std::size_t node) const {
  const std::lock_guard<std::mutex> lk(mu_);
  return sched_.plan(workers_.at(node)->current_key);
}

FarmScheduler::Stats LiquidFarm::scheduler_stats() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return sched_.stats();
}

bool LiquidFarm::fleet_idle_locked() const {
  if (!sched_.idle()) return false;
  if (started_) {
    for (const auto& w : workers_) {
      if (!w->ready) return false;  // still booting: owns its node
      // A benched node is still healing itself (owns its node); idle
      // means every survivor is back in rotation.
      if (w->health != NodeHealth::kHealthy) return false;
    }
  }
  return true;
}

void LiquidFarm::recover_node(Worker& w) {
  // Drive the §4.1 recovery path on the worker's own thread: RESTART the
  // node, let the reset settle, and only rejoin the fleet once the control
  // state machine answers idle again.  A node that stays wedged keeps
  // being probed (with run() between probes so simulated time — and any
  // until-cycle fault — can pass) until it heals or the farm shuts down.
  for (;;) {
    {
      const std::lock_guard<std::mutex> lk(mu_);
      if (shutdown_) return;
    }
    ctrl::LiquidClient probe(*w.node, cfg_.server.client);
    if (probe.restart()) {
      w.node->run(300);  // reset boot back to the polling loop
      const auto st = probe.status();
      if (st && st->state == net::LeonState::kIdle) {
        // Soak before rejoining: run the node a while and re-probe, so a
        // fault that survives RESTART (or re-arms shortly after) is caught
        // here instead of by the next job.  The soak also keeps a freshly
        // benched node out of the pick race for a moment, letting healthy
        // nodes drain its requeued work (migration over re-poisoning).
        w.node->run(100'000);
        const auto again = probe.status();
        if (again && again->state == net::LeonState::kIdle) break;
      }
    }
    w.node->run(5'000);  // breathing room before the next probe
  }
  const std::lock_guard<std::mutex> lk(mu_);
  w.health = NodeHealth::kHealthy;
  w.current_key = w.server->current().key();
  cv_work_.notify_all();
  cv_results_.notify_all();  // report()/drain() may be waiting on health
}

void LiquidFarm::worker_loop(Worker& w) {
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_work_.wait(lk, [&] { return started_ || shutdown_; });
    if (shutdown_) return;
  }
  // Boot the node to the ROM's mailbox-polling loop before taking work.
  w.node->run(100);
  {
    const std::lock_guard<std::mutex> lk(mu_);
    w.ready = true;
    cv_results_.notify_all();
  }
  for (;;) {
    FarmJob job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      for (;;) {
        if (shutdown_) return;
        if (w.health == NodeHealth::kQuarantined) {
          w.health = NodeHealth::kRecovering;
          break;
        }
        // Retry avoidance needs to know if any *other* healthy node could
        // take a job this one just failed; if so, leave that job for them.
        bool others_healthy = false;
        for (const auto& other : workers_) {
          if (other->index != w.index && other->ready &&
              other->health == NodeHealth::kHealthy) {
            others_healthy = true;
            break;
          }
        }
        auto picked = sched_.pick(w.current_key, w.index, others_healthy);
        if (picked.has_value()) {
          job = std::move(*picked);
          // A retried job landing on a different node than its last
          // attempt is a migration — the drain-on-fault path working.
          if (!job.node_history.empty() && job.node_history.back() != w.index) {
            ++migrations_;
          }
          break;
        }
        cv_work_.wait(lk);
      }
    }
    if (w.health == NodeHealth::kRecovering) {
      recover_node(w);
      continue;
    }

    // The job's span-emission handle: node lane = index + 1, worker tid 1.
    trace::JobTrace jt;
    if (job.trace.valid()) {
      jt.log = &span_log_;
      jt.ctx = job.trace;
      jt.pid = static_cast<u32>(w.index) + 1;
      jt.tid = 1;
      jt.phase("queue_wait", job.submitted_us, span_log_.now_us());
      if (!job.node_history.empty() && job.node_history.back() != w.index) {
        const double now = span_log_.now_us();
        jt.phase("migrate", now, now, w.node->now(), w.node->now(),
                 "retry " + std::to_string(job.attempts) + " from node " +
                     std::to_string(job.node_history.back()));
      }
    }

    const auto t0 = std::chrono::steady_clock::now();
    liquid::JobResult r =
        w.server->run_job(job.config, job.program, job.result_addr,
                          job.result_words, nullptr, jt);
    const double host = seconds_between(t0, std::chrono::steady_clock::now());

    {
      const std::lock_guard<std::mutex> lk(mu_);
      job.attempts += 1;
      job.node_history.push_back(w.index);
      w.current_key = w.server->current().key();
      ++w.jobs;
      if (!r.ok) ++w.failures;
      if (r.reconfigured) ++w.reconfigurations;
      if (r.bitfile_cache_hit) ++w.bitfile_hits;
      const double wall = r.wall_seconds();
      w.busy_seconds += wall;
      host_seconds_ += host;

      // Drain-on-fault: a node-fault failure benches this node either way;
      // the job itself goes back to the head of the queue while retry
      // budget remains, preserving per-owner order (see requeue()).
      const bool bench = !r.ok && r.node_fault;
      if (bench) {
        w.health = NodeHealth::kQuarantined;
        ++w.quarantines;
      }
      if (bench && job.attempts <= cfg_.max_job_retries) {
        ++retries_;
        // The operator's pause before the next attempt, doubling per
        // attempt: simulated time, charged to the node that faulted.
        const unsigned shift = std::min(job.attempts - 1, 4u);
        w.busy_seconds +=
            kRetryBackoffSeconds * static_cast<double>(1u << shift);
        if (jt.active()) {
          const double now = span_log_.now_us();
          jt.phase("retry", now, now, w.node->now(), w.node->now(),
                   "attempt " + std::to_string(job.attempts) +
                       " failed on node " + std::to_string(w.index) + ": " +
                       r.error);
        }
        sched_.requeue(std::move(job));
        cv_work_.notify_all();  // a healthy node can take the retry now
        cv_results_.notify_all();
        continue;
      }

      sched_.complete(job.owner);
      wall_samples_.push_back(wall);  // latency sample per delivered job
      if (jt.active()) {
        // The root span covers the whole journey, submission to final
        // delivery — one per job, not one per retried execution.
        jt.root(job.submitted_us, span_log_.now_us(), w.node->now(),
                job.owner + " " + job.config.key() +
                    (r.ok ? "" : " FAILED: " + r.error));
      }
      FarmJobOutcome out;
      out.id = job.id;
      out.owner = std::move(job.owner);
      out.config_key = job.config.key();
      out.node = w.index;
      out.trace_id = job.trace.trace_id;
      out.attempts = job.attempts;
      out.node_history = std::move(job.node_history);
      if (!r.ok && w.node->flight_recorder() != nullptr) {
        // Post-mortem rides along with the failure: prefer the automatic
        // error-transition dump (it froze the ring at the moment of
        // death), fall back to a fresh one.
        out.flight_dump = w.node->last_flight_dump();
        if (out.flight_dump.empty()) {
          out.flight_dump = w.node->take_flight_dump("job_failed");
        }
      }
      out.result = std::move(r);
      results_.push_back(std::move(out));
      if (result_listener_) result_listener_();
      cv_work_.notify_all();  // completing frees this job's owner
      cv_results_.notify_all();
    }
  }
}

FarmReport LiquidFarm::report() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_results_.wait(lk, [&] { return shutdown_ || fleet_idle_locked(); });

  FarmReport rep;
  metrics::MetricsRegistry fleet;
  for (const auto& w : workers_) {
    rep.jobs += w->jobs;
    rep.failures += w->failures;
    rep.reconfigurations += w->reconfigurations;
    rep.bitfile_hits += w->bitfile_hits;
    rep.total_busy_seconds += w->busy_seconds;
    rep.makespan_seconds = std::max(rep.makespan_seconds, w->busy_seconds);
    rep.warm_starts += w->server->stats().warm_starts;
    FarmReport::Node n;
    n.index = w->index;
    n.jobs = w->jobs;
    n.failures = w->failures;
    n.reconfigurations = w->reconfigurations;
    n.quarantines = w->quarantines;
    n.health = w->health;
    n.busy_seconds = w->busy_seconds;
    n.config_key = w->current_key;
    rep.nodes.push_back(std::move(n));
    fleet.merge_from(w->node->metrics());
  }
  rep.rejected = sched_.stats().rejected;
  rep.affinity_hits = sched_.stats().affinity_hits;
  rep.retries = retries_;
  rep.migrations = migrations_;
  rep.host_seconds = host_seconds_;
  if (rep.makespan_seconds > 0.0) {
    rep.jobs_per_second =
        static_cast<double>(rep.jobs) / rep.makespan_seconds;
  }
  std::vector<double> sorted = wall_samples_;
  std::sort(sorted.begin(), sorted.end());
  rep.p50_wall_seconds = nearest_rank_percentile(sorted, 0.50);
  rep.p95_wall_seconds = nearest_rank_percentile(sorted, 0.95);
  rep.p99_wall_seconds = nearest_rank_percentile(sorted, 0.99);

  // The shared bitfile store, bridged once at fleet level (per-node
  // bridging would multiply-count it in the merge).
  const liquid::ReconfigurationCache::Stats cs = cache_.stats();
  fleet.gauge("reconfig_cache.hits").set(static_cast<double>(cs.hits));
  fleet.gauge("reconfig_cache.misses").set(static_cast<double>(cs.misses));
  fleet.gauge("reconfig_cache.evictions")
      .set(static_cast<double>(cs.evictions));
  fleet.gauge("reconfig_cache.failed_synth")
      .set(static_cast<double>(cs.failed_synth));
  fleet.gauge("reconfig_cache.synth_seconds").set(cs.synth_seconds);
  fleet.gauge("reconfig_cache.size").set(static_cast<double>(cache_.size()));
  // The shared warm-start pool, likewise once per fleet.
  const sim::SnapshotPool::Stats ps = warm_pool_.stats();
  fleet.gauge("snapshot_pool.entries")
      .set(static_cast<double>(warm_pool_.size()));
  fleet.gauge("snapshot_pool.bytes")
      .set(static_cast<double>(warm_pool_.bytes()));
  fleet.gauge("snapshot_pool.hits").set(static_cast<double>(ps.hits));
  fleet.gauge("snapshot_pool.misses").set(static_cast<double>(ps.misses));
  fleet.gauge("snapshot_pool.evictions")
      .set(static_cast<double>(ps.evictions));

  fleet.counter("farm.nodes").inc(workers_.size());
  fleet.counter("farm.jobs").inc(rep.jobs);
  fleet.counter("farm.failures").inc(rep.failures);
  fleet.counter("farm.reconfigurations").inc(rep.reconfigurations);
  fleet.counter("farm.bitfile_hits").inc(rep.bitfile_hits);
  fleet.counter("farm.rejected").inc(rep.rejected);
  fleet.counter("farm.affinity_hits").inc(rep.affinity_hits);
  fleet.counter("farm.retries").inc(rep.retries);
  fleet.counter("farm.migrations").inc(rep.migrations);
  fleet.counter("farm.warm_starts").inc(rep.warm_starts);
  fleet.gauge("farm.makespan_seconds").set(rep.makespan_seconds);
  fleet.gauge("farm.total_busy_seconds").set(rep.total_busy_seconds);
  fleet.gauge("farm.jobs_per_second").set(rep.jobs_per_second);
  fleet.gauge("farm.host_seconds").set(rep.host_seconds);
  fleet.gauge("farm.wall_seconds.p50").set(rep.p50_wall_seconds);
  fleet.gauge("farm.wall_seconds.p95").set(rep.p95_wall_seconds);
  fleet.gauge("farm.wall_seconds.p99").set(rep.p99_wall_seconds);
  metrics::Histogram& h = fleet.histogram("farm.wall_seconds");
  for (const double s : wall_samples_) h.observe(s);

  // Per-phase host-microsecond latency distributions from the span log
  // (queue_wait, synthesis, reconfigure, load, run, readback, ...), with
  // nearest-rank p50/p95/p99 gauges alongside.
  if (cfg_.tracing) {
    span_log_.observe_phase_latencies(fleet, "farm.phase.");
  }

  rep.fleet = fleet.snapshot();
  return rep;
}

std::string FarmReport::text() const {
  char buf[256];
  std::string s;
  std::snprintf(buf, sizeof(buf),
                "fleet: %zu nodes, %llu jobs (%llu failed, %llu rejected)\n",
                nodes.size(), static_cast<unsigned long long>(jobs),
                static_cast<unsigned long long>(failures),
                static_cast<unsigned long long>(rejected));
  s += buf;
  std::snprintf(buf, sizeof(buf),
                "reconfigurations: %llu (affinity spared %llu dispatches); "
                "bitfile hits: %llu\n",
                static_cast<unsigned long long>(reconfigurations),
                static_cast<unsigned long long>(affinity_hits),
                static_cast<unsigned long long>(bitfile_hits));
  s += buf;
  std::snprintf(buf, sizeof(buf),
                "self-healing: %llu retries, %llu migrations, "
                "%llu warm starts\n",
                static_cast<unsigned long long>(retries),
                static_cast<unsigned long long>(migrations),
                static_cast<unsigned long long>(warm_starts));
  s += buf;
  std::snprintf(buf, sizeof(buf),
                "simulated makespan: %.3f s  throughput: %.2f jobs/s  "
                "(host cpu: %.2f s)\n",
                makespan_seconds, jobs_per_second, host_seconds);
  s += buf;
  std::snprintf(buf, sizeof(buf),
                "latency wall-seconds: p50 %.4f  p95 %.4f  p99 %.4f\n",
                p50_wall_seconds, p95_wall_seconds, p99_wall_seconds);
  s += buf;
  for (const auto& n : nodes) {
    std::snprintf(buf, sizeof(buf),
                  "  node %zu: %llu jobs, %llu reconfigs, busy %.3f s, "
                  "loaded %s [%s, %llu quarantines]\n",
                  n.index, static_cast<unsigned long long>(n.jobs),
                  static_cast<unsigned long long>(n.reconfigurations),
                  n.busy_seconds, n.config_key.c_str(), to_string(n.health),
                  static_cast<unsigned long long>(n.quarantines));
    s += buf;
  }
  return s;
}

}  // namespace la::farm
