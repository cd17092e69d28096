// The rounds.  Each round sets up a fresh fleet through the public APIs
// (timed as set-up), drives one measured window of its workload, audits
// every result, and folds its observations into the run's Totals.
#include <poll.h>

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <unordered_set>

#include "bench.hpp"
#include "farm/farm.hpp"
#include "gate/client.hpp"
#include "gate/gateway.hpp"

namespace fleetbench {

namespace {

// Closed-loop window of the in-process workloads: the submitter keeps this
// many jobs outstanding (the scheduler's default affinity window), waiting
// for a result before it submits more.
constexpr std::size_t kOutstanding = 16;
// Most jobs one in-process round submits (a round also ends when its time
// budget runs out).  farm_distinct's post-LOAD snapshot pool grows by about
// 6 MB per job and is freed with the fleet at the end of a round.
constexpr std::size_t kDistinctRoundJobs = 150;
constexpr std::size_t kProgsRoundJobs = 1000;

constexpr std::size_t kInprocNodes = 3;
constexpr std::size_t kGateNodes = 2;
constexpr u32 kTenants = 256;
constexpr double kTenantZipf = 1.1;
// gate_open's program pool, spread over the two most popular catalog
// configurations so the two nodes mostly keep their images.  The pool is
// the same on every seed, like node_progs' kernels; the seed picks the
// arrivals.
constexpr std::size_t kPoolPrograms = 32;
constexpr unsigned kPoolConfigs = 2;
constexpr u64 kPoolSeed = 0x6a7e0be9;
// Offered load of gate_open: a little under half of the ~75/s its two
// nodes complete on this mix when driven flat out, which keeps queueing
// from amplifying a slower host into the latency medians, and still
// gives a 30 s run the 1000 samples a resolved p99 needs.
constexpr double kGateRate = 34.0;
// Resend interval of the gate_open client's per-tenant requests.
constexpr double kResendMs = 40.0;

la::farm::FarmConfig fleet_config(std::size_t nodes, bool traced) {
  la::farm::FarmConfig fc;
  fc.nodes = nodes;
  fc.tracing = traced;
  return fc;
}

/// The paper's offline pass over the configurations `jobs` use.
void pregenerate(la::farm::LiquidFarm& farm,
                 const std::vector<la::liquid::ArchConfig>& configs) {
  la::liquid::ConfigSpace space;
  space.dcache_sizes.clear();
  space.mul_latencies.clear();
  for (const la::liquid::ArchConfig& c : configs) {
    space.dcache_sizes.push_back(c.dcache_bytes);
    space.mul_latencies.push_back(c.mul_latency);
  }
  farm.pregenerate(space);
}

std::string job_name(const std::string& owner, u64 id) {
  return owner + " job " + std::to_string(id);
}

/// Check one in-process outcome's result against its job.
void audit_outcome(const la::farm::FarmJobOutcome& out, const BenchJob& b,
                   bool pin_cycles, Audit& audit) {
  const std::string who = job_name(out.owner, out.id);
  if (!out.result.ok) {
    audit.fail(who + " failed: " + out.result.error);
    return;
  }
  audit.check_words(b.program, b.expect, out.result.readback, who);
  if (pin_cycles) audit.check_cycles(b.program, out.result.cycles, who);
}

/// Run every distinct program once so its post-LOAD snapshot is in the
/// pool before timing starts; pins each program's cycles and readback.
void warm_up(la::farm::LiquidFarm& farm, const std::vector<BenchJob>& programs,
             Audit& audit) {
  std::unordered_map<u64, const BenchJob*> by_id;
  for (const BenchJob& b : programs) {
    la::farm::FarmJob job = b.job;
    job.owner = "warmup" + std::to_string(b.program);
    auto id = farm.submit(std::move(job));
    if (!id) {
      audit.fail("warm-up submit refused: " + id.error().to_string());
      continue;
    }
    by_id[*id] = &b;
  }
  farm.drain();
  while (auto out = farm.try_pop_result()) {
    const auto it = by_id.find(out->id);
    if (it == by_id.end()) continue;
    audit_outcome(*out, *it->second, true, audit);
  }
}

/// The spans of the measured window: everything logged after the first
/// `skip` spans (the warm-up's).
std::vector<la::trace::Span> measured_spans(const la::farm::LiquidFarm& farm,
                                            std::size_t skip) {
  std::vector<la::trace::Span> spans = farm.span_log().spans();
  spans.erase(spans.begin(), spans.begin() + static_cast<std::ptrdiff_t>(skip));
  return spans;
}

/// The fleet's job counters; waits for the fleet to go idle (and for every
/// node to have booted) first.
struct FleetCounters {
  u64 jobs = 0, rejected = 0, reconfigurations = 0, warm_starts = 0, picks = 0,
      affinity_hits = 0;
};

FleetCounters counters(la::farm::LiquidFarm& farm) {
  const la::farm::FarmReport rep = farm.report();
  const la::farm::FarmScheduler::Stats ss = farm.scheduler_stats();
  return {rep.jobs, rep.rejected, rep.reconfigurations, rep.warm_starts, ss.picks,
          ss.affinity_hits};
}

/// Fold the measured window's counters (now minus `before`) into `t`.
void fold_counters(la::farm::LiquidFarm& farm, const FleetCounters& before, Totals& t) {
  const FleetCounters now = counters(farm);
  t.farm_jobs += now.jobs - before.jobs;
  t.rejected += now.rejected - before.rejected;
  t.reconfigurations += now.reconfigurations - before.reconfigurations;
  t.warm_starts += now.warm_starts - before.warm_starts;
  t.picks += now.picks - before.picks;
  t.affinity_hits += now.affinity_hits - before.affinity_hits;
}

void fold_window(const RoundPlan& plan, double cpu_s, u64 jobs, Totals& t) {
  (plan.traced ? t.traced_cpu_s : t.untraced_cpu_s) += cpu_s;
  (plan.traced ? t.traced_jobs : t.untraced_jobs) += jobs;
}

}  // namespace

// ---- farm_distinct and node_progs ----------------------------------------

void run_inprocess_round(const RoundPlan& plan, Audit& audit, Totals& t) {
  const bool progs = plan.workload == Workload::kNodeProgs;
  const u64 seed = round_seed(plan.seed, plan.round);
  la::farm::LiquidFarm farm(fleet_config(kInprocNodes, plan.traced));
  audit.new_fleet();

  // Pre-assemble the round's job set: farm_distinct's distinct programs,
  // or node_progs' (kernel, configuration) pairs plus the order they run in.
  std::vector<BenchJob> jobs;
  std::vector<PairPick> picks;
  if (progs) {
    jobs = assemble_pairs(node_progs_kernels(FLEETBENCH_PROGS_DIR), t.assemble_ms);
    PairSource source(seed, jobs.size());
    for (std::size_t i = 0; i < kProgsRoundJobs; ++i) picks.push_back(source.next());
    pregenerate(farm, node_progs_configs());
    warm_up(farm, jobs, audit);
  } else {
    DistinctSource source(seed);
    for (std::size_t i = 0; i < kDistinctRoundJobs; ++i) {
      const Clock::time_point a0 = Clock::now();
      jobs.push_back(source.next());
      t.assemble_ms.add(ms_between(a0, Clock::now()));
    }
    pregenerate(farm, source.catalog());
  }
  if (t.probe_jobs.empty()) t.probe_jobs.assign(jobs.begin(), jobs.begin() + 10);
  const FleetCounters before = counters(farm);
  const std::size_t warm_spans = farm.span_log().size();
  const std::size_t n = progs ? picks.size() : jobs.size();
  const auto job_at = [&](std::size_t i) -> BenchJob& {
    return progs ? jobs[picks[i].pair] : jobs[i];
  };

  // The measured closed loop: submit while a slot is free and the round's
  // time budget lasts, then wait for a result.
  struct Pending {
    std::size_t index;
    double due_ms, accepted_ms;
  };
  std::unordered_map<u64, Pending> pending;
  std::map<std::string, u64> last_id;  // per-owner order
  std::deque<double> free_slots(kOutstanding, 0.0);
  const Clock::time_point t0 = Clock::now();
  const double cpu0 = process_cpu_s();
  t.setup_s.add(ms_between(plan.setup_start, t0) / 1e3);
  const auto now_ms = [&] { return ms_between(t0, Clock::now()); };
  const double budget_ms = plan.window_budget_s * 1e3;
  std::size_t next = 0, done = 0;
  double cycles = 0;
  for (;;) {
    while (!free_slots.empty() && next < n && now_ms() < budget_ms) {
      const double due = free_slots.front();
      free_slots.pop_front();
      la::farm::FarmJob job =
          progs ? job_at(next).job : std::move(job_at(next).job);
      if (progs) job.owner = picks[next].owner;
      const Clock::time_point s0 = Clock::now();
      auto id = farm.submit(std::move(job));
      const Clock::time_point s1 = Clock::now();
      t.submit_us.add(ms_between(s0, s1) * 1e3);
      if (!id) {
        audit.fail("submit refused: " + id.error().to_string());
        break;
      }
      const double accepted = ms_between(t0, s1);
      t.accept_ms.add(accepted - due);
      pending[*id] = {next++, due, accepted};
    }
    if (pending.empty()) break;
    auto out = farm.pop_result();
    if (!out) break;
    const double popped = now_ms();
    const auto it = pending.find(out->id);
    if (it == pending.end()) {
      audit.fail("result for unknown or already completed job " + std::to_string(out->id));
      continue;
    }
    const Pending p = it->second;
    pending.erase(it);
    ++done;
    free_slots.push_back(popped);
    t.job_ms.add(popped - p.accepted_ms);
    t.e2e_ms.add(popped - p.due_ms);
    if (!out->result.ok) ++t.job_failures;
    // Tracing adds a SET_TRACE exchange after each restore, which moves a
    // restored job's simulated cycles by a few from the warm-up's capture
    // run, so the cycle pin holds in untraced rounds only.
    audit_outcome(*out, job_at(p.index), progs && !plan.traced, audit);
    u64& last = last_id[out->owner];
    if (out->id <= last) audit.fail(job_name(out->owner, out->id) + " completed out of order");
    last = out->id;
    cycles += static_cast<double>(out->result.cycles);
  }
  const double window_s = now_ms() / 1e3;
  const double cpu_s = process_cpu_s() - cpu0;
  t.attempted += next;
  t.unfinished += pending.size();
  t.all_windows_s += window_s;

  fold_counters(farm, before, t);
  fold_window(plan, cpu_s, done, t);
  if (plan.traced) {
    t.phases.add(measured_spans(farm, warm_spans));
    t.traced_cycles += cycles;
  } else {
    t.completed += done;
    t.window_s += window_s;
    t.cpu_s += cpu_s;
    t.cycles += cycles;
  }
}

// ---- gate_open -----------------------------------------------------------

namespace {

/// One queued-or-in-flight submission of a tenant.
struct Submit {
  u64 request_id = 0;
  u32 index = 0;  // per-tenant submission number (the completion_seq audit)
  u32 program = 0;
  double due_ms = 0;
  bool sent = false;
};

struct Outstanding {
  u32 index = 0;
  u32 program = 0;
  double due_ms = 0, accepted_ms = 0;
};

struct Tenant {
  u64 token = 0;
  bool hello_ok = false;
  double resend_at = 0;
  std::deque<Submit> queue;  // per-tenant FIFO; the head may be in flight
  std::unordered_map<u64, Outstanding> outstanding;
  std::unordered_set<u64> reaped;  // completed request ids
  u32 submitted = 0;
  double next_poll = 0;
};

}  // namespace

void run_gate_round(const RoundPlan& plan, Audit& audit, Totals& t) {
  la::farm::LiquidFarm farm(fleet_config(kGateNodes, plan.traced));
  audit.new_fleet();
  // The fixed pool of small programs tenants submit: the same for every
  // round of a run, assembled afresh as part of each round's set-up.
  std::vector<BenchJob> pool;
  DistinctSource pool_source(kPoolSeed, kPoolConfigs);
  for (std::size_t i = 0; i < kPoolPrograms; ++i) {
    const Clock::time_point a0 = Clock::now();
    pool.push_back(pool_source.next());
    t.assemble_ms.add(ms_between(a0, Clock::now()));
  }
  std::vector<la::liquid::ArchConfig> configs;
  for (const BenchJob& b : pool) configs.push_back(b.job.config);
  pregenerate(farm, configs);
  warm_up(farm, pool, audit);
  const FleetCounters before = counters(farm);
  const std::size_t warm_spans = farm.span_log().size();

  la::gate::GateConfig gc;
  gc.tenants = kTenants;
  gc.secret_seed = plan.seed ^ 0x9e3779b97f4a7c15ull;
  la::gate::Gateway gw(farm, gc);
  la::gate::UdpSocket sock;
  if (!gw.start() || !sock.open()) {
    audit.fail("gateway or client socket failed to open");
    return;
  }
  la::gate::WanLink link(sock, gw.addr(), *la::net::wan_profile_by_name("lan"));

  std::vector<la::Bytes> wire(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    la::gate::JobWire w;
    w.config = pool[i].job.config;
    w.program = pool[i].job.program;
    w.result_addr = pool[i].job.result_addr;
    w.result_words = pool[i].job.result_words;
    wire[i] = w.serialize();
  }
  const std::vector<Arrival> arrivals =
      poisson_arrivals(round_seed(plan.seed, plan.round), kGateRate,
                       plan.window_budget_s, kTenants, kTenantZipf, pool.size());

  std::vector<Tenant> tenants(kTenants);
  std::unordered_map<u64, u32> by_token;
  for (u32 i = 0; i < kTenants; ++i) {
    tenants[i].token = gw.tenants().token_of(i);
    by_token.emplace(tenants[i].token, i);
  }

  const Clock::time_point base = Clock::now();
  const auto now_ms = [&] { return ms_between(base, Clock::now()); };
  const auto send = [&](la::gate::GateKind kind, const Tenant& tn, u64 rid,
                        la::Bytes payload) {
    link.send(la::gate::make_request(kind, tn.token, rid, std::move(payload)).serialize());
  };
  // Sleep until the socket is readable or `ms` (at most 1 ms) passes.
  const auto wait_socket = [&](double ms) {
    pollfd pfd{sock.fd(), POLLIN, 0};
    const timespec ts{0, static_cast<long>(std::clamp(ms, 0.0, 1.0) * 1e6)};
    ::ppoll(&pfd, 1, &ts, nullptr);
  };

  // HELLO every tenant before timing starts.
  u32 hellos = 0;
  for (double deadline = now_ms() + 10'000; hellos < kTenants && now_ms() < deadline;) {
    while (auto bytes = link.poll_recv()) {
      const auto f = la::gate::GateFrame::parse(*bytes);
      if (!f || f->kind != la::gate::GateKind::kHelloOk) continue;
      const auto it = by_token.find(f->token);
      if (it != by_token.end() && !tenants[it->second].hello_ok) {
        tenants[it->second].hello_ok = true;
        ++hellos;
      }
    }
    const double now = now_ms();
    for (Tenant& tn : tenants) {
      if (!tn.hello_ok && now >= tn.resend_at) {
        send(la::gate::GateKind::kHello, tn, 1, {});
        tn.resend_at = now + kResendMs;
      }
    }
    wait_socket(1);
  }
  if (hellos < kTenants) {
    audit.fail("only " + std::to_string(hellos) + " tenants opened a session");
    return;
  }

  // The measured open loop: arrival due times count from t0.
  const double t0 = now_ms() + 1.0;
  while (now_ms() < t0) {
  }
  const double cpu0 = process_cpu_s();
  t.setup_s.add(ms_between(plan.setup_start, base) / 1e3 + t0 / 1e3);
  const double deadline = t0 + plan.window_budget_s * 1000 + 60'000;
  std::size_t next_arrival = 0;
  u64 completed = 0, job_failures = 0;
  double last_result = t0;
  double cycles = 0;

  const auto handle = [&](const la::gate::GateFrame& f, double now) {
    const auto bit = by_token.find(f.token);
    if (bit == by_token.end()) return;
    Tenant& tn = tenants[bit->second];
    const std::string who = "tenant " + std::to_string(bit->second) + " request " +
                            std::to_string(f.request_id & 0xffffffffu);
    const auto accept_head = [&] {
      const Submit head = tn.queue.front();
      tn.queue.pop_front();
      t.accept_ms.add(now - head.due_ms);
      tn.outstanding[head.request_id] = {head.index, head.program, head.due_ms, now};
      tn.resend_at = now;  // the next queued submit may go at once
      tn.next_poll = now + 4 * kResendMs;
    };
    switch (f.kind) {
      case la::gate::GateKind::kRetryAfter: {
        if (tn.queue.empty() || tn.queue.front().request_id != f.request_id) return;
        u32 wait = 5;
        if (const auto ra = la::gate::RetryAfterWire::parse(f.payload)) {
          wait = std::min(ra->retry_after_ms, 250u);
        }
        tn.resend_at = now + wait;
        return;
      }
      case la::gate::GateKind::kAccepted:
        if (!tn.queue.empty() && tn.queue.front().request_id == f.request_id) accept_head();
        return;
      case la::gate::GateKind::kResult: {
        const auto r = la::gate::ResultWire::parse(f.payload);
        if (!r) {
          audit.fail(who + ": unparseable result");
          return;
        }
        if (r->status == la::gate::ResultWire::kPending) return;
        // The result can also answer the head when its kAccepted was lost.
        if (!tn.queue.empty() && tn.queue.front().request_id == f.request_id) accept_head();
        const auto oit = tn.outstanding.find(f.request_id);
        if (oit == tn.outstanding.end()) {
          if (!tn.reaped.count(f.request_id)) audit.fail(who + ": result for a request never made");
          return;  // else a repeated push of an audited result
        }
        const Outstanding o = oit->second;
        tn.outstanding.erase(oit);
        tn.reaped.insert(f.request_id);
        if (r->completion_seq != o.index) {
          audit.fail(who + ": completion_seq " + std::to_string(r->completion_seq) +
                     " != submission index " + std::to_string(o.index));
        }
        ++completed;
        if (r->status != la::gate::ResultWire::kDone) {
          ++job_failures;
          audit.fail(who + " failed: " + r->error);
        } else {
          audit.check_words(o.program, pool[o.program].expect, r->words, who);
        }
        t.job_ms.add(now - o.accepted_ms);
        t.e2e_ms.add(now - o.due_ms);
        cycles += static_cast<double>(audit.cycles_of(o.program));
        last_result = now;
        return;
      }
      default:
        return;
    }
  };

  while (completed < arrivals.size()) {
    double now = now_ms();
    if (now >= deadline) break;
    while (auto bytes = link.poll_recv()) {
      if (const auto f = la::gate::GateFrame::parse(*bytes)) handle(*f, now_ms());
    }
    now = now_ms();
    // Arrivals that have come due join their tenant's FIFO.
    while (next_arrival < arrivals.size() && t0 + arrivals[next_arrival].due_ms <= now) {
      const Arrival& a = arrivals[next_arrival++];
      Tenant& tn = tenants[a.tenant];
      Submit s;
      s.index = tn.submitted++;
      s.request_id = (static_cast<u64>(a.tenant) << 32) | (s.index + 2);
      s.program = a.program;
      s.due_ms = t0 + a.due_ms;
      t.gen_late_ms.add(now - s.due_ms);
      tn.queue.push_back(s);
    }
    // Send each tenant's head submit (again, when its answer is overdue),
    // and poll for results whose push was lost.
    for (Tenant& tn : tenants) {
      if (!tn.queue.empty() && now >= tn.resend_at) {
        Submit& head = tn.queue.front();
        if (head.sent) ++t.resends;
        head.sent = true;
        send(la::gate::GateKind::kSubmit, tn, head.request_id, wire[head.program]);
        tn.resend_at = now + kResendMs;
      }
      if (!tn.outstanding.empty() && now >= tn.next_poll) {
        u64 oldest = 0;
        u32 oldest_index = ~0u;
        for (const auto& [rid, o] : tn.outstanding) {
          if (o.index < oldest_index) {
            oldest_index = o.index;
            oldest = rid;
          }
        }
        send(la::gate::GateKind::kPoll, tn, oldest, {});
        tn.next_poll = now + 4 * kResendMs;
      }
    }
    const double until_due = next_arrival < arrivals.size()
                                 ? t0 + arrivals[next_arrival].due_ms - now_ms()
                                 : 1.0;
    if (until_due > 0.05) wait_socket(until_due);
  }
  const double window_s = (last_result - t0) / 1e3;
  const double cpu_s = process_cpu_s() - cpu0;
  const u64 unfinished = arrivals.size() - completed;
  t.attempted += arrivals.size();
  t.job_failures += job_failures;
  t.unfinished += unfinished;
  t.all_windows_s += window_s;

  gw.stop();
  const la::metrics::Snapshot gm = gw.final_metrics();
  for (const auto& [name, v] : gm.values) t.gate[name] += v;
  if (const auto h = gm.histograms.find("gate.job_ms"); h != gm.histograms.end()) {
    merge_histogram(t.gate_job_ms, h->second);
  }
  fold_counters(farm, before, t);
  fold_window(plan, cpu_s, completed, t);
  if (t.probe_jobs.empty()) t.probe_jobs.assign(pool.begin(), pool.begin() + 10);
  if (plan.traced) {
    t.phases.add(measured_spans(farm, warm_spans));
    t.traced_cycles += cycles;
  } else {
    t.completed += completed;
    t.window_s += window_s;
    t.cpu_s += cpu_s;
    t.cycles += cycles;
  }
  if (unfinished > 0) audit.fail(std::to_string(unfinished) + " jobs unfinished at the deadline");
}

}  // namespace fleetbench
