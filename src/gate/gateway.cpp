#include "gate/gateway.hpp"

#include <algorithm>

#include "gate/jobwire.hpp"

namespace la::gate {

namespace {

// The loop's epoll timeout.  Results and stop() wake the loop through
// wake_, so the timeout only paces session GC, yet the loop still wakes
// every millisecond: on a 4-vCPU VM, blocking until traffic instead cut
// fleetbench gate_open's cpu ms/job by 23-26% but raised its accept p50
// by 13% and 26% in two sets of 6 parent/change pairs.
constexpr int kWaitMs = 1;

Bytes u64_payload(u64 v) {
  ByteWriter w;
  w.write_u32(static_cast<u32>(v >> 32));
  w.write_u32(static_cast<u32>(v));
  return w.take();
}

}  // namespace

Gateway::Gateway(farm::LiquidFarm& farm, GateConfig cfg)
    : farm_(farm),
      cfg_(std::move(cfg)),
      dir_(cfg_.secret_seed, cfg_.tenants, cfg_.quota) {
  epoll_.add_read(wake_.fd());
}

Gateway::~Gateway() { stop(); }

bool Gateway::start() {
  if (running_) return true;
  if (!epoll_.valid() || !wake_.valid()) return false;
  if (!sock_.bind(cfg_.bind_ip, cfg_.port)) return false;
  if (!epoll_.add_read(sock_.fd())) {
    sock_.close();
    return false;
  }
  addr_ = sock_.local_addr();
  stop_ = false;
  farm_.set_result_listener([this] { wake_.signal(); });
  running_ = true;
  thread_ = std::thread([this] { run_(); });
  return true;
}

void Gateway::stop() {
  if (!running_) return;
  stop_ = true;
  wake_.signal();
  thread_.join();
  // The listener runs under the farm lock, so once this returns no worker
  // is still signalling wake_, and the gateway may go away.
  farm_.set_result_listener({});
  running_ = false;
  sock_.close();
}

void Gateway::run_() {
  double last_gc_ms = steady_now_ms();
  while (!stop_) {
    // Wake on traffic, on a queued result, on stop() or after kWaitMs.
    // Clearing wake_ before drain_farm_() below means a result queued
    // from here on signals it again.
    for (const int fd : epoll_.wait(kWaitMs)) {
      if (fd == wake_.fd()) wake_.clear();
    }
    SockAddr from;
    while (auto dgram = sock_.recv_from(&from)) {
      handle_datagram_(from, *dgram);
    }
    // Every kAccepted is on the wire: only now start the admitted work, so
    // a woken worker cannot preempt this thread ahead of those replies.
    if (admitted_) {
      farm_.wake();
      admitted_ = false;
    }
    drain_farm_();
    const double now = steady_now_ms();
    if (now - last_gc_ms > 1000.0) {
      gc_sessions_(now);
      last_gc_ms = now;
    }
  }
  drain_farm_();  // deliver what already finished before the stop
  metrics_.gauge("gate.sessions").set(static_cast<double>(sessions_.size()));
}

void Gateway::handle_datagram_(const SockAddr& from, const Bytes& data) {
  metrics_.counter("gate.rx_frames").inc();
  const auto frame = GateFrame::parse(data);
  if (!frame) {
    // Unparseable datagrams get no answer: there is no checksum-verified
    // request id to echo, and answering line noise invites amplification.
    metrics_.counter("gate.rx_bad").inc();
    return;
  }
  const GateFrame& f = *frame;
  switch (f.kind) {
    case GateKind::kHello:
      handle_hello_(from, f);
      return;
    case GateKind::kGateStats:
      handle_stats_(from, f);
      return;
    case GateKind::kSubmit:
    case GateKind::kPoll:
    case GateKind::kBye:
      break;  // session commands, resolved below
    default:
      // A response kind arriving at the gateway is a confused client.
      metrics_.counter("gate.errors").inc();
      send_error_(from, f, err::kUnknownKind);
      return;
  }
  if (!dir_.authenticate(f.token)) {
    metrics_.counter("gate.errors").inc();
    send_error_(from, f, err::kBadToken);
    return;
  }
  const auto it = sessions_.find(f.token);
  if (it == sessions_.end()) {
    metrics_.counter("gate.errors").inc();
    send_error_(from, f, err::kNoSession);
    return;
  }
  Session& s = it->second;
  s.last_addr = from;
  s.last_seen_ms = steady_now_ms();
  switch (f.kind) {
    case GateKind::kSubmit: handle_submit_(from, f, s); return;
    case GateKind::kPoll: handle_poll_(from, f, s); return;
    case GateKind::kBye: handle_bye_(from, f, s); return;
    default: return;  // unreachable
  }
}

void Gateway::handle_hello_(const SockAddr& from, const GateFrame& f) {
  const auto tenant = dir_.authenticate(f.token);
  if (!tenant) {
    metrics_.counter("gate.errors").inc();
    send_error_(from, f, err::kBadToken);
    return;
  }
  const double now = steady_now_ms();
  auto [it, created] = sessions_.try_emplace(f.token);
  Session& s = it->second;
  if (created) {
    // A re-HELLO (retransmit or reconnect) keeps the existing session:
    // dedup tables and quota must survive the client's retry loop.
    s.tenant = dir_.name_of(*tenant);
    s.quota = dir_.quota();
    s.bucket = TokenBucket(s.quota.rate_per_sec, s.quota.burst, now);
    metrics_.counter("gate.sessions_opened").inc();
  }
  s.last_addr = from;
  s.last_seen_ms = now;
  metrics_.counter("gate.hello").inc();
  HelloOkWire ok;
  ok.quota_remaining = s.quota.jobs_total - s.jobs_submitted;
  ok.max_inflight = s.quota.max_inflight;
  ok.rate_per_sec = s.quota.rate_per_sec;
  ok.burst = s.quota.burst;
  send_(from, GateKind::kHelloOk, f, ok.serialize());
}

void Gateway::handle_submit_(const SockAddr& from, const GateFrame& f,
                             Session& s) {
  metrics_.counter("gate.submits").inc();
  // Dedup before everything that has a side effect or spends a token:
  // a retransmitted submit must cost nothing and change nothing.
  if (const ResultWire* done = s.find_done(f.request_id)) {
    metrics_.counter("gate.dup_submits").inc();
    send_(from, GateKind::kResult, f, done->serialize());
    return;
  }
  if (const auto job_id = s.find_accept(f.request_id)) {
    metrics_.counter("gate.dup_submits").inc();
    send_(from, GateKind::kAccepted, f, u64_payload(*job_id));
    return;
  }
  const double now = steady_now_ms();
  if (!s.bucket.try_take(now)) {
    metrics_.counter("gate.retry_after.rate").inc();
    send_retry_(from, f, retry::kRateLimited,
                std::max<u32>(1, s.bucket.ms_until_token(now)));
    return;
  }
  if (s.inflight >= s.quota.max_inflight) {
    metrics_.counter("gate.retry_after.busy").inc();
    send_retry_(from, f, retry::kTenantBusy, cfg_.retry_floor_ms + 5);
    return;
  }
  if (s.jobs_submitted >= s.quota.jobs_total) {
    metrics_.counter("gate.errors").inc();
    send_error_(from, f, err::kQuotaExceeded);
    return;
  }
  const auto wire = JobWire::parse(f.payload);
  if (!wire) {
    metrics_.counter("gate.errors").inc();
    send_error_(from, f, err::kBadPayload);
    return;
  }
  farm::FarmJob job;
  job.owner = s.tenant;
  job.config = wire->config;
  job.program = wire->program;
  job.result_addr = wire->result_addr;
  job.result_words = wire->result_words;
  if (f.trace_id != 0) {
    // The tenant's trace context crosses the wire into the farm's span
    // log: the gateway minted span parents the job's farm-side phases.
    job.trace.trace_id = f.trace_id;
    job.trace.span_id = trace::mix64(++span_counter_);
    job.trace.parent_span_id = f.span_id;
    job.submitted_us = farm_.span_log().now_us();
  }
  auto admitted = farm_.submit(std::move(job), /*wake=*/false);
  if (!admitted) {
    const farm::FarmError& e = admitted.error();
    switch (e.kind) {
      case farm::FarmErrorKind::kSaturated:
        metrics_.counter("gate.retry_after.farm").inc();
        send_retry_(from, f, retry::kFarmSaturated,
                    std::max(cfg_.retry_floor_ms, e.retry_after_hint_ms));
        return;
      case farm::FarmErrorKind::kOwnerSaturated:
        metrics_.counter("gate.retry_after.busy").inc();
        send_retry_(from, f, retry::kTenantBusy,
                    std::max(cfg_.retry_floor_ms, e.retry_after_hint_ms));
        return;
      case farm::FarmErrorKind::kShuttingDown:
        metrics_.counter("gate.errors").inc();
        send_error_(from, f, err::kShuttingDown);
        return;
      case farm::FarmErrorKind::kInvalidConfig:
        metrics_.counter("gate.errors").inc();
        send_error_(from, f, err::kBadPayload);
        return;
    }
    return;
  }
  const u64 job_id = *admitted;
  admitted_ = true;
  ++s.jobs_submitted;
  ++s.inflight;
  s.remember_accept(f.request_id, job_id);
  jobs_[job_id] = PendingJob{f.token, f.request_id, f.trace_id, f.span_id,
                             steady_now_ms()};
  metrics_.counter("gate.accepted").inc();
  send_(from, GateKind::kAccepted, f, u64_payload(job_id));
}

void Gateway::handle_poll_(const SockAddr& from, const GateFrame& f,
                           Session& s) {
  metrics_.counter("gate.polls").inc();
  // The poll's request id names the submit being asked about.
  if (const ResultWire* done = s.find_done(f.request_id)) {
    send_(from, GateKind::kResult, f, done->serialize());
    return;
  }
  if (s.find_accept(f.request_id)) {
    ResultWire pending;  // accepted, still running
    send_(from, GateKind::kResult, f, pending.serialize());
    return;
  }
  metrics_.counter("gate.errors").inc();
  send_error_(from, f, err::kUnknownJob);
}

void Gateway::handle_stats_(const SockAddr& from, const GateFrame& f) {
  // Ops-plane: requires a valid token (any tenant may read the gateway's
  // own counters; farm internals stay behind the farm's report path).
  if (!dir_.authenticate(f.token)) {
    metrics_.counter("gate.errors").inc();
    send_error_(from, f, err::kBadToken);
    return;
  }
  metrics_.gauge("gate.sessions").set(static_cast<double>(sessions_.size()));
  const std::string json = metrics_.snapshot().to_json(0);
  Bytes payload(json.begin(), json.end());
  if (payload.size() > kMaxPayload) payload.resize(kMaxPayload);
  send_(from, GateKind::kStatsJson, f, std::move(payload));
}

void Gateway::handle_bye_(const SockAddr& from, const GateFrame& f,
                          Session& s) {
  (void)s;
  metrics_.counter("gate.bye").inc();
  send_(from, GateKind::kByeOk, f, {});
  // Results for jobs still in flight become orphans — the client said
  // goodbye; drain_farm_ counts them when they surface.
  sessions_.erase(f.token);
}

void Gateway::drain_farm_() {
  while (auto outcome = farm_.try_pop_result()) {
    const auto jit = jobs_.find(outcome->id);
    if (jit == jobs_.end()) continue;  // not a gateway job (shared farm)
    const PendingJob origin = jit->second;
    jobs_.erase(jit);
    const auto sit = sessions_.find(origin.token);
    if (sit == sessions_.end()) {
      metrics_.counter("gate.orphan_results").inc();
      continue;
    }
    Session& s = sit->second;
    if (s.inflight > 0) --s.inflight;
    ResultWire r;
    // Completion order is delivery order, which the farm's per-owner
    // FIFO pins to submission order — the dense per-tenant seq is what
    // the end-to-end audit checks.
    r.completion_seq = s.completion_seq++;
    r.attempts = static_cast<u8>(std::min(outcome->attempts, 255u));
    r.node = static_cast<u16>(outcome->node);
    if (outcome->result.ok) {
      r.status = ResultWire::kDone;
      r.words = outcome->result.readback;
    } else {
      r.status = ResultWire::kFailed;
      r.error = outcome->result.error;
      if (r.error.size() > 512) r.error.resize(512);
      metrics_.counter("gate.job_failures").inc();
    }
    metrics_.counter("gate.results_pushed").inc();
    metrics_.histogram("gate.job_ms")
        .observe(steady_now_ms() - origin.accepted_ms);
    s.remember_done(origin.request_id, r);
    // Unsolicited push to wherever the tenant last spoke from; if the
    // wire eats it, a kPoll re-serves it from the done cache.
    GateFrame push;
    push.kind = GateKind::kResult;
    push.token = origin.token;
    push.request_id = origin.request_id;
    push.trace_id = origin.trace_id;
    push.span_id = origin.span_id;
    push.payload = r.serialize();
    metrics_.counter("gate.tx_frames").inc();
    sock_.send_to(s.last_addr, push.serialize());
  }
}

void Gateway::gc_sessions_(double now_ms) {
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (now_ms - it->second.last_seen_ms > cfg_.session_idle_ms) {
      metrics_.counter("gate.sessions_gced").inc();
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

void Gateway::send_(const SockAddr& to, GateKind kind, const GateFrame& req,
                    Bytes payload) {
  GateFrame f;
  f.kind = kind;
  // Echo the token: a client that muxes many tenants over one socket
  // (lload) demultiplexes responses by it.  Tokens already travel in
  // cleartext on requests — this is a PSK scheme, not a secrecy one.
  f.token = req.token;
  f.request_id = req.request_id;
  f.trace_id = req.trace_id;
  f.span_id = req.span_id;
  f.payload = std::move(payload);
  metrics_.counter("gate.tx_frames").inc();
  sock_.send_to(to, f.serialize());
}

void Gateway::send_error_(const SockAddr& to, const GateFrame& req, u8 code) {
  send_(to, GateKind::kGateError, req, Bytes{code});
}

void Gateway::send_retry_(const SockAddr& to, const GateFrame& req, u8 reason,
                          u32 after_ms) {
  RetryAfterWire w;
  w.reason = reason;
  w.retry_after_ms = after_ms;
  send_(to, GateKind::kRetryAfter, req, w.serialize());
}

}  // namespace la::gate
