#include "gate/client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

namespace la::gate {

GateFrame make_request(GateKind kind, u64 token, u64 request_id,
                       Bytes payload, u64 trace_id, u64 span_id) {
  GateFrame f;
  f.kind = kind;
  f.token = token;
  f.request_id = request_id;
  f.trace_id = trace_id;
  f.span_id = span_id;
  f.payload = std::move(payload);
  return f;
}

GateClient::GateClient(ClientConfig cfg)
    : cfg_(std::move(cfg)), link_(sock_, cfg_.gateway, cfg_.wan) {
  sock_.open();
}

void GateClient::pump_(double wait_ms) {
  const double deadline = steady_now_ms() + wait_ms;
  for (;;) {
    bool got = false;
    while (auto bytes = link_.poll_recv()) {
      if (auto f = GateFrame::parse(*bytes)) {
        // A result (pushed, polled, or a finished job's submit reply) is
        // filed apart from the replies, so the kAccepted read in the same
        // batch as its job's result survives for submit() to return.
        auto& box = f->kind == GateKind::kResult ? results_ : inbox_;
        box[f->request_id] = std::move(*f);
        got = true;
      }
    }
    if (got || steady_now_ms() >= deadline) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

std::optional<GateFrame> GateClient::transact_(const GateFrame& req) {
  const double deadline = steady_now_ms() + cfg_.op_timeout_ms;
  const Bytes wire = req.serialize();
  while (steady_now_ms() < deadline) {
    link_.send(wire);
    pump_(cfg_.resend_after_ms);
    const auto it = inbox_.find(req.request_id);
    if (it == inbox_.end()) {
      // No reply, but the job may have finished: its result answers a
      // submit too, and stays filed for await_result().
      const auto done = results_.find(req.request_id);
      if (done != results_.end()) return done->second;
      continue;  // lost somewhere: resend
    }
    if (it->second.kind == GateKind::kRetryAfter) {
      // Explicit backpressure: honor the hint (capped so a confused
      // hint cannot park the client), then try again.
      u32 wait = 5;
      if (auto ra = RetryAfterWire::parse(it->second.payload)) {
        wait = std::min(ra->retry_after_ms, 200u);
      }
      inbox_.erase(it);
      ++backoffs_;
      std::this_thread::sleep_for(std::chrono::milliseconds(wait));
      continue;
    }
    GateFrame out = std::move(it->second);
    inbox_.erase(it);
    return out;
  }
  return std::nullopt;
}

std::optional<HelloOkWire> GateClient::hello() {
  const auto resp =
      transact_(make_request(GateKind::kHello, cfg_.token, /*request_id=*/1));
  if (!resp || resp->kind != GateKind::kHelloOk) return std::nullopt;
  return HelloOkWire::parse(resp->payload);
}

std::optional<GateFrame> GateClient::submit(u64 request_id,
                                            const JobWire& job, u64 trace_id,
                                            u64 span_id) {
  return transact_(make_request(GateKind::kSubmit, cfg_.token, request_id,
                                job.serialize(), trace_id, span_id));
}

std::optional<ResultWire> GateClient::await_result(u64 request_id) {
  const double deadline = steady_now_ms() + cfg_.op_timeout_ms;
  double next_poll_ms = steady_now_ms() + cfg_.resend_after_ms;
  while (steady_now_ms() < deadline) {
    const auto it = results_.find(request_id);
    if (it != results_.end()) {
      const auto r = ResultWire::parse(it->second.payload);
      results_.erase(it);
      if (r && r->status != ResultWire::kPending) return r;
      // Still running (a poll answered before completion): keep waiting.
    }
    pump_(2.0);
    const double now = steady_now_ms();
    if (now >= next_poll_ms) {
      // The unsolicited push may have died on the wire; ask directly.
      link_.send(
          make_request(GateKind::kPoll, cfg_.token, request_id).serialize());
      next_poll_ms = now + cfg_.resend_after_ms;
    }
  }
  return std::nullopt;
}

std::optional<std::string> GateClient::stats_json() {
  // Stats requests get a fresh id high above job ids so they never
  // collide with a submit's dedup entry.
  static constexpr u64 kStatsId = ~u64{0} - 7;
  const auto resp =
      transact_(make_request(GateKind::kGateStats, cfg_.token, kStatsId));
  if (!resp || resp->kind != GateKind::kStatsJson) return std::nullopt;
  return std::string(resp->payload.begin(), resp->payload.end());
}

void GateClient::bye() {
  static constexpr u64 kByeId = ~u64{0} - 8;
  transact_(make_request(GateKind::kBye, cfg_.token, kByeId));
}

}  // namespace la::gate
