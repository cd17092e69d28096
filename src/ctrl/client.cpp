#include "ctrl/client.hpp"

#include <algorithm>

#include "ctrl/loader.hpp"

namespace la::ctrl {

std::string ClientError::to_string() const {
  std::string s;
  switch (kind) {
    case ClientErrorKind::kDeadline:
      s = "deadline expired";
      break;
    case ClientErrorKind::kGaveUp:
      s = "retries exhausted";
      break;
    case ClientErrorKind::kNodeError:
      s = "node error 0x";
      {
        static const char* hex = "0123456789abcdef";
        s += hex[(node_code >> 4) & 0xf];
        s += hex[node_code & 0xf];
      }
      break;
    case ClientErrorKind::kRejected:
      s = "rejected";
      break;
  }
  if (!detail.empty()) {
    s += " (";
    s += detail;
    s += ")";
  }
  return s;
}

namespace {

/// Wait rounds granted to attempt 0; attempt k gets
/// `kAwaitRounds << min(k, kBackoffCap)` (exponential backoff measured in
/// simulated rounds, not host time).
constexpr unsigned kAwaitRounds = 20;
constexpr unsigned kBackoffCap = 3;
/// Backoff jitter fraction: retry attempt k > 0 waits
/// `rounds * (1 ± jitter * u)` with u uniform in [0, 1), drawn from a
/// per-client RNG seeded with kJitterSeed — deterministic, but a client's
/// retries do not fall on a fixed cadence (pure exponential backoff
/// synchronizes).  Attempt 0 is never jittered.
constexpr double kBackoffJitter = 0.25;
constexpr u64 kJitterSeed = 0x6a177e12;

}  // namespace

LiquidClient::LiquidClient(sim::LiquidSystem& node, ClientConfig cfg)
    : node_(node),
      cfg_(cfg),
      up_(cfg.uplink),
      down_(cfg.downlink),
      jitter_rng_(kJitterSeed) {}

void LiquidClient::send_command(Bytes payload) {
  net::UdpDatagram d;
  d.src_ip = cfg_.client_ip;
  d.src_port = cfg_.client_port;
  d.dst_ip = node_.config().node_ip;
  d.dst_port = node_.config().node_port;
  d.payload = std::move(payload);
  up_.send(net::build_udp_packet(d));
  ++stats_.commands_sent;
}

void LiquidClient::pump(u64 node_steps) {
  while (auto f = up_.receive()) node_.ingress_frame(*f);
  node_.run(node_steps);
  while (auto f = node_.egress_frame()) down_.send(std::move(*f));
  steps_this_command_ += node_steps;
}

std::optional<net::UdpDatagram> LiquidClient::next_client_datagram() {
  while (auto f = down_.receive()) {
    auto d = net::parse_udp_packet(*f);
    if (!d) continue;
    if (d->dst_port != cfg_.client_port) {
      if (extra_handler_) extra_handler_(*d);
      continue;
    }
    return d;
  }
  return std::nullopt;
}

void LiquidClient::drain_downlink() {
  pump(0);
  while (auto d = next_client_datagram()) {
    // Stale control responses: nothing waits for them any more, but a
    // lossy-link debugging session wants to know they existed.
    ++stats_.stale_responses;
    if (!d->payload.empty() &&
        d->payload[0] == static_cast<u8>(net::ResponseCode::kError)) {
      ++stats_.node_errors;
      if (d->payload.size() >= 2) last_node_error_ = d->payload[1];
    }
  }
}

unsigned LiquidClient::rounds_for_attempt(unsigned attempt) {
  const unsigned shift = std::min(attempt, kBackoffCap);
  const unsigned base = kAwaitRounds << shift;
  if (attempt == 0) return base;
  // Symmetric jitter around the exponential schedule; deterministic under
  // kJitterSeed so replays stay bit-identical.
  const double f = 1.0 + kBackoffJitter * (2.0 * jitter_rng_.unit() - 1.0);
  return std::max(1u, static_cast<unsigned>(static_cast<double>(base) * f));
}

void LiquidClient::begin_command() {
  steps_this_command_ = 0;
  last_node_error_.reset();
}

ClientError LiquidClient::command_failure(std::string detail) {
  ++stats_.gave_up;
  ClientError e;
  e.detail = std::move(detail);
  if (last_node_error_) {
    e.kind = ClientErrorKind::kNodeError;
    e.node_code = *last_node_error_;
  } else if (deadline_exhausted()) {
    e.kind = ClientErrorKind::kDeadline;
    ++stats_.deadline_expiries;
  } else {
    e.kind = ClientErrorKind::kGaveUp;
  }
  return e;
}

std::optional<Bytes> LiquidClient::await(net::ResponseCode code,
                                         unsigned rounds) {
  for (unsigned r = 0; r < rounds; ++r) {
    if (deadline_exhausted()) return std::nullopt;
    pump(cfg_.pump_steps);
    while (auto d = next_client_datagram()) {
      if (d->payload.empty()) continue;
      ++stats_.responses;
      if (d->payload[0] == static_cast<u8>(code)) {
        return Bytes(d->payload.begin() + 1, d->payload.end());
      }
      if (d->payload[0] == static_cast<u8>(net::ResponseCode::kError)) {
        // The node is telling us *why* things fail; remember the code so
        // the eventual ClientError can carry it, but keep waiting — the
        // wanted response may still arrive (stale errors ride the same
        // queue).
        ++stats_.node_errors;
        if (d->payload.size() >= 2) last_node_error_ = d->payload[1];
        continue;
      }
      // A different code: stale duplicate from an earlier retry.
      ++stats_.stale_responses;
    }
  }
  return std::nullopt;
}

Result<StatusReport> LiquidClient::status() {
  begin_command();
  for (unsigned attempt = 0; attempt <= cfg_.max_retries; ++attempt) {
    if (attempt > 0) ++stats_.retries;
    if (deadline_exhausted()) break;
    send_command(net::simple_command(net::CommandCode::kStatus));
    if (auto body = await(net::ResponseCode::kStatus,
                          rounds_for_attempt(attempt))) {
      ByteReader r(*body);
      if (r.remaining() < 4) continue;
      StatusReport s;
      s.state = static_cast<net::LeonState>(r.read_u8());
      s.total_packets = r.read_u8();
      s.received_packets = r.read_u16();
      return s;
    }
  }
  return command_failure("status");
}

Status LiquidClient::load_program(const sasm::Image& img) {
  begin_command();
  const auto chunks = packetize(img, cfg_.load_chunk);
  std::vector<bool> acked(chunks.size(), false);
  std::size_t acked_count = 0;

  for (unsigned attempt = 0; attempt <= cfg_.max_retries; ++attempt) {
    if (attempt > 0) ++stats_.retries;
    if (deadline_exhausted()) break;
    // (Re)send every unacked chunk.
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      if (!acked[i]) send_command(chunks[i].serialize());
    }
    // Collect acks for a (backoff-scaled) number of rounds.
    const unsigned rounds = rounds_for_attempt(attempt);
    for (unsigned round = 0;
         round < rounds && acked_count < chunks.size(); ++round) {
      if (deadline_exhausted()) break;
      pump(cfg_.pump_steps);
      while (auto d = next_client_datagram()) {
        if (d->payload.empty()) continue;
        ++stats_.responses;
        if (d->payload[0] == static_cast<u8>(net::ResponseCode::kError)) {
          ++stats_.node_errors;
          if (d->payload.size() >= 2) last_node_error_ = d->payload[1];
          continue;
        }
        if (d->payload[0] != static_cast<u8>(net::ResponseCode::kLoadAck)) {
          ++stats_.stale_responses;
          continue;
        }
        ByteReader r(std::span<const u8>(d->payload).subspan(1));
        if (r.remaining() < 3) continue;
        const u16 seq = r.read_u16();
        if (seq < acked.size() && !acked[seq]) {
          acked[seq] = true;
          ++acked_count;
        }
      }
    }
    if (acked_count == chunks.size()) {
      // Double-check the controller agrees the image is complete.
      const auto node_err = last_node_error_;
      const auto s = status();
      last_node_error_ = node_err;
      if (s && s->state == net::LeonState::kReady) return Status{};
      if (s && s->state == net::LeonState::kError) break;
    }
  }
  return command_failure("load_program");
}

Status LiquidClient::start(Addr entry) {
  begin_command();
  for (unsigned attempt = 0; attempt <= cfg_.max_retries; ++attempt) {
    if (attempt > 0) ++stats_.retries;
    if (deadline_exhausted()) break;
    send_command(net::StartCmd{entry}.serialize());
    if (await(net::ResponseCode::kStarted, rounds_for_attempt(attempt))) {
      return Status{};
    }
    // The start may have landed even if the ack was lost; status tells.
    // (status() is its own command — preserve this command's error latch.)
    const auto node_err = last_node_error_;
    const auto s = status();
    last_node_error_ = node_err;
    if (s && (s->state == net::LeonState::kRunning ||
              s->state == net::LeonState::kDone)) {
      return Status{};
    }
    if (s && s->state == net::LeonState::kError) break;  // retrying is futile
  }
  return command_failure("start");
}

Result<std::vector<u32>> LiquidClient::read_memory(Addr addr, u16 words) {
  begin_command();
  for (unsigned attempt = 0; attempt <= cfg_.max_retries; ++attempt) {
    if (attempt > 0) ++stats_.retries;
    if (deadline_exhausted()) break;
    send_command(net::ReadMemoryCmd{addr, words}.serialize());
    if (auto body = await(net::ResponseCode::kMemoryData,
                          rounds_for_attempt(attempt))) {
      ByteReader r(*body);
      if (r.remaining() < 4u + 4u * words) continue;
      if (r.read_u32() != addr) continue;  // stale response
      std::vector<u32> out;
      out.reserve(words);
      for (u16 i = 0; i < words; ++i) out.push_back(r.read_u32());
      return out;
    }
  }
  return command_failure("read_memory");
}

Result<std::string> LiquidClient::stats_snapshot() {
  begin_command();
  for (unsigned attempt = 0; attempt <= cfg_.max_retries; ++attempt) {
    if (attempt > 0) ++stats_.retries;
    if (deadline_exhausted()) break;
    send_command(net::simple_command(net::CommandCode::kStatsSnapshot));
    if (auto body = await(net::ResponseCode::kStatsData,
                          rounds_for_attempt(attempt))) {
      return std::string(body->begin(), body->end());
    }
  }
  return command_failure("stats_snapshot");
}

Result<std::string> LiquidClient::stats_delta() {
  begin_command();
  // Sequenced form: every retry of this one call names the same window,
  // so a duplicated or reordered poll replays the cached bytes instead
  // of advancing the stream — no delta window can vanish into a retry.
  const u32 seq = ++stream_seq_;
  ByteWriter w;
  w.write_u8(static_cast<u8>(net::CommandCode::kStatsStream));
  w.write_u32(seq);
  const Bytes cmd = w.take();
  for (unsigned attempt = 0; attempt <= cfg_.max_retries; ++attempt) {
    if (attempt > 0) ++stats_.retries;
    if (deadline_exhausted()) break;
    send_command(cmd);
    if (auto body = await(net::ResponseCode::kStatsDelta,
                          rounds_for_attempt(attempt))) {
      return std::string(body->begin(), body->end());
    }
  }
  return command_failure("stats_delta");
}

Result<std::string> LiquidClient::flight_dump() {
  begin_command();
  for (unsigned attempt = 0; attempt <= cfg_.max_retries; ++attempt) {
    if (attempt > 0) ++stats_.retries;
    if (deadline_exhausted()) break;
    send_command(net::simple_command(net::CommandCode::kFlightDump));
    if (auto body = await(net::ResponseCode::kFlightData,
                          rounds_for_attempt(attempt))) {
      return std::string(body->begin(), body->end());
    }
  }
  return command_failure("flight_dump");
}

Status LiquidClient::restart() {
  begin_command();
  for (unsigned attempt = 0; attempt <= cfg_.max_retries; ++attempt) {
    if (attempt > 0) ++stats_.retries;
    if (deadline_exhausted()) break;
    send_command(net::simple_command(net::CommandCode::kRestart));
    if (await(net::ResponseCode::kStatus, rounds_for_attempt(attempt))) {
      return Status{};
    }
  }
  return command_failure("restart");
}

Status LiquidClient::run_program(const sasm::Image& img, u64 max_steps) {
  const double load_t0 = job_trace_.now_us();
  const Cycles load_c0 = node_.now();
  if (auto loaded = load_program(img); !loaded) return loaded;
  job_trace_.phase("load", load_t0, job_trace_.now_us(), load_c0,
                   node_.now());
  if (auto started = start(img.entry); !started) return started;
  return await_done(max_steps);
}

Status LiquidClient::await_done(u64 max_steps) {
  const double run_t0 = job_trace_.now_us();
  const Cycles run_c0 = node_.now();
  begin_command();  // the wait-for-completion phase is its own "command"
  u64 stepped = 0;
  while (stepped < max_steps) {
    const u64 slice = std::min<u64>(20000, max_steps - stepped);
    pump(slice);
    stepped += slice;
    // Keep the downlink drained: an unsolicited 0xff (watchdog trip) must
    // reach the error latch, not rot in the queue.
    while (auto d = next_client_datagram()) {
      if (d->payload.empty()) continue;
      if (d->payload[0] == static_cast<u8>(net::ResponseCode::kError)) {
        ++stats_.node_errors;
        if (d->payload.size() >= 2) last_node_error_ = d->payload[1];
      } else {
        ++stats_.stale_responses;
      }
    }
    const net::LeonState st = node_.controller().state();
    if (st == net::LeonState::kDone) {
      job_trace_.phase("run", run_t0, job_trace_.now_us(), run_c0,
                       node_.now());
      return Status{};
    }
    if (st == net::LeonState::kError) {
      ClientError e;
      e.kind = ClientErrorKind::kNodeError;
      e.node_code = last_node_error_.value_or(0);
      e.detail = "await_done: node entered error state";
      ++stats_.gave_up;
      const double now = job_trace_.now_us();
      job_trace_.phase("run", run_t0, now, run_c0, node_.now());
      job_trace_.phase("error", now, now, node_.now(), node_.now(),
                       e.to_string());
      return e;
    }
  }
  if (node_.controller().state() == net::LeonState::kDone) {
    job_trace_.phase("run", run_t0, job_trace_.now_us(), run_c0,
                     node_.now());
    return Status{};
  }
  ClientError e;
  e.kind = ClientErrorKind::kDeadline;
  e.detail = "await_done: program did not complete";
  ++stats_.deadline_expiries;
  ++stats_.gave_up;
  return e;
}

}  // namespace la::ctrl
