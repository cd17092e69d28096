#include "net/leon_ctrl.hpp"

namespace la::net {

void PacketGenerator::emit(Ipv4Addr dst_ip, u16 dst_port, ResponseCode code,
                           Bytes payload) {
  UdpDatagram d;
  d.src_ip = node_ip_;
  d.src_port = node_port_;
  d.dst_ip = dst_ip;
  d.dst_port = dst_port;
  d.payload.reserve(payload.size() + 1);
  d.payload.push_back(static_cast<u8>(code));
  d.payload.insert(d.payload.end(), payload.begin(), payload.end());
  while (max_queue_ > 0 && queue_.size() >= max_queue_) {
    queue_.pop_front();
    ++responses_dropped_;
  }
  queue_.push_back(std::move(d));
  ++emitted_;
}

std::optional<UdpDatagram> PacketGenerator::pop() {
  if (queue_.empty()) return std::nullopt;
  UdpDatagram d = std::move(queue_.front());
  queue_.pop_front();
  return d;
}

LeonController::LeonController(const LeonCtrlConfig& cfg,
                               mem::DisconnectSwitch& sw,
                               PacketGenerator& gen, ResetCpu reset_cpu,
                               Now now)
    : cfg_(cfg),
      sw_(sw),
      gen_(gen),
      reset_cpu_(std::move(reset_cpu)),
      now_(std::move(now)) {
  // At power-on the processor spins in its polling loop on a zero mailbox;
  // it starts connected so the poll actually reads memory.
  sw_.user_port().backdoor_write_word(cfg_.mailbox, 0);
  sw_.set_connected(true);
}

void LeonController::respond(ResponseCode code, Bytes payload) {
  gen_.emit(client_ip_, client_port_, code, std::move(payload));
}

void LeonController::respond_status() {
  ByteWriter w;
  w.write_u8(static_cast<u8>(state_));
  w.write_u8(expected_packets_);
  w.write_u16(static_cast<u16>(received_count_));
  respond(ResponseCode::kStatus, w.take());
}

void LeonController::respond_error(u8 code) {
  respond(ResponseCode::kError, Bytes{code});
}

void LeonController::handle(const UdpDatagram& d) {
  ++stats_.commands;
  client_ip_ = d.src_ip;
  client_port_ = d.src_port;
  ByteReader r(d.payload);
  if (r.empty()) {
    ++stats_.bad_commands;
    respond_error(err::kEmptyCommand);
    return;
  }
  const u8 code = r.read_u8();
  switch (static_cast<CommandCode>(code)) {
    case CommandCode::kStatus:
      respond_status();
      return;
    case CommandCode::kLoadProgram:
      handle_load(r);
      return;
    case CommandCode::kStart:
      handle_start(r);
      return;
    case CommandCode::kReadMemory:
      handle_read(r);
      return;
    case CommandCode::kRestart:
      handle_restart();
      return;
    case CommandCode::kStatsSnapshot:
      handle_stats_snapshot();
      return;
    case CommandCode::kStatsStream:
      handle_stats_stream(r);
      return;
    case CommandCode::kFlightDump:
      handle_flight_dump();
      return;
    default:
      ++stats_.bad_commands;
      respond_error(err::kUnknownCommand);
      return;
  }
}

void LeonController::handle_load(ByteReader& r) {
  if (state_ == LeonState::kRunning) {
    ++stats_.bad_commands;
    respond_error(err::kBusy);
    return;
  }
  if (state_ == LeonState::kError) {
    // The processor may be wedged and memory in an unknown state; only a
    // RESTART (which resets both) makes the node loadable again.
    ++stats_.bad_commands;
    respond_error(err::kRestartRequired);
    return;
  }
  const auto cmd = LoadProgramCmd::parse(r);
  if (!cmd) {
    ++stats_.bad_commands;
    respond_error(err::kBadLoad);
    return;
  }
  if (cmd->address < cfg_.load_min ||
      static_cast<u64>(cmd->address) + cmd->data.size() - 1 > cfg_.load_max) {
    ++stats_.bad_commands;
    respond_error(err::kLoadRange);  // out of the loadable SRAM window
    return;
  }

  // A chunk whose (total, sequence) matches an already-received one is a
  // retransmission (lost ack, duplicating channel): rewrite the bytes and
  // re-ack, but never regress a completed load back to kLoading.
  const bool retransmission =
      expected_packets_ == cmd->total_packets &&
      cmd->sequence < received_.size() && received_[cmd->sequence] &&
      (state_ == LeonState::kLoading || state_ == LeonState::kReady);

  if (!retransmission &&
      (state_ != LeonState::kLoading ||
       expected_packets_ != cmd->total_packets)) {
    // First chunk of a new load session.
    set_state(LeonState::kLoading);
    expected_packets_ = cmd->total_packets;
    received_.assign(cmd->total_packets, false);
    received_count_ = 0;
    // The external circuitry unplugs the processor while memory is owned
    // by the user path (§3.1).
    sw_.set_connected(false);
  }

  if (received_[cmd->sequence]) {
    ++stats_.duplicate_chunks;
  } else {
    received_[cmd->sequence] = true;
    ++received_count_;
    ++stats_.chunks_loaded;
  }
  sw_.user_port().backdoor_write(cmd->address, cmd->data);

  if (state_ == LeonState::kLoading &&
      received_count_ == expected_packets_) {
    set_state(LeonState::kReady);
  }
  ByteWriter w;
  w.write_u16(cmd->sequence);
  w.write_u8(static_cast<u8>(state_));
  respond(ResponseCode::kLoadAck, w.take());
}

void LeonController::handle_start(ByteReader& r) {
  const auto cmd = StartCmd::parse(r);
  if (!cmd) {
    ++stats_.bad_commands;
    respond_error(err::kBadStart);
    return;
  }
  if (state_ == LeonState::kError) {
    ++stats_.bad_commands;
    respond_error(err::kRestartRequired);
    return;
  }
  if (state_ == LeonState::kRunning || state_ == LeonState::kLoading) {
    ++stats_.bad_commands;
    respond_error(err::kNotStartable);
    return;
  }
  // Plant the start address in the mailbox and reconnect: the polling
  // loop's next (flushed) read jumps to the user program.
  sw_.user_port().backdoor_write_word(cfg_.mailbox, cmd->address);
  sw_.set_connected(true);
  set_state(LeonState::kRunning);
  seen_user_code_ = false;  // completion arms once the CPU enters user code
  if (now_) run_started_at_ = now_();
  ++stats_.programs_started;
  respond(ResponseCode::kStarted);
}

void LeonController::handle_read(ByteReader& r) {
  const auto cmd = ReadMemoryCmd::parse(r);
  if (!cmd) {
    ++stats_.bad_commands;
    respond_error(err::kBadRead);
    return;
  }
  ByteWriter w;
  w.write_u32(cmd->address);
  for (u16 i = 0; i < cmd->words; ++i) {
    const Addr a = cmd->address + 4u * i;
    if (!sw_.user_port().parity_ok(a, 4)) {
      // The stored word's check bits are bad — returning its bytes would
      // hand the operator silently corrupted data.  Refuse instead.
      ++stats_.parity_read_errors;
      respond_error(err::kReadParity);
      return;
    }
    u8 bytes[4] = {};
    if (!sw_.user_port().backdoor_read(a, bytes)) {
      ++stats_.bad_commands;
      respond_error(err::kReadRange);
      return;
    }
    w.write_bytes(bytes);
  }
  respond(ResponseCode::kMemoryData, w.take());
}

void LeonController::handle_stats_snapshot() {
  if (!stats_provider_) {
    ++stats_.bad_commands;
    respond_error(err::kNoStats);  // node exposes no metrics registry
    return;
  }
  respond(ResponseCode::kStatsData, stats_provider_());
}

void LeonController::handle_stats_stream(ByteReader& r) {
  if (!delta_provider_) {
    ++stats_.bad_commands;
    respond_error(err::kNoStats);  // node exposes no metrics registry
    return;
  }
  if (r.remaining() == 0) {
    // Legacy form: no window id, every poll advances the stream.  Only
    // safe on a wire that neither duplicates nor reorders.
    ++stats_.stream_polls;
    respond(ResponseCode::kStatsDelta, delta_provider_());
    return;
  }
  if (r.remaining() != 4) {
    ++stats_.bad_commands;
    respond_error(err::kBadStreamSeq);
    return;
  }
  // Sequenced form: the client names the window it wants.  Asking again
  // for a cached window re-serves those exact bytes — the stream does
  // NOT advance — so a duplicated or retried poll can never make a delta
  // window vanish.  A seq below the cache is a reordered ghost of a poll
  // the client has already moved past; answering it with fresh data
  // would burn a window nobody reads, so it gets a typed error instead.
  const u32 seq = r.read_u32();
  for (const auto& [cached_seq, window] : stream_cache_) {
    if (cached_seq == seq) {
      ++stats_.stream_polls;
      ++stats_.stream_replays;
      respond(ResponseCode::kStatsDelta, window);
      return;
    }
  }
  if (!stream_cache_.empty() && seq <= stream_cache_.back().first) {
    ++stats_.bad_commands;
    respond_error(err::kStaleStreamSeq);
    return;
  }
  ++stats_.stream_polls;
  Bytes window = delta_provider_();
  stream_cache_.emplace_back(seq, window);
  if (stream_cache_.size() > kStreamCacheWindows) stream_cache_.pop_front();
  respond(ResponseCode::kStatsDelta, std::move(window));
}

void LeonController::handle_flight_dump() {
  if (!flight_provider_) {
    ++stats_.bad_commands;
    respond_error(err::kNoRecorder);  // node has no flight recorder
    return;
  }
  ++stats_.flight_dumps;
  respond(ResponseCode::kFlightData, flight_provider_());
}

void LeonController::set_state(LeonState next) {
  if (next == state_) return;
  const LeonState prev = state_;
  state_ = next;
  if (state_observer_) state_observer_(prev, next);
}

void LeonController::handle_restart() {
  sw_.set_connected(false);
  sw_.user_port().backdoor_write_word(cfg_.mailbox, 0);
  if (reset_cpu_) reset_cpu_();
  sw_.set_connected(true);
  set_state(LeonState::kIdle);
  expected_packets_ = 0;
  received_.clear();
  received_count_ = 0;
  respond_status();
}

void LeonController::on_cpu_pc(Addr pc) {
  if (state_ != LeonState::kRunning) return;
  if (pc >= cfg_.user_code_min) {
    seen_user_code_ = true;
    return;
  }
  if (seen_user_code_ && pc == cfg_.check_ready) {
    // The program's final jump landed back in the polling loop: detection
    // disconnects the processor and clears the mailbox before the poll can
    // re-read the stale start address.
    sw_.user_port().backdoor_write_word(cfg_.mailbox, 0);
    sw_.set_connected(false);
    set_state(LeonState::kDone);
    if (now_) last_run_cycles_ = now_() - run_started_at_;
    ++stats_.programs_completed;
  }
}

void LeonController::force_error(u8 code) {
  set_state(LeonState::kError);
  respond_error(code);
}

void LeonController::watchdog_trip() {
  if (state_ != LeonState::kRunning) return;
  // Unplug the (possibly wedged) processor and clear the mailbox so a
  // stale start address can never relaunch the dead program; then tell the
  // operator.  The controller itself stays fully responsive.
  sw_.user_port().backdoor_write_word(cfg_.mailbox, 0);
  sw_.set_connected(false);
  ++stats_.watchdog_trips;
  set_state(LeonState::kError);
  respond_error(err::kWatchdogTrip);
}

namespace {
constexpr u32 kCtrlTag = snap_tag("LCTL");
}  // namespace

void LeonController::save_state(SnapWriter& w) const {
  w.tag(kCtrlTag);
  w.u8v(static_cast<u8>(state_));
  w.b(seen_user_code_);
  w.u8v(expected_packets_);
  w.vec_bool(received_);
  w.u32v(received_count_);
  w.u32v(client_ip_);
  w.u16v(client_port_);
  w.u64v(static_cast<u64>(run_started_at_));
  w.u64v(static_cast<u64>(last_run_cycles_));
  w.u64v(stats_.commands);
  w.u64v(stats_.bad_commands);
  w.u64v(stats_.chunks_loaded);
  w.u64v(stats_.duplicate_chunks);
  w.u64v(stats_.programs_started);
  w.u64v(stats_.programs_completed);
  w.u64v(stats_.watchdog_trips);
  w.u64v(stats_.parity_read_errors);
  w.u64v(stats_.stream_polls);
  w.u64v(stats_.stream_replays);
  w.u64v(stats_.flight_dumps);
  // The stream replay cache travels too: a restored node must keep
  // re-serving the windows its predecessor already promised.
  w.u32v(static_cast<u32>(stream_cache_.size()));
  for (const auto& [seq, window] : stream_cache_) {
    w.u32v(seq);
    w.bytes(window);
  }
}

bool LeonController::load_state(SnapReader& r) {
  if (!r.expect(kCtrlTag)) return false;
  state_ = static_cast<LeonState>(r.u8v());
  seen_user_code_ = r.b();
  expected_packets_ = r.u8v();
  received_ = r.vec_bool();
  received_count_ = r.u32v();
  client_ip_ = r.u32v();
  client_port_ = r.u16v();
  run_started_at_ = static_cast<Cycles>(r.u64v());
  last_run_cycles_ = static_cast<Cycles>(r.u64v());
  stats_.commands = r.u64v();
  stats_.bad_commands = r.u64v();
  stats_.chunks_loaded = r.u64v();
  stats_.duplicate_chunks = r.u64v();
  stats_.programs_started = r.u64v();
  stats_.programs_completed = r.u64v();
  stats_.watchdog_trips = r.u64v();
  stats_.parity_read_errors = r.u64v();
  stats_.stream_polls = r.u64v();
  stats_.stream_replays = r.u64v();
  stats_.flight_dumps = r.u64v();
  stream_cache_.clear();
  const u32 cached = r.u32v();
  for (u32 i = 0; i < cached && r.ok(); ++i) {
    const u32 seq = r.u32v();
    stream_cache_.emplace_back(seq, r.bytes());
  }
  return r.ok();
}

}  // namespace la::net
