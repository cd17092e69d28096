#include "sim/liquid_system.hpp"

#include <algorithm>

#include "sasm/assembler.hpp"

namespace la::sim {

namespace map = mem::map;

LiquidSystem::LiquidSystem(const SystemConfig& cfg)
    : cfg_(cfg),
      sram_(map::kSramBase, cfg.sram_size, cfg.sram_timing),
      bridge_(map::kApbBase),
      timer_(cfg.timer_irq_level,
             [this](u8 level) { irqctrl_->raise(level); }),
      wrappers_(cfg.node_ip) {
  // ---- memory stack ----
  switch_ = std::make_unique<mem::DisconnectSwitch>(sram_);
  sdram_ = std::make_unique<mem::SdramDevice>(cfg.sdram_size,
                                              cfg.sdram_timing);
  sdram_ctrl_ = std::make_unique<mem::FpxSdramController>(*sdram_);
  adapter_ = std::make_unique<mem::AhbSdramAdapter>(
      *sdram_ctrl_, map::kSdramBase, cfg.sdram_size, &clock_, cfg.adapter);

  const auto boot = sasm::assemble_or_throw(
      cfg.use_original_boot
          ? mem::original_boot_source(
                map::kRomBase,
                map::kApbBase + map::kUartOffset + bus::reg::kUartStatus)
          : mem::modified_boot_source(map::kRomBase,
                                      map::kProgAddrMailbox));
  rom_ = std::make_unique<mem::BootRom>(map::kRomBase, map::kRomSize,
                                        boot.data);

  // ---- peripherals ----
  cyc_ = std::make_unique<bus::CycleCounter>([this] { return clock_; });
  irqctrl_ = std::make_unique<bus::IrqController>(
      [this](u8 level) { if (pipe_) pipe_->set_irq(level); });
  bridge_.attach(map::kUartOffset, map::kDeviceSize, &uart_);
  bridge_.attach(map::kTimerOffset, map::kDeviceSize, &timer_);
  bridge_.attach(map::kIrqOffset, map::kDeviceSize, irqctrl_.get());
  bridge_.attach(map::kGpioOffset, map::kDeviceSize, &gpio_);
  bridge_.attach(map::kCycleCounterOffset, map::kDeviceSize, cyc_.get());
  bridge_.attach(map::kWatchdogOffset, map::kDeviceSize, &wdog_);
  wdog_.set_on_trip([this] { ctrl_->watchdog_trip(); });
  // Batched runs defer timer/watchdog advance to computed event cycles; a
  // program access to peripheral space must observe per-step state, so
  // catch up right before the access lands and flag the batch to
  // recompute its next event (the access may have reprogrammed a device).
  // Outside a batch the backlog is zero and this is a no-op.
  bridge_.set_access_hook([this] {
    drain_peripherals();
    periph_dirty_ = true;
  });

  // ---- AHB map ----
  bus_.attach(map::kRomBase, map::kRomSize, rom_.get());
  bus_.attach(map::kSramBase, cfg.sram_size, switch_.get());
  bus_.attach(map::kSdramBase, cfg.sdram_size, adapter_.get());
  bus_.attach(map::kApbBase, map::kApbSize, &bridge_);

  // ---- processor ----
  pipe_ = std::make_unique<cpu::LeonPipeline>(
      cfg.pipeline, bus_, &clock_, cpu::Cacheable::kMemoryMap, switch_.get());
  pipe_->reset(map::kRomBase);

  // ---- network / control ----
  pktgen_ = std::make_unique<net::PacketGenerator>(cfg.node_ip,
                                                   cfg.node_port);
  net::LeonCtrlConfig lcfg;
  lcfg.mailbox = map::kProgAddrMailbox;
  lcfg.check_ready = check_ready_addr();
  lcfg.load_min = map::kSramBase + 4;
  lcfg.load_max = map::kSramBase + cfg.sram_size - 1;
  lcfg.user_code_min = map::kSramBase;
  ctrl_ = std::make_unique<net::LeonController>(
      lcfg, *switch_, *pktgen_, [this] { reset_cpu(); },
      [this] { return clock_; });
  cpp_ = std::make_unique<net::ControlPacketProcessor>(*ctrl_);

  // ---- observability ----
  register_metrics();
  // Remote clients poll the registry over UDP (STATS_SNAPSHOT) exactly
  // like the paper's control path; the wire form is compact JSON.
  ctrl_->set_stats_provider([this] {
    const std::string json = metrics_.snapshot(clock_).to_json(0);
    return Bytes(json.begin(), json.end());
  });
  // STATS_STREAM: each poll returns the delta window since the previous
  // poll (first poll: everything since boot, the empty baseline).
  ctrl_->set_delta_provider([this] {
    metrics::Snapshot now = metrics_.snapshot(clock_);
    const std::string json = now.diff_since(stream_prev_).to_json(0);
    stream_prev_ = std::move(now);
    return Bytes(json.begin(), json.end());
  });
  ctrl_->set_state_observer([this](net::LeonState prev, net::LeonState next) {
    on_ctrl_transition(prev, next);
  });
  if (cfg_.flight_recorder) {
    flight_ = std::make_unique<FlightRecorder>();
    // FLIGHT_DUMP: freeze the ring on demand (error 0x42 when not armed —
    // the provider is only wired when the recorder exists).
    ctrl_->set_flight_provider([this] {
      const std::string json = flight_->to_json("remote_dump", clock_, 0);
      return Bytes(json.begin(), json.end());
    });
  }
}

void LiquidSystem::register_metrics() {
  auto fn = [this](const char* name, auto getter) {
    metrics_.register_fn(name, [this, getter] {
      return static_cast<double>(getter(*this));
    });
  };
  using Sys = const LiquidSystem&;

  // -- processor --
  fn("cpu.instructions", [](Sys s) { return s.pipe_->stats().instructions; });
  fn("cpu.annulled", [](Sys s) { return s.pipe_->stats().annulled; });
  fn("cpu.traps", [](Sys s) { return s.pipe_->stats().traps; });
  fn("cpu.cycles", [](Sys s) { return s.pipe_->stats().cycles; });
  fn("pipeline.stalls.icache",
     [](Sys s) { return s.pipe_->stats().icache_stall; });
  fn("pipeline.stalls.dcache",
     [](Sys s) { return s.pipe_->stats().dcache_stall; });
  fn("pipeline.stalls.store_buffer",
     [](Sys s) { return s.pipe_->stats().store_stall; });
  fn("cpu.mix.loads", [](Sys s) { return s.pipe_->stats().loads; });
  fn("cpu.mix.stores", [](Sys s) { return s.pipe_->stats().stores; });
  fn("cpu.mix.branches", [](Sys s) { return s.pipe_->stats().branches; });
  fn("cpu.mix.taken_branches",
     [](Sys s) { return s.pipe_->stats().taken_branches; });
  fn("cpu.mix.calls", [](Sys s) { return s.pipe_->stats().calls; });
  fn("cpu.mix.muldiv", [](Sys s) { return s.pipe_->stats().muldiv; });

  // -- caches (config gauges ride along so a snapshot names its image) --
  const auto cache_metrics = [&](const char* prefix, bool icache) {
    const std::string p = prefix;
    auto c = [this, icache]() -> const cache::Cache& {
      return icache ? pipe_->icache() : pipe_->dcache();
    };
    metrics_.register_fn(p + ".size_bytes", [c] {
      return static_cast<double>(c().config().size_bytes);
    });
    metrics_.register_fn(p + ".line_bytes", [c] {
      return static_cast<double>(c().config().line_bytes);
    });
    metrics_.register_fn(p + ".ways", [c] {
      return static_cast<double>(c().config().ways);
    });
    metrics_.register_fn(p + ".read_hits", [c] {
      return static_cast<double>(c().stats().read_hits);
    });
    metrics_.register_fn(p + ".read_misses", [c] {
      return static_cast<double>(c().stats().read_misses);
    });
    metrics_.register_fn(p + ".write_hits", [c] {
      return static_cast<double>(c().stats().write_hits);
    });
    metrics_.register_fn(p + ".write_misses", [c] {
      return static_cast<double>(c().stats().write_misses);
    });
    metrics_.register_fn(p + ".evictions", [c] {
      return static_cast<double>(c().stats().evictions);
    });
    metrics_.register_fn(p + ".writebacks", [c] {
      return static_cast<double>(c().stats().writebacks);
    });
    metrics_.register_fn(p + ".flushes", [c] {
      return static_cast<double>(c().stats().flushes);
    });
    metrics_.register_fn(p + ".parity_recoveries", [c] {
      return static_cast<double>(c().stats().parity_recoveries);
    });
    metrics_.register_fn(p + ".parity_discards", [c] {
      return static_cast<double>(c().stats().parity_discards);
    });
  };
  cache_metrics("cache.i", true);
  cache_metrics("cache.d", false);

  // -- AHB --
  const auto ahb_master = [&](const char* prefix, bus::Master m) {
    const std::string p = prefix;
    metrics_.register_fn(p + ".transfers", [this, m] {
      return static_cast<double>(bus_.stats().of(m).transfers);
    });
    metrics_.register_fn(p + ".beats", [this, m] {
      return static_cast<double>(bus_.stats().of(m).beats);
    });
    metrics_.register_fn(p + ".cycles", [this, m] {
      return static_cast<double>(bus_.stats().of(m).cycles);
    });
    metrics_.register_fn(p + ".errors", [this, m] {
      return static_cast<double>(bus_.stats().of(m).errors);
    });
  };
  ahb_master("ahb.instr", bus::Master::kCpuInstr);
  ahb_master("ahb.data", bus::Master::kCpuData);
  ahb_master("ahb.dma", bus::Master::kDma);
  fn("ahb.unmapped", [](Sys s) { return s.bus_.stats().unmapped; });
  fn("ahb.injected_errors",
     [](Sys s) { return s.bus_.stats().injected_errors; });

  // -- memory fault detection --
  fn("sram.parity_errors",
     [](Sys s) { return s.sram_.stats().parity_errors; });
  fn("sram.words_corrupted",
     [](Sys s) { return s.sram_.stats().words_corrupted; });
  fn("sdram.parity_errors",
     [](Sys s) { return s.sdram_->stats().parity_errors; });
  fn("sdram.words_corrupted",
     [](Sys s) { return s.sdram_->stats().words_corrupted; });
  fn("sdram.adapter.parity_errors",
     [](Sys s) { return s.adapter_->stats().parity_errors; });

  // -- watchdog --
  fn("watchdog.trips", [](Sys s) { return s.wdog_.stats().trips; });
  fn("watchdog.kicks", [](Sys s) { return s.wdog_.stats().kicks; });

  // -- SDRAM controller / device / adapter --
  fn("sdram.handshakes",
     [](Sys s) { return s.sdram_ctrl_->stats().total_handshakes(); });
  fn("sdram.words64", [](Sys s) {
    const auto& st = s.sdram_ctrl_->stats();
    return st.words[0] + st.words[1] + st.words[2];
  });
  fn("sdram.wait_cycles",
     [](Sys s) { return s.sdram_ctrl_->stats().wait_cycles; });
  fn("sdram.row_hits", [](Sys s) { return s.sdram_->stats().row_hits; });
  fn("sdram.row_misses", [](Sys s) { return s.sdram_->stats().row_misses; });
  fn("sdram.row_conflicts",
     [](Sys s) { return s.sdram_->stats().row_conflicts; });
  fn("sdram.reads", [](Sys s) { return s.sdram_->stats().reads; });
  fn("sdram.writes", [](Sys s) { return s.sdram_->stats().writes; });
  fn("sdram.adapter.read_handshakes",
     [](Sys s) { return s.adapter_->stats().read_handshakes; });
  fn("sdram.adapter.write_handshakes",
     [](Sys s) { return s.adapter_->stats().write_handshakes; });
  fn("sdram.adapter.rmw_reads",
     [](Sys s) { return s.adapter_->stats().rmw_reads; });
  fn("sdram.adapter.wasted_words64",
     [](Sys s) { return s.adapter_->stats().wasted_words64; });

  // -- layered wrappers --
  fn("wrappers.cells_in", [](Sys s) { return s.wrappers_.stats().cells_in; });
  fn("wrappers.cells_out",
     [](Sys s) { return s.wrappers_.stats().cells_out; });
  fn("wrappers.frames_in",
     [](Sys s) { return s.wrappers_.stats().frames_in; });
  fn("wrappers.frames_out",
     [](Sys s) { return s.wrappers_.stats().frames_out; });
  fn("wrappers.ip_bad", [](Sys s) { return s.wrappers_.stats().ip_bad; });
  fn("wrappers.ip_wrong_addr",
     [](Sys s) { return s.wrappers_.stats().ip_wrong_addr; });
  fn("wrappers.udp_bad", [](Sys s) { return s.wrappers_.stats().udp_bad; });
  fn("wrappers.datagrams_in",
     [](Sys s) { return s.wrappers_.stats().datagrams_in; });
  fn("wrappers.datagrams_out",
     [](Sys s) { return s.wrappers_.stats().datagrams_out; });

  // -- control path --
  fn("leon_ctrl.commands", [](Sys s) { return s.ctrl_->stats().commands; });
  fn("leon_ctrl.bad_commands",
     [](Sys s) { return s.ctrl_->stats().bad_commands; });
  fn("leon_ctrl.chunks_loaded",
     [](Sys s) { return s.ctrl_->stats().chunks_loaded; });
  fn("leon_ctrl.duplicate_chunks",
     [](Sys s) { return s.ctrl_->stats().duplicate_chunks; });
  fn("leon_ctrl.programs_started",
     [](Sys s) { return s.ctrl_->stats().programs_started; });
  fn("leon_ctrl.programs_completed",
     [](Sys s) { return s.ctrl_->stats().programs_completed; });
  fn("leon_ctrl.watchdog_trips",
     [](Sys s) { return s.ctrl_->stats().watchdog_trips; });
  fn("leon_ctrl.parity_read_errors",
     [](Sys s) { return s.ctrl_->stats().parity_read_errors; });
  fn("leon_ctrl.last_run_cycles",
     [](Sys s) { return s.ctrl_->last_run_cycles(); });
  fn("leon_ctrl.state",
     [](Sys s) { return static_cast<u64>(s.ctrl_->state()); });
  fn("cpp.control_packets",
     [](Sys s) { return s.cpp_->control_packets(); });
  fn("cpp.passthrough_packets",
     [](Sys s) { return s.cpp_->passthrough_packets(); });
  fn("pktgen.emitted", [](Sys s) { return s.pktgen_->emitted(); });
  fn("pktgen.responses_dropped",
     [](Sys s) { return s.pktgen_->responses_dropped(); });
}

void LiquidSystem::ingress_frame(std::span<const u8> frame) {
  if (auto d = wrappers_.ingress_frame(frame)) {
    cpp_->ingress(*d);
    sync_watchdog();  // a Start command arms the budget from here
    // Control commands can complete without any CPU involvement (status,
    // read memory): drain the generator immediately.
    while (auto resp = pktgen_->pop()) {
      egress_.push_back(wrappers_.egress_frame(*resp));
    }
  }
  if (ingress_hook_) ingress_hook_();
}

std::optional<Bytes> LiquidSystem::egress_frame() {
  if (egress_.empty()) return std::nullopt;
  Bytes f = std::move(egress_.front());
  egress_.pop_front();
  return f;
}

cpu::StepResult LiquidSystem::step() {
  const Cycles before = clock_;
  const cpu::StepResult r = pipe_->step();
  if (tracer_ && r.is_instruction()) tracer_->on_step(r);
  if (pipe_->state().error_mode && clock_ == before) {
    // A halted core (trap with ET=0) stops retiring but its clock tree
    // keeps running — the watchdog and timers must still see time pass.
    clock_ += 1;
  }
  // The same sampled PC stream the window loop records (run_batched).
  if (flight_) flight_->record_retire(clock_, r.pc, 0);
  ctrl_->on_cpu_pc(r.pc);
  timer_.advance(clock_ - before);
  sync_watchdog();  // completion disarms before the budget is charged
  wdog_.advance(clock_ - before);
  periph_synced_at_ = clock_;  // per-step path leaves no backlog
  if (step_hook_armed_) step_hook_(r);
  while (auto resp = pktgen_->pop()) {
    egress_.push_back(wrappers_.egress_frame(*resp));
  }
  return r;
}

void LiquidSystem::drain_peripherals() {
  const Cycles delta = clock_ - periph_synced_at_;
  if (delta == 0) return;
  timer_.advance(delta);
  sync_watchdog();  // same ordering as the per-step path
  wdog_.advance(delta);
  periph_synced_at_ = clock_;
}

bool LiquidSystem::run_batched(u64 max_steps, const net::LeonState* until) {
  FlightRecorder* const fr = flight_.get();
  u64 i = 0;
  while (i < max_steps) {
    if (until != nullptr && ctrl_->state() == *until) return true;
    const bool halted = pipe_->state().error_mode;
    if (halted && !wdog_.armed()) break;

    // One window per pass: the pipeline runs until the next cycle at which
    // a peripheral does something observable (until then the per-step
    // advance calls are provably no-ops), an APB access (the next event
    // may be stale), the step budget, or a PC leon_ctrl acts on.
    periph_dirty_ = false;
    cpu::RunWindow w;
    w.max_steps = max_steps - i;
    Cycles delta = 0;
    if (timer_.next_event(delta)) w.deadline = periph_synced_at_ + delta;
    if (wdog_.armed()) {
      w.deadline = std::min(w.deadline, periph_synced_at_ + wdog_.remaining());
    }
    w.stop_flag = &periph_dirty_;
    // leon_ctrl only inspects PCs while a program is Running, and then acts
    // only on those below user_code_min (completion); every PC at or above
    // it just arms the completion watch.  So the window stops after a PC
    // below the fence, and on_cpu_pc sees the window's first PC (which,
    // in a window of more than one step, is a user PC) and its last.
    const bool track_pc = ctrl_->state() == net::LeonState::kRunning;
    if (track_pc) w.pc_fence = ctrl_->user_code_min();
    // The recorder samples every Nth step: end the window on the next one.
    const u32 due = fr != nullptr ? fr->retires_until_sample() : 0;
    if (due != 0) w.max_steps = std::min<u64>(w.max_steps, due);

    const Addr first_pc = pipe_->state().pc;
    u64 n = 0;
    Addr last_pc = first_pc;
    if (!halted) {
      n = pipe_->run(w);
      last_pc = pipe_->last_run_pc();
    } else {
      // A halted core (error mode, watchdog armed) retires nothing, but its
      // clock tree keeps running — one cycle per step, at its frozen PC.
      n = clock_ < w.deadline ? std::min<u64>(w.max_steps, w.deadline - clock_)
                              : 1;
      if (first_pc < w.pc_fence) n = 1;
      clock_ += n;
    }
    i += n;
    if (fr != nullptr) fr->record_retires(n, clock_, last_pc);
    if (track_pc && n != 0) {
      ctrl_->on_cpu_pc(first_pc);
      if (last_pc != first_pc) ctrl_->on_cpu_pc(last_pc);
    }

    // Window boundary: everything the per-step path does after a step, in
    // the same order, over the accumulated delta.
    drain_peripherals();
    while (auto resp = pktgen_->pop()) {
      egress_.push_back(wrappers_.egress_frame(*resp));
    }
  }
  return until != nullptr && ctrl_->state() == *until;
}

bool LiquidSystem::run_steps(u64 max_steps, const net::LeonState* until) {
  for (u64 i = 0; i < max_steps; ++i) {
    if (until != nullptr && ctrl_->state() == *until) return true;
    // A CPU in error mode normally ends the run, but while the watchdog is
    // armed time must keep flowing so the trip (and its error packet) can
    // happen — that is the §4.1 recovery story.
    if (pipe_->state().error_mode && !wdog_.armed()) break;
    step();
  }
  return until != nullptr && ctrl_->state() == *until;
}

void LiquidSystem::run(u64 max_steps) {
  if (slow_run_path()) {
    run_steps(max_steps, nullptr);
  } else {
    run_batched(max_steps, nullptr);
  }
}

bool LiquidSystem::run_until(net::LeonState state, u64 max_steps) {
  return slow_run_path() ? run_steps(max_steps, &state)
                         : run_batched(max_steps, &state);
}

void LiquidSystem::reconfigure(const cpu::PipelineConfig& pcfg) {
  const double t0 = job_trace_.now_us();
  metrics_.counter("sim.reconfigurations").inc();
  cfg_.pipeline = pcfg;
  pipe_ = std::make_unique<cpu::LeonPipeline>(
      pcfg, bus_, &clock_, cpu::Cacheable::kMemoryMap, switch_.get());
  pipe_->reset(map::kRomBase);
  job_trace_.phase("reconfigure", t0, job_trace_.now_us(), clock_, clock_);
}

void LiquidSystem::reset_cpu() {
  pipe_->reset(map::kRomBase);
}

void LiquidSystem::enable_trace_stream(net::Ipv4Addr dst_ip, u16 dst_port,
                                       std::size_t batch) {
  tracer_ = std::make_unique<net::TraceStreamer>(
      [this, dst_ip, dst_port](Bytes payload) {
        net::UdpDatagram d;
        d.src_ip = cfg_.node_ip;
        d.src_port = net::kTracePort;
        d.dst_ip = dst_ip;
        d.dst_port = dst_port;
        d.payload = std::move(payload);
        egress_.push_back(wrappers_.egress_frame(d));
      },
      batch);
}

void LiquidSystem::flush_trace_stream() {
  if (tracer_) tracer_->flush();
}

void LiquidSystem::disable_trace_stream() {
  if (tracer_) {
    tracer_->flush();
    tracer_.reset();
  }
}

std::string LiquidSystem::take_flight_dump(const std::string& reason) const {
  if (!flight_) return {};
  return flight_->to_json(reason, clock_);
}

void LiquidSystem::on_ctrl_transition(net::LeonState prev,
                                      net::LeonState next) {
  if (job_trace_.active()) {
    // Span edges follow the leon_ctrl state machine: LOADING brackets the
    // user-port program download, RUNNING the measured execution window
    // (Start -> return to the polling loop, the §5 measurement), so the
    // run span covers exactly last_run_cycles().
    const double now = job_trace_.now_us();
    if (prev == net::LeonState::kLoading || prev == net::LeonState::kRunning) {
      job_trace_.phase(prev == net::LeonState::kLoading ? "program.load"
                                                        : "program.run",
                       episode_us_, now, episode_cycle_, clock_);
    }
    if (next == net::LeonState::kLoading || next == net::LeonState::kRunning) {
      episode_us_ = now;
      episode_cycle_ = clock_;
    }
    if (next == net::LeonState::kError) {
      job_trace_.phase("leon_ctrl.error", now, now, clock_, clock_);
    }
  }
  // The trip latch is node state (snapshot() saves it), so it advances
  // whether or not a recorder is armed.
  bool tripped = false;
  if (next == net::LeonState::kError) {
    const u64 trips = ctrl_->stats().watchdog_trips;
    tripped = trips != seen_wdog_trips_;
    seen_wdog_trips_ = trips;
  }
  if (!flight_) return;
  flight_->record(clock_, FlightEventKind::kCtrlState,
                  static_cast<u64>(prev), static_cast<u64>(next));
  if (next != net::LeonState::kError) return;
  // Post-mortem: the error transition just landed in the ring, the PC the
  // processor is wedged at is its current architectural PC.  A trip-driven
  // error gets a kWatchdog event; a forced error only the transition.
  if (tripped) {
    flight_->record(clock_, FlightEventKind::kWatchdog, pipe_->state().pc,
                    cfg_.watchdog_budget);
  }
  last_flight_dump_ =
      flight_->to_json(tripped ? "watchdog" : "ctrl_error", clock_);
}

void LiquidSystem::sync_watchdog() {
  if (cfg_.watchdog_budget == 0) return;
  const net::LeonState s = ctrl_->state();
  if (s == wdog_state_) return;
  if (s == net::LeonState::kRunning) {
    wdog_.arm(cfg_.watchdog_budget);
  } else {
    wdog_.disarm();
  }
  wdog_state_ = s;
}

}  // namespace la::sim
