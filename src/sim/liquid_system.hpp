// The complete Liquid processor node (Fig 3): LEON pipeline + caches on
// AHB, boot ROM, SRAM behind the disconnect switch, SDRAM behind the
// FPX controller/adapter, APB peripherals, layered protocol wrappers,
// control packet processor, leon_ctrl, and packet generator — one clocked
// system with a network ingress/egress on the outside.
//
// Observation never steers the simulation: the metrics registry is read on
// demand, the flight recorder samples on the window loop's own cadence,
// and an attached job trace (set_job_trace) logs the leon_ctrl episodes
// from the state observer, so a traced node runs exactly the untraced
// cycles.
#pragma once

#include <memory>
#include <optional>

#include "bus/apb.hpp"
#include "bus/peripherals.hpp"
#include "bus/watchdog.hpp"
#include "common/metrics.hpp"
#include "common/span_log.hpp"
#include "cpu/leon_pipeline.hpp"
#include "mem/ahb_sdram_adapter.hpp"
#include "mem/boot_rom.hpp"
#include "mem/disconnect.hpp"
#include "mem/memory_map.hpp"
#include "mem/sdram.hpp"
#include "mem/sram.hpp"
#include "net/channel.hpp"
#include "net/leon_ctrl.hpp"
#include "net/trace_stream.hpp"
#include "net/wrappers.hpp"
#include "sim/flight_recorder.hpp"

namespace la::sim {

struct SystemSnapshot;  // sim/snapshot.hpp

struct SystemConfig {
  cpu::PipelineConfig pipeline;
  net::Ipv4Addr node_ip = net::make_ip(192, 168, 100, 10);
  u16 node_port = net::kLeonControlPort;
  mem::SramTiming sram_timing;
  mem::SdramTiming sdram_timing;
  mem::AdapterConfig adapter;
  u32 sram_size = mem::map::kSramSize;
  u32 sdram_size = 1u << 22;  // 4 MiB simulated module (64 MiB is legal
                              // but pointlessly large for the workloads)
  u8 timer_irq_level = 8;
  /// Cycle budget the watchdog grants a started program; it is armed on
  /// Start and disarmed on completion, and trips the §4.1 error path when
  /// the budget runs out first.  0 disables the watchdog entirely.
  u64 watchdog_budget = 0;
  /// Boot the *original* LEON ROM (waits for a UART event, Fig 5 left)
  /// instead of the paper's modified mailbox-polling ROM.  Remote program
  /// start does not work in this mode — that is the point of Fig 5.
  bool use_original_boot = false;
  /// Arm the black-box flight recorder: every Nth step's PC, leon_ctrl
  /// transitions, watchdog trips, injected-fault firings land in a fixed
  /// ring (FlightRecorder's default size and sample rate).  It does NOT
  /// force the per-step run path — the sample cadence bounds the run
  /// loop's windows, and each event is a few stores, so it can stay on in
  /// production.
  bool flight_recorder = false;
};

class LiquidSystem {
 public:
  explicit LiquidSystem(const SystemConfig& cfg = {});

  // ---- network side ----
  /// Deliver one IP frame from the wire into the wrappers.
  void ingress_frame(std::span<const u8> frame);
  /// Take one outbound IP frame, if any response is queued.
  std::optional<Bytes> egress_frame();

  // ---- time ----
  /// One processor step; advances peripherals and drains responses.  An
  /// instruction step (StepResult::is_instruction) goes to the trace
  /// stream; every step, instruction or not, goes to the step hook.
  cpu::StepResult step();
  /// Run up to `max_steps` instructions.
  void run(u64 max_steps);
  /// Run until leon_ctrl reaches `state` (true) or `max_steps` elapse.
  bool run_until(net::LeonState state, u64 max_steps);

  Cycles now() const { return clock_; }

  /// Hot-swap the processor micro-architecture: the paper's runtime
  /// reconfiguration.  Memory contents survive (they live off-chip); the
  /// processor restarts from the boot ROM.  Returns the configuration
  /// actually installed.
  void reconfigure(const cpu::PipelineConfig& pcfg);

  /// Reset the CPU to the boot ROM entry (leon_ctrl Restart path).
  void reset_cpu();

  // ---- snapshot/restore (sim/snapshot.cpp) ----
  /// Deep capture of the full architectural state: CPU windows/PSR/WIM/Y,
  /// wedge flag, pipeline latches, both caches (tags/LRU/parity/data/RNG),
  /// SRAM/SDRAM with parity shadows, bus + peripheral + watchdog state,
  /// the leon_ctrl state machine, queued egress, and the cycle counter.
  /// The result is a versioned binary blob that round-trips across
  /// processes (SystemSnapshot::serialize/deserialize).
  SystemSnapshot snapshot() const;
  /// Restore from a snapshot.  The coarse platform config (memory sizes,
  /// timings, boot ROM flavor) must match this system's; the *pipeline*
  /// configuration is adopted from the snapshot (rebuilding the pipeline
  /// if it differs — a restore is also a reconfiguration), while host-only
  /// knobs (the fast paths, run-loop batching included) keep this
  /// system's settings, so snapshots cross fast/slow configurations
  /// bit-identically.  On failure returns false, sets *err when given,
  /// and leaves the system in an unspecified but safe-to-reset state.
  bool restore(const SystemSnapshot& snap, std::string* err = nullptr);
  /// Jump the clock forward to `to` without executing anything; no-op when
  /// `to` is in the past.  Restoring a snapshot rewinds the clock to the
  /// capture moment, which is right for replay but wrong for a long-lived
  /// node adopting a pooled state (warm start): local time must stay
  /// monotonic or cycle-based accounting and cycle-triggered machinery
  /// run backwards.  The skipped span never happened — the timer and
  /// watchdog are not charged for it.
  void warp_clock_forward(Cycles to) {
    if (to <= clock_) return;
    clock_ = to;
    periph_synced_at_ = clock_;
  }

  /// Stream instrumented execution traces to `dst` as UDP datagrams (the
  /// paper's trace path to the Trace Analyzer): one record per
  /// instruction step, so the node runs the per-step path while a stream
  /// is on.  `batch` = records per datagram.
  void enable_trace_stream(net::Ipv4Addr dst_ip, u16 dst_port,
                           std::size_t batch = 100);
  /// Force out a partial trace batch (end of a measurement window).
  void flush_trace_stream();
  void disable_trace_stream();

  // ---- observability ----
  /// The node-wide metrics registry.  Every component counter is bridged
  /// in at construction under a hierarchical name (`cache.d.read_misses`,
  /// `sdram.wait_cycles`, ...); external subsystems (reconfiguration
  /// cache/server) attach and detach their own.
  metrics::MetricsRegistry& metrics() { return metrics_; }
  const metrics::MetricsRegistry& metrics() const { return metrics_; }
  /// Registry snapshot stamped with the node clock.
  metrics::Snapshot metrics_snapshot() const {
    return metrics_.snapshot(clock_);
  }

  /// Log this node's episodes as spans of `jt`'s job: program.load and
  /// program.run (the leon_ctrl Loading and Running states, stamped with
  /// host µs and the node cycles they cover), reconfigure, a zero-length
  /// leon_ctrl.error, and fault.<site> for injected faults.  An inactive
  /// JobTrace detaches.  Passive: the run path does not change.
  void set_job_trace(trace::JobTrace jt) { job_trace_ = jt; }
  const trace::JobTrace& job_trace() const { return job_trace_; }

  /// The flight recorder (SystemConfig::flight_recorder), or null.
  FlightRecorder* flight_recorder() { return flight_.get(); }

  /// Freeze the ring into a JSON dump ("" when no recorder is armed).
  std::string take_flight_dump(const std::string& reason) const;
  /// The automatic dump captured when leon_ctrl last entered kError
  /// (watchdog trip or forced error); empty until that happens.
  const std::string& last_flight_dump() const { return last_flight_dump_; }

  // ---- component access ----
  cpu::LeonPipeline& cpu() { return *pipe_; }
  const cpu::LeonPipeline& cpu() const { return *pipe_; }
  net::LeonController& controller() { return *ctrl_; }
  net::ControlPacketProcessor& cpp() { return *cpp_; }
  net::LayeredWrappers& wrappers() { return wrappers_; }
  mem::DisconnectSwitch& disconnect() { return *switch_; }
  mem::Sram& sram() { return sram_; }
  mem::SdramDevice& sdram_device() { return *sdram_; }
  mem::FpxSdramController& sdram_controller() { return *sdram_ctrl_; }
  mem::AhbSdramAdapter& sdram_adapter() { return *adapter_; }
  bus::AhbBus& ahb() { return bus_; }
  bus::Uart& uart() { return uart_; }
  bus::LeonTimer& timer() { return timer_; }
  bus::IrqController& irq() { return *irqctrl_; }
  bus::GpioPort& gpio() { return gpio_; }
  bus::Watchdog& watchdog() { return wdog_; }
  const SystemConfig& config() const { return cfg_; }

  // ---- per-step and fault-injection hooks ----
  /// Called after every step() with the step's result (clock already
  /// advanced, control state already observed), including the cycles of a
  /// halted or wedged core: the fault engine's cycle triggers need them.
  /// A per-instruction consumer (a direct trace analyzer) keeps the steps
  /// whose result is_instruction().  Arming it selects the per-step path.
  using StepHook = std::function<void(const cpu::StepResult&)>;
  void set_step_hook(StepHook h) {
    step_hook_ = std::move(h);
    // Cached armed flag: the per-step check is one predictable bool test
    // instead of a std::function emptiness probe, and the batched run
    // loop keys its slow-path fallback off it.
    step_hook_armed_ = static_cast<bool>(step_hook_);
  }
  /// Called at the end of every ingress_frame() (packet-count triggers).
  using IngressHook = std::function<void()>;
  void set_ingress_hook(IngressHook h) { ingress_hook_ = std::move(h); }

  /// Address user programs jump to when finished (the polling loop).
  Addr check_ready_addr() const {
    return mem::map::kRomBase + mem::kCheckReadyOffset;
  }

 private:
  /// Bridge every component's counters into the registry (constructor).
  void register_metrics();
  /// leon_ctrl state observer: log the episode spans of an attached job
  /// trace, record the transition in the flight recorder, and auto-dump on
  /// entry to kError (§4.1 post-mortem).
  void on_ctrl_transition(net::LeonState prev, net::LeonState next);
  /// Arm/disarm the watchdog as the leon_ctrl state machine moves (called
  /// from both step() and ingress_frame() — Start arrives on the network
  /// path, completion on the step path).
  void sync_watchdog();
  /// Catch the timer and watchdog up to `clock_` (batched run loops defer
  /// their advance; the per-step path keeps the backlog at zero, making
  /// this a no-op there).  Applies the same per-step ordering the slow
  /// path uses: timer, watchdog sync, watchdog charge.
  void drain_peripherals();
  /// Event loop shared by run()/run_until() with the host fast paths on:
  /// hands the pipeline whole windows between peripheral events.  `until`
  /// null = run to the step budget.  Returns whether `until` was reached.
  bool run_batched(u64 max_steps, const net::LeonState* until);
  /// The same contract one step() at a time: the slow_run_path() loop.
  bool run_steps(u64 max_steps, const net::LeonState* until);
  /// The per-step path: fast paths off (the reference configuration), or
  /// anything armed that must see every step.
  bool slow_run_path() const {
    return !cfg_.pipeline.host_fast_paths || step_hook_armed_ ||
           tracer_ != nullptr;
  }

  SystemConfig cfg_;
  Cycles clock_ = 0;

  bus::AhbBus bus_;
  mem::Sram sram_;
  std::unique_ptr<mem::DisconnectSwitch> switch_;
  std::unique_ptr<mem::SdramDevice> sdram_;
  std::unique_ptr<mem::FpxSdramController> sdram_ctrl_;
  std::unique_ptr<mem::AhbSdramAdapter> adapter_;
  std::unique_ptr<mem::BootRom> rom_;

  bus::ApbBridge bridge_;
  bus::Uart uart_;
  bus::LeonTimer timer_;
  std::unique_ptr<bus::IrqController> irqctrl_;
  bus::GpioPort gpio_;
  std::unique_ptr<bus::CycleCounter> cyc_;
  bus::Watchdog wdog_;

  std::unique_ptr<cpu::LeonPipeline> pipe_;

  net::LayeredWrappers wrappers_;
  std::unique_ptr<net::TraceStreamer> tracer_;
  std::unique_ptr<net::PacketGenerator> pktgen_;
  std::unique_ptr<net::LeonController> ctrl_;
  std::unique_ptr<net::ControlPacketProcessor> cpp_;
  std::deque<Bytes> egress_;

  metrics::MetricsRegistry metrics_;
  trace::JobTrace job_trace_;
  /// Host µs and node cycle at which the current Loading or Running
  /// episode began (the start of its span).
  double episode_us_ = 0;
  Cycles episode_cycle_ = 0;
  std::unique_ptr<FlightRecorder> flight_;
  std::string last_flight_dump_;
  /// Watchdog-trip count as of the last transition into kError
  /// (distinguishes a trip-driven kError from a forced one); kept with or
  /// without a recorder.
  u64 seen_wdog_trips_ = 0;
  /// Previous-window snapshot for the STATS_STREAM delta provider.
  metrics::Snapshot stream_prev_;
  net::LeonState wdog_state_ = net::LeonState::kIdle;
  StepHook step_hook_;
  bool step_hook_armed_ = false;
  IngressHook ingress_hook_;
  /// Cycle the timer/watchdog have been advanced to (== clock_ outside a
  /// batch; lags it inside one until drain_peripherals catches up).
  Cycles periph_synced_at_ = 0;
  /// Set by the APB access hook: a peripheral register was touched, so the
  /// current window's precomputed next-event cycle may be stale.
  bool periph_dirty_ = false;
};

}  // namespace la::sim
