#include "liquid/reconfig_server.hpp"

#include <cstdio>

#include "common/snapio.hpp"

namespace la::liquid {
namespace {

/// Bitstream download rate over the network/SelectMap path — sets the
/// reconfiguration latency (XCV2000E ~1.27 MB at ~5 MB/s: ~0.25 s).
constexpr double kReprogramBytesPerSecond = 5e6;

/// Content digest for the program-level warm-start pool key: two jobs share
/// a post-LOAD snapshot only when bytes, base and entry all agree.
std::string program_digest(const sasm::Image& img) {
  u64 h = snap_fnv1a(img.data.data(), img.data.size());
  const u64 mix[2] = {static_cast<u64>(img.base), static_cast<u64>(img.entry)};
  h = snap_fnv1a(reinterpret_cast<const u8*>(mix), sizeof mix, h);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

ReconfigurationServer::ReconfigurationServer(sim::LiquidSystem& node,
                                             ReconfigurationCache& cache,
                                             const SynthesisModel& syn,
                                             ServerConfig cfg)
    : node_(node), cache_(cache), syn_(syn), cfg_(cfg) {
  // Bridge the off-node reconfiguration subsystem into the node's metrics
  // registry: one snapshot then covers the whole Fig 1 loop.
  auto& m = node_.metrics();
  if (cfg_.bridge_cache_metrics) {
    m.register_fn("reconfig_cache.hits", [this] {
      return static_cast<double>(cache_.stats().hits);
    });
    m.register_fn("reconfig_cache.misses", [this] {
      return static_cast<double>(cache_.stats().misses);
    });
    m.register_fn("reconfig_cache.evictions", [this] {
      return static_cast<double>(cache_.stats().evictions);
    });
    m.register_fn("reconfig_cache.failed_synth", [this] {
      return static_cast<double>(cache_.stats().failed_synth);
    });
    m.register_fn("reconfig_cache.synth_seconds",
                  [this] { return cache_.stats().synth_seconds; });
    m.register_fn("reconfig_cache.size", [this] {
      return static_cast<double>(cache_.size());
    });
  }
  m.register_fn("reconfig_server.jobs", [this] {
    return static_cast<double>(stats_.jobs);
  });
  m.register_fn("reconfig_server.failures", [this] {
    return static_cast<double>(stats_.failures);
  });
  m.register_fn("reconfig_server.reconfigurations", [this] {
    return static_cast<double>(stats_.reconfigurations);
  });
  m.register_fn("reconfig_server.reprogram_seconds",
                [this] { return stats_.reprogram_seconds; });
  m.register_fn("reconfig_server.warm_starts", [this] {
    return static_cast<double>(stats_.warm_starts);
  });
}

ReconfigurationServer::~ReconfigurationServer() {
  node_.metrics().unregister_prefix("reconfig_cache.");
  node_.metrics().unregister_prefix("reconfig_server.");
}

JobResult ReconfigurationServer::run_job(const ArchConfig& arch,
                                         const sasm::Image& program,
                                         Addr result_addr, u16 result_words,
                                         TraceAnalyzer* analyzer,
                                         trace::JobTrace jt) {
  JobResult r;
  r.config = arch;
  ++stats_.jobs;

  if (!arch.valid()) {
    ++stats_.failures;
    r.error = "invalid architecture configuration";
    const double now = jt.now_us();
    jt.phase("error", now, now, node_.now(), node_.now(), r.error);
    return r;
  }

  // 1. Obtain the bitfile (cache hit or ~1 h synthesis).
  const double syn_t0 = jt.now_us();
  const auto got = cache_.get_or_synthesize(arch, syn_);
  r.bitfile_cache_hit = got.hit;
  r.synthesis_seconds = got.seconds;
  jt.phase("synthesis", syn_t0, jt.now_us(), node_.now(), node_.now(),
           got.hit ? "cache_hit" : "synthesized " + arch.key());
  if (!got.bitfile.has_value()) {
    ++stats_.failures;
    r.error = "configuration does not fit the device";
    const double now = jt.now_us();
    jt.phase("error", now, now, node_.now(), node_.now(), r.error);
    return r;
  }
  // Honest per-config latency: the node clocks at this image's fmax.
  if (got.bitfile->utilization.fmax_mhz > 0.0) {
    r.clock_mhz = got.bitfile->utilization.fmax_mhz;
  }

  // 2. Reprogram the FPGA if the loaded image differs.  The download time
  //    is always charged — the FPGA really is rewritten — but with a
  //    warm-start pool attached the simulated post-reprogram boot is
  //    skipped whenever a sibling already captured a post-boot snapshot of
  //    this architecture.
  if (!(current_ == arch)) {
    const double cfg_t0 = jt.now_us();
    const Cycles cfg_c0 = node_.now();
    const std::string boot_key = "boot|" + arch.key();
    bool warm_boot = false;
    if (warm_pool_ != nullptr) {
      if (auto snap = warm_pool_->get(boot_key)) {
        // The snapshot carries its capture moment; this node's local time
        // must stay monotonic across the adoption.
        const Cycles wall = node_.now();
        warm_boot = node_.restore(*snap);
        node_.warp_clock_forward(wall);
      }
    }
    if (warm_boot) {
      r.warm_start = true;
      ++stats_.warm_starts;
    } else {
      node_.reconfigure(arch.to_pipeline());
      node_.run(100);  // let the fresh boot reach its polling loop
      // Donate the post-boot state — but never a poisoned one: a snapshot
      // of a wedged CPU restored fleet-wide would spread the fault to
      // every node with an affinity miss.
      if (warm_pool_ != nullptr && !node_.cpu().wedged()) {
        warm_pool_->put(boot_key, node_.snapshot());
      }
    }
    r.reconfigured = true;
    r.reprogram_seconds = static_cast<double>(got.bitfile->size_bytes) /
                          kReprogramBytesPerSecond;
    stats_.reprogram_seconds += r.reprogram_seconds;
    ++stats_.reconfigurations;
    current_ = arch;
    jt.phase("reconfigure", cfg_t0, jt.now_us(), cfg_c0, node_.now(),
             warm_boot ? arch.key() + " warm_start" : arch.key());
  }

  // 3. Load and execute over the control network.
  ctrl::LiquidClient client(node_, cfg_.client);
  client.set_job_trace(jt);
  net::TraceReceiver trace_rx;
  if (analyzer != nullptr) {
    // Profile the application, not the boot ROM's polling spin.
    analyzer->set_focus(mem::map::kSramBase,
                        mem::map::kSramBase + node_.config().sram_size - 1);
    if (cfg_.stream_traces) {
      // The node instruments itself and streams trace datagrams to us.
      node_.enable_trace_stream(cfg_.client.client_ip, net::kTracePort);
      client.set_extra_frame_handler([&](const net::UdpDatagram& d) {
        if (d.dst_port != net::kTracePort) return;
        for (const auto& t : trace_rx.ingest(d.payload)) {
          analyzer->ingest(t);
        }
      });
    } else {
      node_.set_step_hook([analyzer](const cpu::StepResult& s) {
        if (s.is_instruction()) {
          analyzer->ingest(net::TraceRecord::from_step(s));
        }
      });
    }
  }
  // With a pool attached the load/start/await sequence is decomposed so the
  // pool can be consulted — and fed — between the phases: a post-LOAD
  // snapshot of this exact (architecture, program) pair replaces the whole
  // chunked network load with one restore.
  const ctrl::Status ran = [&]() -> ctrl::Status {
    if (warm_pool_ == nullptr) {
      node_.cpu().reset_stats();
      return client.run_program(program);
    }
    const std::string prog_key =
        "prog|" + arch.key() + "|" + program_digest(program);
    const double load_t0 = jt.now_us();
    const Cycles load_c0 = node_.now();
    bool warm_loaded = false;
    if (auto snap = warm_pool_->get(prog_key)) {
      const Cycles wall = node_.now();  // monotonic time, as above
      warm_loaded = node_.restore(*snap);
      node_.warp_clock_forward(wall);
    }
    if (warm_loaded) {
      r.warm_start = true;
      ++stats_.warm_starts;
      node_.cpu().reset_stats();
      jt.phase("load", load_t0, jt.now_us(), load_c0, node_.now(),
               "warm_start");
    } else {
      node_.cpu().reset_stats();
      if (auto loaded = client.load_program(program); !loaded) return loaded;
      jt.phase("load", load_t0, jt.now_us(), load_c0, node_.now());
      // Same poison guard as the boot pool: a wedge that landed during
      // the load must not become every sibling's starting state.
      if (!node_.cpu().wedged()) {
        warm_pool_->put(prog_key, node_.snapshot());
      }
    }
    if (auto started = client.start(program.entry); !started) return started;
    return client.await_done(10'000'000);
  }();
  if (analyzer != nullptr) {
    if (cfg_.stream_traces) {
      node_.flush_trace_stream();
      client.drain_downlink();
      node_.disable_trace_stream();
    } else {
      node_.set_step_hook({});
    }
  }
  if (!ran) {
    ++stats_.failures;
    r.node_fault = true;
    r.error = "program did not complete: " + ran.error().to_string();
    return r;
  }
  // Timed exactly as the paper does it: the hardware state machine counts
  // cycles from Start to the return into the polling loop.
  r.cycles = node_.controller().last_run_cycles();

  // 4. Read the results back.
  if (result_words > 0) {
    const double rb_t0 = jt.now_us();
    const Cycles rb_c0 = node_.now();
    const auto mem = client.read_memory(result_addr, result_words);
    if (!mem) {
      ++stats_.failures;
      r.node_fault = true;
      r.error = "readback failed";
      const double now = jt.now_us();
      jt.phase("error", now, now, node_.now(), node_.now(), r.error);
      return r;
    }
    r.readback = *mem;
    jt.phase("readback", rb_t0, jt.now_us(), rb_c0, node_.now());
  }
  r.ok = true;
  return r;
}

}  // namespace la::liquid
