#include "fuzz/fault_campaign.hpp"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "cpu/flat_memory.hpp"
#include "cpu/integer_unit.hpp"
#include "ctrl/client.hpp"
#include "fault/injector.hpp"
#include "fuzz/corpus.hpp"
#include "mem/memory_map.hpp"
#include "sasm/assembler.hpp"
#include "sim/liquid_system.hpp"

namespace la::fuzz {
namespace {

namespace fs = std::filesystem;

constexpr Addr kMemBase = 0x40000000;
constexpr u32 kMemSize = 1u << 20;

std::string write_text(const fs::path& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary);
  os << text;
  return path.string();
}

std::string hex32(u32 v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", v);
  return buf;
}

}  // namespace

const char* verdict_name(FaultVerdict v) {
  switch (v) {
    case FaultVerdict::kSkipped: return "skipped";
    case FaultVerdict::kMasked: return "masked";
    case FaultVerdict::kDetected: return "detected";
    case FaultVerdict::kLatent: return "latent";
    case FaultVerdict::kSilent: return "SILENT";
  }
  return "?";
}

FaultCampaign::FaultCampaign(const FaultCampaignConfig& cfg)
    : cfg_(cfg),
      rng_(cfg.seed ^ 0x6661756c745f3141ull),  // "fault_1A"
      fresh_seed_state_(cfg.seed) {}

fault::FaultPlan FaultCampaign::random_plan(u64 seed, Addr img_base,
                                            Addr img_end) {
  fault::FaultPlan plan;
  plan.seed = seed;
  Rng rng(seed);
  const u32 words =
      std::max<u32>(1, static_cast<u32>((img_end - img_base) / 4));
  const unsigned n = rng.between(1, cfg_.max_faults_per_run);
  for (unsigned i = 0; i < n; ++i) {
    fault::FaultEvent e;
    // Trigger: mostly a cycle somewhere between boot and a typical run's
    // end; sometimes the arrival of the Nth control packet (mid-load).
    if (rng.chance(0.75)) {
      e.trigger = {fault::TriggerKind::kCycle, 400 + rng.below(30'000)};
    } else {
      e.trigger = {fault::TriggerKind::kPacketCount, 1 + rng.below(10)};
    }
    // Campaign-safe site mix.  Memory words dominate: they exercise the
    // whole parity pipeline (detect on read, scrub on write, latent when
    // untouched).
    const u32 pick = rng.below(100);
    if (pick < 35) {
      e.action.site = fault::FaultSite::kSramWord;
      e.action.addr = img_base + 4ull * rng.below(words);
      e.action.mask = u64{1} << rng.below(32);
      if (rng.chance(0.3)) e.action.mask |= u64{1} << rng.below(32);
    } else if (pick < 45) {
      e.action.site = fault::FaultSite::kSdramWord;
      e.action.addr = mem::map::kSdramBase + 8ull * rng.below(4096);
      e.action.mask = u64{1} << rng.below(64);
    } else if (pick < 55) {
      e.action.site = rng.chance(0.5) ? fault::FaultSite::kICacheLine
                                      : fault::FaultSite::kDCacheLine;
      e.action.addr = img_base + 4ull * rng.below(words);
      e.action.arg = rng.below(4);      // byte within the word
      e.action.mask = rng.below(8);     // bit within the byte
    } else if (pick < 65) {
      e.action.site = fault::FaultSite::kAhbErrorPulse;
      e.action.arg = rng.between(1, 3);
    } else if (pick < 80) {
      e.action.site = fault::FaultSite::kCpuWedge;
      // Half the wedges release on their own (the watchdog must NOT have
      // tripped by then for the run to complete); half are permanent and
      // only the watchdog can turn them into a loud failure.
      e.action.arg = rng.chance(0.5) ? 0 : rng.between(1'000, 50'000);
    } else {
      const u32 c = rng.below(3);
      e.action.site = c == 0   ? fault::FaultSite::kChannelCorrupt
                      : c == 1 ? fault::FaultSite::kChannelTruncate
                               : fault::FaultSite::kChannelDelay;
      e.action.on_downlink = rng.chance(0.5);
      e.action.arg = rng.between(1, 4);  // delay rounds (others ignore it)
    }
    plan.events.push_back(e);
  }
  return plan;
}

FaultRunResult FaultCampaign::run_one(const ProgramSpec& spec,
                                      const fault::FaultPlan& plan) {
  FaultRunResult res;
  ++stats_.executions;

  sasm::Assembler as;
  sasm::AsmResult ar = as.assemble(spec.render());
  if (!ar.ok) {
    res.detail = "assembly failed";
    return res;
  }
  const sasm::Image& img = ar.image;
  Addr done = 0;
  Addr data = img.base;
  try {
    done = img.symbol(kDoneSymbol);
    data = img.symbol("data");
  } catch (const std::exception&) {
    res.detail = "missing done/data symbol";
    return res;
  }

  // ---- baseline: the functional reference, fault-free ------------------
  const u64 budget = 4096 + 16u * (img.data.size() / 4);
  cpu::FlatMemory flat(kMemSize, kMemBase);
  flat.load(img.base, img.data);
  cpu::IntegerUnit iu(cpu::CpuConfig{}, flat);
  iu.reset(img.entry);
  iu.run(budget, done);
  if (iu.state().pc != done || iu.state().error_mode) {
    res.detail = "program does not complete cleanly on the reference";
    return res;
  }

  // ---- the faulty leg: full node, lossy channels, injected plan --------
  sim::SystemConfig scfg;
  // Write-through data cache: the campaign's detected-or-masked guarantee
  // covers memory parity, and a poisoned *dirty* line discards a write
  // (detected via trap, but the lost store makes the baseline comparison
  // meaningless).  The write-back path is covered by unit tests.
  scfg.pipeline.dcache.write_policy =
      cache::WritePolicy::kWriteThroughNoAllocate;
  scfg.watchdog_budget = cfg_.watchdog_budget;
  // Detections and silent divergences come with a post-mortem JSON
  // (FaultRunResult::flight_dump, and a .flight.json next to each silent
  // repro).
  scfg.flight_recorder = true;
  sim::LiquidSystem node(scfg);
  node.run(300);  // boot ROM to its polling loop

  ctrl::ClientConfig ccfg;
  ccfg.deadline_steps = cfg_.run_max_steps;
  ccfg.uplink.drop = cfg_.channel_drop;
  ccfg.uplink.corrupt = cfg_.channel_corrupt;
  ccfg.uplink.seed = plan.seed ^ 0x75706c696e6bull;    // "uplink"
  ccfg.downlink.drop = cfg_.channel_drop;
  ccfg.downlink.corrupt = cfg_.channel_corrupt;
  ccfg.downlink.seed = plan.seed ^ 0x646f776e6cull;    // "downl"
  ctrl::LiquidClient client(node, ccfg);

  fault::FaultInjector inj(node, plan, &client.uplink_mut(),
                           &client.downlink_mut());

  const ctrl::Status run = client.run_program(img, cfg_.run_max_steps);
  res.faults_fired = inj.stats().injected;
  res.faults_landed = inj.stats().landed;
  stats_.faults_injected += inj.stats().injected;

  // Post-mortem for any classified failure: prefer the dump the node took
  // itself at the moment of the trip/error (tightest window around the
  // wedge PC); fall back to whatever the ring holds now.
  const auto black_box = [&](const char* reason) {
    res.flight_dump = node.last_flight_dump();
    if (res.flight_dump.empty()) res.flight_dump = node.take_flight_dump(reason);
  };

  if (!run) {
    res.verdict = FaultVerdict::kDetected;
    res.detail = run.error().to_string();
    black_box("detected");
    return res;
  }

  // The run reported success: the data region must MATCH the reference,
  // except where injected damage is still parity-flagged (latent — any
  // future read of those words traps/refuses, so nothing can consume the
  // wrong bits silently).
  bool latent = false;
  const Addr cmp_end = std::min<Addr>(data + kDataBytes, img.end());
  for (Addr addr = data; addr + 4 <= cmp_end; addr += 4) {
    u64 got = 0;
    if (!node.sram().debug_read(addr, 4, got)) {
      res.verdict = FaultVerdict::kSilent;
      res.detail = "data region unreadable at " + hex32(addr);
      black_box("silent_divergence");
      return res;
    }
    if (flat.word_at(addr) == static_cast<u32>(got)) continue;
    if (!node.sram().parity_ok(addr, 4)) {
      latent = true;
      continue;
    }
    res.verdict = FaultVerdict::kSilent;
    res.detail = "memory at data+" + std::to_string(addr - data) + ": " +
                 hex32(flat.word_at(addr)) + " vs " +
                 hex32(static_cast<u32>(got)) + " (parity clean)";
    black_box("silent_divergence");
    return res;
  }
  // Damage outside the data region that never got consumed is latent too
  // (program text shadowed by the icache, SDRAM words nothing read, ...).
  for (const fault::FiredRecord& f : inj.fired()) {
    if (f.landed && inj.parity_still_bad(f.event_index)) latent = true;
  }

  res.verdict = latent ? FaultVerdict::kLatent : FaultVerdict::kMasked;
  return res;
}

int FaultCampaign::run() {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  const bool timed = cfg_.budget_secs > 0;
  const u64 max_iters =
      cfg_.max_iterations ? cfg_.max_iterations : (timed ? ~0ull : 32);

  for (u64 iter = 0; iter < max_iters; ++iter) {
    if (timed) {
      const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
          Clock::now() - start);
      if (elapsed.count() >= cfg_.budget_secs) break;
    }
    ++stats_.iterations;

    GenOptions opts;
    opts.mode = ProgramMode::kSystem;
    opts.instructions = cfg_.program_chunks;
    opts.seed = splitmix64(fresh_seed_state_);
    ProgramGenerator gen(opts.seed);
    ProgramSpec spec = gen.generate(opts);

    // The plan needs the image footprint to aim at.
    sasm::Assembler as;
    sasm::AsmResult ar = as.assemble(spec.render());
    if (!ar.ok) {
      note("generator produced unassemblable program (seed " +
           std::to_string(opts.seed) + ")");
      ++stats_.skipped;
      continue;
    }
    const fault::FaultPlan plan = random_plan(splitmix64(fresh_seed_state_),
                                              ar.image.base, ar.image.end());

    const FaultRunResult r = run_one(spec, plan);
    switch (r.verdict) {
      case FaultVerdict::kSkipped: ++stats_.skipped; break;
      case FaultVerdict::kMasked: ++stats_.masked; break;
      case FaultVerdict::kDetected: ++stats_.detected; break;
      case FaultVerdict::kLatent: ++stats_.latent; break;
      case FaultVerdict::kSilent:
        ++stats_.silent;
        handle_silent(spec, plan, r.detail, r.flight_dump);
        if (cfg_.stop_on_silent) {
          note(finish_line());
          return 1;
        }
        break;
    }
    if (cfg_.verbose && r.verdict != FaultVerdict::kSkipped) {
      note("iter " + std::to_string(stats_.iterations) + ": " +
           verdict_name(r.verdict) +
           (r.detail.empty() ? "" : " (" + r.detail + ")") + ", " +
           std::to_string(r.faults_fired) + " fault(s) fired");
    }
  }

  note(finish_line());
  return failures_.empty() ? 0 : 1;
}

void FaultCampaign::handle_silent(const ProgramSpec& spec,
                                  const fault::FaultPlan& plan,
                                  const std::string& detail,
                                  const std::string& flight_dump) {
  note("SILENT divergence: " + detail);
  FaultFailure fail;
  fail.spec = spec;
  fail.minimized = spec;
  fail.plan = plan;
  fail.detail = detail;
  fail.flight_dump = flight_dump;

  if (cfg_.minimize_failures) {
    const auto still_fails = [&](const ProgramSpec& cand) {
      return run_one(cand, plan).verdict == FaultVerdict::kSilent;
    };
    fail.minimized = minimize(spec, still_fails, &fail.min_stats);
    note("minimized " + std::to_string(fail.min_stats.initial_chunks) +
         " -> " + std::to_string(fail.min_stats.final_chunks) + " chunks (" +
         std::to_string(fail.min_stats.probes) + " probes)");
  }

  if (!cfg_.out_dir.empty()) {
    std::error_code ec;
    fs::create_directories(cfg_.out_dir, ec);
    const std::string tag =
        "fault-" + std::to_string(failures_.size()) + "-" +
        std::to_string(fnv1a64(fail.spec.render()) & 0xffffffull);
    const fs::path base = fs::path(cfg_.out_dir) / tag;
    fail.repro_path = write_text(base.string() + ".s", fail.spec.render());
    write_text(base.string() + ".plan.txt",
               fail.plan.to_string() + "# " + fail.detail + "\n");
    if (!fail.flight_dump.empty()) {
      write_text(base.string() + ".flight.json", fail.flight_dump);
    }
    if (cfg_.minimize_failures) {
      fail.minimized_path =
          write_text(base.string() + ".min.s", fail.minimized.render());
    }
    note("repro written to " + fail.repro_path);
  }

  failures_.push_back(std::move(fail));
}

std::string FaultCampaign::finish_line() const {
  return "done: " + std::to_string(stats_.iterations) + " iterations, " +
         std::to_string(stats_.faults_injected) + " faults injected; " +
         std::to_string(stats_.masked) + " masked, " +
         std::to_string(stats_.detected) + " detected, " +
         std::to_string(stats_.latent) + " latent, " +
         std::to_string(stats_.silent) + " SILENT, " +
         std::to_string(stats_.skipped) + " skipped";
}

void FaultCampaign::note(const std::string& line) const {
  if (cfg_.verbose) std::cerr << "[lfuzz:faults] " << line << "\n";
}

}  // namespace la::fuzz
