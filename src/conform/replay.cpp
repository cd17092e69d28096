#include "conform/replay.hpp"

#include "bus/ahb.hpp"
#include "common/hex.hpp"
#include "conform/generator.hpp"
#include "cpu/flat_memory.hpp"
#include "cpu/integer_unit.hpp"
#include "cpu/leon_pipeline.hpp"
#include "mem/sram.hpp"

namespace la::conform {

const char* leg_name(Leg leg) {
  switch (leg) {
    case Leg::kIu: return "iu";
    case Leg::kPipeSlow: return "pipe-slow";
    case Leg::kPipeFast: return "pipe-fast";
    case Leg::kPipeRun: return "pipe-run";
  }
  return "?";
}

bool leg_from_name(const std::string& name, Leg& out) {
  for (const Leg l : kAllLegs) {
    if (name == leg_name(l)) {
      out = l;
      return true;
    }
  }
  return false;
}

namespace {


/// What a leg produced; compared field-by-field against the vector.
struct RunOutcome {
  ArchState got;
  bool trapped = false;
  u8 tt = 0;
  u64 cycles = 0;
};

void note_trap(RunOutcome& o, const cpu::StepResult& r) {
  if (r.trapped) {
    o.trapped = true;
    o.tt = r.tt;
  }
}

RunOutcome run_iu(const TestVector& v) {
  cpu::FlatMemory flat(kVecMemSize, kVecMemBase);
  for (const auto& [a, w] : v.pre.mem) flat.write(a, 4, w);
  for (const auto& [a, w] : v.code) flat.write(a, 4, w);

  cpu::IntegerUnit iu(v.cfg.cpu_config(), flat);
  iu.reset(v.pre.pc);
  apply_state(v.pre, iu.state());

  RunOutcome o;
  for (int i = 0; i < v.steps; ++i) note_trap(o, iu.step());
  o.cycles = iu.cycle_count();
  o.got = capture_state(iu.state());
  for (const auto& [a, want] : v.post.mem) {
    (void)want;
    o.got.mem[a] = flat.word_at(a);
  }
  return o;
}

/// Fill the lines holding the addresses of `words` ((address, word)
/// pairs) into `c` from the bus, as a miss would: the bytes are memory's,
/// so the fill is architecturally invisible.
void fill_lines(cache::Cache& c, bus::AhbBus& bus, bus::Master master,
                const auto& words) {
  for (const auto& [a, w] : words) {
    (void)w;
    if (c.probe(a)) continue;
    const cache::AccessOutcome fill = c.access(a, /*is_write=*/false);
    bool error = false;
    bus.fill_line(master, fill.line_addr, c.config().line_bytes, fill.data,
                  error);
    if (error) c.invalidate_line(a);
  }
}

// `run` selects the pipe-run leg: the vector's code lines are filled into
// the I-cache and its data lines into the D-cache first, so run() meets
// them resident and executes through the line tier, its loads through
// the D-cache hit path (a cold fetch would take the per-step miss path).
// run() hands back no step results, so the trap outcome comes from the
// pipeline's own bookkeeping: the trap counter and the tt field
// take_trap latches into TBR (the last trap wins, as in note_trap).
RunOutcome run_pipe(const TestVector& v, bool fast, bool run = false) {
  mem::Sram sram(kVecMemBase, kVecMemSize);
  bus::AhbBus bus;
  bus.attach(kVecMemBase, kVecMemSize, &sram);
  Cycles clock = 0;

  cpu::PipelineConfig pcfg;
  pcfg.cpu = v.cfg.cpu_config();
  pcfg.host_fast_paths = fast;
  cpu::LeonPipeline pipe(pcfg, bus, &clock, cpu::Cacheable::kEverything);
  pipe.reset(v.pre.pc);
  apply_state(v.pre, pipe.state());
  for (const auto& [a, w] : v.pre.mem) sram.backdoor_write_word(a, w);
  for (const auto& [a, w] : v.code) sram.backdoor_write_word(a, w);

  RunOutcome o;
  if (run) {
    fill_lines(pipe.icache(), bus, bus::Master::kCpuInstr, v.code);
    fill_lines(pipe.dcache(), bus, bus::Master::kCpuData, v.pre.mem);
    pipe.run(static_cast<u64>(v.steps));
    o.trapped = pipe.stats().traps != 0;
    if (o.trapped) o.tt = pipe.state().tbr_tt();
  } else {
    for (int i = 0; i < v.steps; ++i) note_trap(o, pipe.step());
  }
  pipe.flush_caches();  // write-back configs: memory = architectural view
  o.cycles = pipe.stats().cycles;
  o.got = capture_state(pipe.state());
  for (const auto& [a, want] : v.post.mem) {
    (void)want;
    o.got.mem[a] = sram.backdoor_word(a);
  }
  return o;
}

}  // namespace

std::string replay_vector(const TestVector& v, Leg leg) {
  const bool iu = leg == Leg::kIu;
  const RunOutcome o =
      iu ? run_iu(v)
         : run_pipe(v, leg != Leg::kPipeSlow, leg == Leg::kPipeRun);

  const std::string tag = v.name + " [" + leg_name(leg) + "] ";
  if (auto d = diff_states(o.got, v.post); !d.empty()) return tag + d;
  if (o.trapped != v.ref.trapped) {
    return tag + "trapped: " + (o.trapped ? "1" : "0") + " vs " +
           (v.ref.trapped ? "1" : "0");
  }
  if (o.trapped && o.tt != v.ref.tt) {
    return tag + "tt: " + hex8(o.tt) + " vs " + hex8(v.ref.tt);
  }
  if (iu && o.cycles != v.ref.cycles) {
    return tag + "cycles: " + std::to_string(o.cycles) + " vs " +
           std::to_string(v.ref.cycles);
  }
  return "";
}

std::string replay_vector_all(const TestVector& v) {
  for (const Leg leg : kAllLegs) {
    if (auto d = replay_vector(v, leg); !d.empty()) return d;
  }
  return "";
}

}  // namespace la::conform
