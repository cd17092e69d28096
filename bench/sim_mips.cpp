// Host-throughput trajectory bench: how many simulated instructions per
// wall-clock second each execution model sustains.  The pipeline and the
// node are measured with their host fast paths
// (PipelineConfig::host_fast_paths) on, the default configuration, and
// off, the per-step reference; with them on the pipeline runs its line
// tier.  The functional model has no fast tier, so it gets one row, with
// `fast_paths: false`.
//
// Five workloads: `alu_loop`, a 5-instruction ALU/branch loop, on every
// model; three progs/ kernels looped forever on the full node: `crc32`,
// progs/crc32.s (branchy, data-dependent, with a load per byte and
// cycle-counter APB accesses per pass), `stream`, progs/stream.s
// (copy/scale/add/triad over three 1 KB arrays in SRAM, so the 1 KB
// D-cache misses and every store goes through the write buffer), and
// `memtest`, progs/memtest.s (walking patterns over 16 KB of SDRAM: every
// store and line fill goes through the AHB/SDRAM adapter); and
// `idle_poll` on the node: a program that has returned, leaving the boot
// ROM spinning in its mailbox poll (a flush, then a load that misses)
// with the disconnect switch open, as after every farm job.
//
// Emits BENCH_sim.json (override with --out), one row per measurement.
// Each row splits its --secs budget into five equal samples and records
// the median rate with the samples' min and max, plus the build type, the
// source commit the build was configured from (`git describe --always
// --dirty`), and the host's core count:
//
//   {"model": "leon_pipeline", "workload": "alu_loop", "fast_paths": true,
//    "host_mips": 206.1, "host_mips_min": 185.5, "host_mips_max": 225.2,
//    "samples": 5, "cycles_per_sec": 2.5e8, "instructions": 206100000,
//    "secs": 1.0, "build_type": "Release", "commit": "cd93bc811c7f",
//    "nproc": 4}
//
// `host_mips` is millions of simulated instructions retired per host
// second; `cycles_per_sec` is simulated cycles per host second (the
// number that sizes a wall-clock experiment budget).  The schema is
// documented in docs/PERFORMANCE.md; CI uploads the file as the perf
// trajectory artifact.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bus/ahb.hpp"
#include "cpu/flat_memory.hpp"
#include "cpu/integer_unit.hpp"
#include "cpu/leon_pipeline.hpp"
#include "ctrl/client.hpp"
#include "mem/sram.hpp"
#include "sasm/assembler.hpp"
#include "sim/liquid_system.hpp"

namespace {

using namespace la;

using Clock = std::chrono::steady_clock;

/// The measured workload: an ALU/branch loop long enough to never finish
/// inside a measurement budget, so every timed step is steady-state user
/// code.  The bare models run it at 0x100; the system copy lives in SDRAM
/// like a real remotely loaded program.
const char* kLoop = R"(
    .org 0x100
_start:
    set 2000000000, %g1
loop:
    subcc %g1, 1, %g1
    xor %g2, %g1, %g2
    add %g3, %g2, %g3
    bne loop
    nop
done: ba done
    nop
)";

const char* kSystemLoop = R"(
    .org 0x40000100
_start:
    set 2000000000, %g1
loop:
    subcc %g1, 1, %g1
    xor %g2, %g1, %g2
    add %g3, %g2, %g3
    bne loop
    nop
done: ba done
    nop
)";

#ifndef LA_PROGS_DIR
#error "LA_PROGS_DIR must point at the progs/ directory"
#endif
#ifndef LA_BUILD_TYPE
#define LA_BUILD_TYPE "unknown"
#endif
#ifndef LA_COMMIT
#define LA_COMMIT "unknown"
#endif

/// progs/<workload>.s, made endless: its final jump back to the boot
/// ROM's polling loop becomes a branch to its own entry, so every timed
/// step is the kernel (and a program Start is needed only once).
std::string kernel_forever(const std::string& workload) {
  const std::string file = "progs/" + workload + ".s";
  std::ifstream in(std::string(LA_PROGS_DIR) + "/" + workload + ".s");
  std::stringstream ss;
  ss << in.rdbuf();
  std::string src = ss.str();
  const std::string from = "jmp 0x40";
  const std::size_t at = src.find(from);
  if (at == std::string::npos) {
    throw std::runtime_error(file + ": no '" + from + "' to rewrite");
  }
  src.replace(at, from.size(), "ba _start");
  return src;
}

constexpr u64 kChunk = 1 << 16;  // steps per timed slice
constexpr int kSamples = 5;      // samples per row (median, min, max)

struct Row {
  std::string model;
  std::string workload = "alu_loop";
  bool fast_paths = false;
  double host_mips = 0;       // median sample
  double host_mips_min = 0;
  double host_mips_max = 0;
  double cycles_per_sec = 0;  // median sample
  u64 instructions = 0;       // over all samples
  double secs = 0;            // over all samples
};

/// Drive `body` (which advances the model by one chunk and keeps the
/// retired-instruction and cycle counts as running totals) for kSamples
/// back-to-back samples of `budget_secs / kSamples` wall time each, and
/// summarize the per-sample rates.
template <typename Body>
Row measure(const std::string& model, bool fast, double budget_secs,
            Body&& body) {
  Row row;
  row.model = model;
  row.fast_paths = fast;
  u64 instructions = 0;
  u64 cycles = 0;
  std::vector<double> mips;
  std::vector<double> cps;
  for (int s = 0; s < kSamples; ++s) {
    const u64 i0 = instructions;
    const u64 c0 = cycles;
    const auto start = Clock::now();
    double elapsed = 0;
    do {
      body(instructions, cycles);
      elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    } while (elapsed < budget_secs / kSamples);
    mips.push_back(static_cast<double>(instructions - i0) / elapsed / 1e6);
    cps.push_back(static_cast<double>(cycles - c0) / elapsed);
    row.secs += elapsed;
  }
  std::sort(mips.begin(), mips.end());
  std::sort(cps.begin(), cps.end());
  row.instructions = instructions;
  row.host_mips = mips[kSamples / 2];
  row.host_mips_min = mips.front();
  row.host_mips_max = mips.back();
  row.cycles_per_sec = cps[kSamples / 2];
  return row;
}

Row measure_integer_unit(double secs) {
  const auto img = sasm::assemble_or_throw(kLoop);
  cpu::FlatMemory mem(1 << 16);
  mem.load(img.base, img.data);
  cpu::IntegerUnit iu(cpu::CpuConfig{}, mem);
  iu.reset(img.entry);
  return measure("integer_unit", false, secs, [&](u64& instr, u64& cyc) {
    instr += iu.run(kChunk);
    cyc = iu.cycle_count();
  });
}

Row measure_leon_pipeline(bool fast, double secs) {
  const auto img = sasm::assemble_or_throw(kLoop);
  cpu::PipelineConfig cfg;
  cfg.host_fast_paths = fast;
  mem::Sram sram(0, 1 << 16);
  sram.backdoor_write(img.base, img.data);
  bus::AhbBus bus;
  bus.attach(0, 1 << 16, &sram);
  Cycles clock = 0;
  cpu::LeonPipeline pipe(cfg, bus, &clock, cpu::Cacheable::kEverything);
  pipe.reset(img.entry);
  return measure("leon_pipeline", fast, secs, [&](u64& instr, u64& cyc) {
    pipe.run(kChunk);
    instr = pipe.stats().instructions;
    cyc = pipe.stats().cycles;
  });
}

Row measure_liquid_system(bool fast, double secs,
                          bool flight_recorder = false,
                          const char* workload = "alu_loop") {
  sim::SystemConfig cfg;
  cfg.pipeline.host_fast_paths = fast;
  cfg.flight_recorder = flight_recorder;
  sim::LiquidSystem sys(cfg);
  sys.run(200);  // boot into the ROM polling loop
  ctrl::LiquidClient client(sys);
  const bool loop = std::strcmp(workload, "alu_loop") == 0;
  const auto img =
      sasm::assemble_or_throw(loop ? kSystemLoop : kernel_forever(workload));
  // The recorder-armed variant gets its own model name so the trajectory
  // file keeps one row per (model, workload, fast_paths) triple.
  const std::string model =
      flight_recorder ? "liquid_system_flight" : "liquid_system";
  Row row;
  row.workload = workload;
  if (!client.load_program(img) || !client.start(img.entry)) {
    std::fprintf(stderr, "sim_mips: remote program start failed\n");
    row.model = model;
    row.fast_paths = fast;
    return row;
  }
  row = measure(model, fast, secs, [&](u64& instr, u64& cyc) {
    sys.run(kChunk);
    instr = sys.cpu().stats().instructions;
    cyc = sys.cpu().stats().cycles;
  });
  row.workload = workload;
  return row;
}

/// The node after a job: a program that returns at once, run to
/// completion, leaves the boot ROM polling the mailbox through the open
/// switch.
const char* kReturn = R"(
    .org 0x40000100
_start:
    jmp 0x40                 ! back into the boot ROM's mailbox poll
    nop
)";

Row measure_idle_poll(bool fast, double secs) {
  sim::SystemConfig cfg;
  cfg.pipeline.host_fast_paths = fast;
  sim::LiquidSystem sys(cfg);
  sys.run(200);  // boot into the ROM polling loop
  ctrl::LiquidClient client(sys);
  Row row;
  if (!client.run_program(sasm::assemble_or_throw(kReturn)) ||
      sys.disconnect().connected()) {
    std::fprintf(stderr, "sim_mips: the idle_poll program did not finish\n");
    row.model = "liquid_system";
    row.fast_paths = fast;
  } else {
    row = measure("liquid_system", fast, secs, [&](u64& instr, u64& cyc) {
      sys.run(kChunk);
      instr = sys.cpu().stats().instructions;
      cyc = sys.cpu().stats().cycles;
    });
  }
  row.workload = "idle_poll";
  return row;
}

int usage() {
  std::fprintf(stderr,
               "usage: sim_mips [--out FILE] [--secs N]\n"
               "  --out FILE   output JSON path (default BENCH_sim.json)\n"
               "  --secs N     wall-clock budget per measurement, seconds\n"
               "               (default 1.0, split into %d samples;\n"
               "               fourteen measurements total)\n",
               kSamples);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_sim.json";
  double secs = 1.0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (a == "--secs" && i + 1 < argc) {
      secs = std::atof(argv[++i]);
      if (secs <= 0) return usage();
    } else {
      return usage();
    }
  }

  std::vector<Row> rows;
  rows.push_back(measure_integer_unit(secs));
  for (const bool fast : {false, true}) {
    rows.push_back(measure_leon_pipeline(fast, secs));
    rows.push_back(measure_liquid_system(fast, secs));
  }
  // Observability overhead row: the flight recorder armed (sampled retire
  // ring) on the fast path.  The recorder compiled in but *disabled* is
  // the plain liquid_system row above.
  rows.push_back(measure_liquid_system(true, secs, /*flight_recorder=*/true));
  // Real kernels on the full node, fast paths off and on.
  for (const char* kernel : {"crc32", "stream", "memtest"}) {
    for (const bool fast : {false, true}) {
      rows.push_back(measure_liquid_system(fast, secs, false, kernel));
    }
  }
  for (const bool fast : {false, true}) {
    rows.push_back(measure_idle_poll(fast, secs));
  }

  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("%-20s %-9s %-5s %10s %10s %10s %12s\n", "model",
              "workload", "fast", "MIPS p50", "min", "max", "cycles/sec");
  for (const Row& r : rows) {
    std::printf("%-20s %-9s %-5s %10.2f %10.2f %10.2f %12.3e\n",
                r.model.c_str(), r.workload.c_str(),
                r.fast_paths ? "on" : "off", r.host_mips, r.host_mips_min,
                r.host_mips_max, r.cycles_per_sec);
  }
  std::printf("(%d samples per row, %s build of %s, %u host cores)\n",
              kSamples, LA_BUILD_TYPE, LA_COMMIT, nproc);

  FILE* f = std::fopen(out_path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "sim_mips: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "  {\"model\": \"%s\", \"workload\": \"%s\", "
                 "\"fast_paths\": %s, "
                 "\"host_mips\": %.3f, \"host_mips_min\": %.3f, "
                 "\"host_mips_max\": %.3f, \"samples\": %d, "
                 "\"cycles_per_sec\": %.1f, \"instructions\": %llu, "
                 "\"secs\": %.3f, \"build_type\": \"%s\", "
                 "\"commit\": \"%s\", \"nproc\": %u}%s\n",
                 r.model.c_str(), r.workload.c_str(),
                 r.fast_paths ? "true" : "false", r.host_mips,
                 r.host_mips_min, r.host_mips_max, kSamples,
                 r.cycles_per_sec,
                 static_cast<unsigned long long>(r.instructions), r.secs,
                 LA_BUILD_TYPE, LA_COMMIT, nproc,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
