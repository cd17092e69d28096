// Simulator throughput microbenchmarks (google-benchmark): how fast the
// models themselves run on the host — useful when sizing experiments.
#include <benchmark/benchmark.h>

#include "bus/ahb.hpp"
#include "cache/cache.hpp"
#include "common/rng.hpp"
#include "cpu/flat_memory.hpp"
#include "cpu/integer_unit.hpp"
#include "cpu/leon_pipeline.hpp"
#include "ctrl/client.hpp"
#include "isa/decode.hpp"
#include "mem/sram.hpp"
#include "net/packet.hpp"
#include "sasm/assembler.hpp"
#include "sim/liquid_system.hpp"
#include "sim/snapshot.hpp"

namespace {

using namespace la;

const char* kLoop = R"(
    .org 0x100
_start:
    set 1000000000, %g1
loop:
    subcc %g1, 1, %g1
    xor %g2, %g1, %g2
    add %g3, %g2, %g3
    bne loop
    nop
done: ba done
    nop
)";

void BM_Decode(benchmark::State& state) {
  Rng rng(1);
  std::vector<u32> words(4096);
  for (auto& w : words) w = rng.next_u32();
  // Warm every input once before the timed loop so first-touch effects
  // (page faults, branch-predictor training) land outside the measurement
  // regardless of which words the RNG happens to produce.
  for (u32 w : words) benchmark::DoNotOptimize(isa::decode(w));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(isa::decode(words[i++ & 4095]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Decode);

void BM_IntegerUnitStep(benchmark::State& state) {
  const auto img = sasm::assemble_or_throw(kLoop);
  cpu::FlatMemory mem(1 << 16);
  mem.load(img.base, img.data);
  cpu::IntegerUnit iu(cpu::CpuConfig{}, mem);
  iu.reset(img.entry);
  for (auto _ : state) {
    benchmark::DoNotOptimize(iu.step());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("instructions/sec");
}
BENCHMARK(BM_IntegerUnitStep);

void BM_PipelineStep(benchmark::State& state) {
  const auto img = sasm::assemble_or_throw(kLoop);
  mem::Sram sram(0, 1 << 16);
  sram.backdoor_write(img.base, img.data);
  bus::AhbBus bus;
  bus.attach(0, 1 << 16, &sram);
  Cycles clock = 0;
  cpu::LeonPipeline pipe(cpu::PipelineConfig{}, bus, &clock,
                         cpu::Cacheable::kEverything);
  pipe.reset(img.entry);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipe.step());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("instructions/sec");
}
BENCHMARK(BM_PipelineStep);

// ---- host-MIPS benchmarks ------------------------------------------------
// The per-step benchmarks above measure one `step()` call including the
// StepResult materialization the caller pays; the `_MIPS` variants drive
// the models the way experiments do — through `run()`, which for the
// pipeline and the node is where the batched hot loops live (the
// functional model's run() is a plain loop over step()).  Each reports
// host instructions/sec as a rate counter (`instr_per_sec`).

void report_mips(benchmark::State& state, u64 instructions) {
  state.SetItemsProcessed(static_cast<i64>(instructions));
  state.counters["instr_per_sec"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}

constexpr u64 kRunChunk = 64 * 1024;

void BM_IntegerUnit_MIPS(benchmark::State& state) {
  const auto img = sasm::assemble_or_throw(kLoop);
  cpu::FlatMemory mem(1 << 16);
  mem.load(img.base, img.data);
  cpu::IntegerUnit iu(cpu::CpuConfig{}, mem);
  iu.reset(img.entry);
  u64 instructions = 0;
  for (auto _ : state) {
    instructions += iu.run(kRunChunk);
  }
  report_mips(state, instructions);
}
BENCHMARK(BM_IntegerUnit_MIPS);

void BM_LeonPipeline_MIPS(benchmark::State& state) {
  const auto img = sasm::assemble_or_throw(kLoop);
  mem::Sram sram(0, 1 << 16);
  sram.backdoor_write(img.base, img.data);
  bus::AhbBus bus;
  bus.attach(0, 1 << 16, &sram);
  Cycles clock = 0;
  cpu::LeonPipeline pipe(cpu::PipelineConfig{}, bus, &clock,
                         cpu::Cacheable::kEverything);
  pipe.reset(img.entry);
  u64 instructions = 0;
  for (auto _ : state) {
    instructions += pipe.run(kRunChunk);
  }
  report_mips(state, instructions);
}
BENCHMARK(BM_LeonPipeline_MIPS);

// The compute loop for the full-system measurement lives in SDRAM like a
// real remotely-loaded program and never completes, so every measured step
// is user code (not the ROM polling loop).
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

void BM_LiquidSystem_MIPS(benchmark::State& state) {
  sim::LiquidSystem sys;
  sys.run(200);  // boot into the polling loop
  ctrl::LiquidClient client(sys);
  const auto img = sasm::assemble_or_throw(kSystemLoop);
  if (!client.load_program(img) || !client.start(img.entry)) {
    state.SkipWithError("remote program start failed");
    return;
  }
  u64 instructions = 0;
  for (auto _ : state) {
    sys.run(kRunChunk);
    instructions += kRunChunk;
  }
  report_mips(state, instructions);
}
BENCHMARK(BM_LiquidSystem_MIPS);

// The warm-start pool's two operations on a booted node holding a loaded
// program.  Both cost the state sections plus a pointer per resident page,
// whatever the 5 MiB of SRAM + SDRAM hold; `pages` is the resident count.
void BM_SnapshotCapture(benchmark::State& state) {
  sim::LiquidSystem sys;
  sys.run(200);
  ctrl::LiquidClient client(sys);
  if (!client.load_program(sasm::assemble_or_throw(kSystemLoop))) {
    state.SkipWithError("remote program load failed");
    return;
  }
  for (auto _ : state) benchmark::DoNotOptimize(sys.snapshot());
  const sim::SystemSnapshot snap = sys.snapshot();
  state.counters["pages"] = static_cast<double>(snap.pages.size());
  state.counters["state_bytes"] = static_cast<double>(snap.state.size());
}
BENCHMARK(BM_SnapshotCapture);

void BM_SnapshotRestore(benchmark::State& state) {
  sim::LiquidSystem sys;
  sys.run(200);
  const sim::SystemSnapshot boot = sys.snapshot();
  ctrl::LiquidClient client(sys);
  if (!client.load_program(sasm::assemble_or_throw(kSystemLoop))) {
    state.SkipWithError("remote program load failed");
    return;
  }
  const sim::SystemSnapshot loaded = sys.snapshot();
  // Alternate so every restore swaps the program's page back or out.
  bool flip = false;
  for (auto _ : state) {
    flip = !flip;
    benchmark::DoNotOptimize(sys.restore(flip ? boot : loaded));
  }
}
BENCHMARK(BM_SnapshotRestore);

void BM_CacheAccess(benchmark::State& state) {
  cache::Cache c(cache::CacheConfig{.size_bytes = 4096,
                                    .line_bytes = 32,
                                    .ways = static_cast<u32>(state.range(0))});
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.access(rng.next_u32() & 0xffff, false));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess)->Arg(1)->Arg(2)->Arg(4);

void BM_AhbSingleRead(benchmark::State& state) {
  mem::Sram sram(0, 1 << 16);
  bus::AhbBus bus;
  bus.attach(0, 1 << 16, &sram);
  u32 v = 0;
  Addr a = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bus.read32(bus::Master::kCpuData, a, v));
    a = (a + 4) & 0xfffc;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AhbSingleRead);

void BM_UdpPacketRoundTrip(benchmark::State& state) {
  net::UdpDatagram d;
  d.src_ip = net::make_ip(10, 0, 0, 1);
  d.dst_ip = net::make_ip(10, 0, 0, 2);
  d.src_port = 1;
  d.dst_port = 2;
  d.payload.assign(static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    const Bytes pkt = net::build_udp_packet(d);
    benchmark::DoNotOptimize(net::parse_udp_packet(pkt));
  }
  state.SetBytesProcessed(state.iterations() *
                          (static_cast<i64>(d.payload.size()) + 28));
}
BENCHMARK(BM_UdpPacketRoundTrip)->Arg(64)->Arg(1024);

void BM_Assembler(benchmark::State& state) {
  std::string src = ".org 0x100\n_start:\n";
  for (int i = 0; i < 200; ++i) {
    src += "    add %g1, " + std::to_string(i & 1023) + ", %g2\n";
    src += "l" + std::to_string(i) + ": st %g2, [%g1 + 8]\n";
  }
  sasm::Assembler as;
  for (auto _ : state) {
    benchmark::DoNotOptimize(as.assemble(src));
  }
  state.SetItemsProcessed(state.iterations() * 400);
  state.SetLabel("statements/sec");
}
BENCHMARK(BM_Assembler);

}  // namespace

BENCHMARK_MAIN();
