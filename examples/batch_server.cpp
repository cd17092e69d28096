// Batch server: the Reconfiguration Server sequencing many users' jobs.
//
// Six users submit programs pinned to different architecture images.
// Reprogramming the FPGA between jobs costs a bitstream download, so the
// scheduler can group jobs by configuration instead of running strict
// FIFO — the same batch, two schedules, and the difference in
// reprogramming.  The server is a one-node farm::LiquidFarm held at its
// start gate until the whole batch is queued, so the node runs the batch
// in exactly the order the scheduler plans (docs/FARM.md).
//
// Exits 0 when every job in both schedules succeeded, 1 otherwise.
#include <cstdio>
#include <iterator>
#include <string>

#include "farm/farm.hpp"
#include "sasm/assembler.hpp"

namespace {

using namespace la;

sasm::Image workload(u32 seedish) {
  return sasm::assemble_or_throw(R"(
      .org 0x40000100
  _start:
      set )" + std::to_string(seedish) + R"(, %g1
      mov 200, %g2
  loop:
      xor %g1, %g2, %g1
      sll %g1, 1, %g3
      srl %g1, 31, %g1
      or %g1, %g3, %g1
      subcc %g2, 1, %g2
      bne loop
      nop
      set result, %g4
      st %g1, [%g4]
      jmp 0x40
      nop
      .align 4
  result:
      .skip 4
  )");
}

/// Run the batch on a fresh one-node farm under `policy`, print each job
/// in execution order and the totals; returns how many jobs failed or
/// never came back.
u64 run_batch(const char* title, farm::FarmPolicy policy) {
  farm::FarmConfig cfg;
  cfg.nodes = 1;
  cfg.autostart = false;
  cfg.scheduler.policy = policy;
  farm::LiquidFarm farm(cfg);
  farm.pregenerate(liquid::ConfigSpace{});

  const struct {
    const char* owner;
    u32 dcache;
    u32 value;
  } requests[] = {
      {"alice", 1024, 0xa11ce}, {"bob", 4096, 0xb0b},
      {"carol", 1024, 0xca401}, {"dave", 4096, 0xdafe},
      {"erin", 16384, 0xe417},  {"frank", 1024, 0xf4a7c},
  };
  for (const auto& r : requests) {
    farm::FarmJob j;
    j.owner = r.owner;
    j.config.dcache_bytes = r.dcache;
    j.program = workload(r.value);
    j.result_addr = j.program.symbol("result");
    j.result_words = 1;
    if (!farm.submit(std::move(j))) {
      std::printf("%s: submission rejected\n", r.owner);
    }
  }
  farm.start();

  std::printf("%s\n", title);
  std::printf("  %-8s %-32s %10s %6s\n", "owner", "image", "cycles", "swap");
  u64 succeeded = 0;
  double reprogram_seconds = 0.0;
  while (const auto out = farm.pop_result()) {
    std::printf("  %-8s %-32s %10llu %6s\n", out->owner.c_str(),
                out->config_key.c_str(),
                static_cast<unsigned long long>(out->result.cycles),
                out->result.reconfigured ? "yes" : "-");
    if (out->result.ok) ++succeeded;
    reprogram_seconds += out->result.reprogram_seconds;
  }
  const farm::FarmReport rep = farm.report();
  const u64 failures = std::size(requests) - succeeded;
  std::printf("  => %llu reconfigurations, %.2f s reprogramming, "
              "%llu of %llu jobs failed\n\n",
              static_cast<unsigned long long>(rep.reconfigurations),
              reprogram_seconds, static_cast<unsigned long long>(failures),
              static_cast<unsigned long long>(std::size(requests)));
  return failures;
}

}  // namespace

int main() {
  u64 failures = run_batch("FIFO schedule:", farm::FarmPolicy::kFifo);
  failures += run_batch("grouped-by-image (affinity) schedule:",
                        farm::FarmPolicy::kAffinity);
  return failures == 0 ? 0 : 1;
}
