// Three-way differential execution of one generated program:
//
//   leg A  cpu::IntegerUnit    functional reference on flat memory (its
//                              one per-step path, coverage observer on)
//   leg B  cpu::LeonPipeline   timed pipeline + caches on a bare AHB/SRAM
//   leg C  sim::LiquidSystem   the full node, driven exactly like the
//                              paper's control software: boot ROM, UDP
//                              chunked program load, mailbox start, run
//                              to completion, memory readback
//
// A and B are compared field-for-field (every window register, PSR, Y,
// WIM, TBR, error mode, the data region).  C booted through real firmware,
// so its PC/nPC sit in the ROM polling loop afterwards and the loop
// clobbers %l0/%l1/icc of the final window; compare_system() masks exactly
// that residue and nothing else — kSystem-mode programs normalize every
// other piece of state in their prologue.
//
// The runner also collects the coverage sample (mnemonic/trap bitmaps from
// leg A, metric buckets from leg B's bridged registry and leg C's node
// registry) that drives corpus admission.
#pragma once

#include <memory>
#include <string>

#include "cpu/leon_pipeline.hpp"
#include "fuzz/coverage.hpp"
#include "fuzz/program_generator.hpp"
#include "sim/liquid_system.hpp"
#include "sim/snapshot.hpp"

namespace la::fuzz {

struct DiffOptions {
  cpu::PipelineConfig pipeline;
  /// Run leg C for kSystem-mode programs.  Ignored for kCore programs
  /// (their trap behaviour is undefined under the boot ROM's trap table).
  bool with_system = true;
  /// Instruction budget for the bare legs; 0 derives one from the body
  /// size.  A program that exhausts it is reported as incomplete, not as
  /// a divergence (both legs get the same budget).
  u64 max_steps = 0;
  /// Node instruction budget for the boot-load-run leg.
  u64 system_max_steps = 4'000'000;
  /// Deliberate semantic fault in leg A (CpuConfig::quirk_subx_no_carry):
  /// the fuzzer's own end-to-end self-check.  See docs/TESTING.md.
  bool inject_subx_bug = false;
};

struct DiffOutcome {
  bool asm_ok = false;
  bool completed = false;  // reference model reached `done` (or halted
                           // identically in error mode)
  bool diverged = false;
  std::string leg;     // which comparison failed: "pipeline" / "system"
  std::string detail;  // assembler errors, or the first mismatch
  CoverageSample coverage;
  u64 steps = 0;  // instructions the reference model retired
  /// Flight-recorder JSON from leg C, captured when that leg diverged;
  /// empty otherwise.
  std::string flight_dump;
};

class DifferentialRunner {
 public:
  explicit DifferentialRunner(const DiffOptions& opt) : opt_(opt) {}

  DiffOutcome run(const ProgramSpec& spec);
  /// Raw-source entry point (lfuzz --replay of an .s file).
  DiffOutcome run_source(const std::string& source, ProgramMode mode);

  const DiffOptions& options() const { return opt_; }

 private:
  DiffOptions opt_;
  /// Leg C keeps one node alive across run() calls: the first kSystem
  /// program boots it and captures a post-boot snapshot; every later
  /// program — including each ddmin probe of a shrinking reproducer —
  /// deep-replays by restoring that snapshot in O(memcpy) instead of
  /// reconstructing and re-booting a fresh LiquidSystem.
  std::unique_ptr<sim::LiquidSystem> sys_;
  sim::SystemSnapshot post_boot_;
};

/// First architectural difference between two complete states, or "" when
/// equal.  Compares PC/nPC, PSR, Y, WIM, TBR, error mode, every window.
std::string compare_full(const cpu::CpuState& a, const cpu::CpuState& b);

/// Post-boot-ROM comparison (leg C): skips PC/nPC, masks the icc bits of
/// PSR, and skips %l0-%l2 of the final window — the ROM polling loop owns
/// those after the program's final jump.
std::string compare_system(const cpu::CpuState& a, const cpu::CpuState& c);

}  // namespace la::fuzz
