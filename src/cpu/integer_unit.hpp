// Functional SPARC V8 integer unit — the architectural reference model.
//
// Executes one instruction per step() with full V8 semantics: register
// windows, delayed control transfer with annulment, the complete trap
// model (including error mode), multiply/divide with the Y register,
// tagged arithmetic, and the atomic memory operations.
//
// The semantics are the shared core's (cpu/sparc_core.hpp); this class
// instantiates it with nominal timing (config latencies, no memory stalls)
// over a MemoryPort.  LeonPipeline runs the same core behind the timed
// cache/bus/memory stack, and is property-tested against this class for
// what the two models do differently: memory timing, the line tier, and
// step/trap sequencing.
#pragma once

#include <memory>

#include "common/types.hpp"
#include "cpu/config.hpp"
#include "cpu/memory_port.hpp"
#include "cpu/state.hpp"
#include "isa/decode.hpp"
#include "isa/decode_cache.hpp"
#include "isa/isa.hpp"
#include "isa/traps.hpp"

namespace la::cpu {

/// What happened during one step() — consumed by tracing and tests.
struct StepResult {
  Addr pc = 0;            // address of the (attempted) instruction
  u32 raw = 0;            // fetched word (0 if the fetch itself faulted)
  isa::Instruction ins;   // decoded form
  bool annulled = false;  // instruction was in an annulled delay slot
  bool trapped = false;   // a trap was taken this step
  u8 tt = 0;              // trap type when trapped
  Cycles cycles = 1;      // nominal cycles charged by the functional model
  // Memory side effects (at most one data access per V8 instruction,
  // except LDD/STD/SWAP/LDSTUB which we report as their primary access).
  bool mem_access = false;
  bool mem_write = false;
  Addr mem_addr = 0;
  u8 mem_size = 0;
};

/// Observer for execution tracing (drives liquid::TraceAnalyzer).
class ExecObserver {
 public:
  virtual ~ExecObserver() = default;
  virtual void on_step(const StepResult& r) = 0;
};

class BlockEngine;
struct MemResult;
enum class Mix : u8;
template <class Model>
struct SparcCore;

class IntegerUnit {
 public:
  IntegerUnit(const CpuConfig& cfg, MemoryPort& mem);
  ~IntegerUnit();  // out of line: BlockEngine is incomplete here

  CpuState& state() { return st_; }
  const CpuState& state() const { return st_; }
  const CpuConfig& config() const { return cfg_; }

  /// Reset: supervisor mode, traps disabled, PC at `entry`.
  void reset(Addr entry = 0);

  /// Execute one instruction (or take one trap).  No-op in error mode.
  StepResult step();

  /// Hot-path form of step(): writes the result into `res` instead of
  /// materializing a fresh StepResult.  All fields the step produces are
  /// overwritten; on early-out paths (error mode, traps, annulled slots)
  /// `res.ins` keeps its previous contents — callers that reuse one
  /// StepResult across steps (the run loop) must not read it on those
  /// paths.  step() wraps this with a default-constructed result, so its
  /// observable behaviour is unchanged.
  void step_into(StepResult& res);

  /// Run until `steps` instructions retired, error mode, or the PC hits
  /// `halt_pc` (use the address of a self-branch / final instruction).
  /// Returns the number of steps actually executed.
  u64 run(u64 max_steps, Addr halt_pc = 0xffffffff);

  /// Assert an external interrupt at `level` (1..15); 0 clears.
  void set_irq(u8 level) { irq_level_ = level; }

  u64 instret() const { return instret_; }
  Cycles cycle_count() const { return cycles_; }

  /// Trap bookkeeping, identical in every execution mode (maintained by
  /// take_trap itself): how many traps were taken since reset and the tt
  /// of the most recent one.  Lets run()-driven harnesses (the iu-block
  /// conformance leg, the SMC tests) observe traps without an observer.
  u64 trap_count() const { return trap_count_; }
  u8 last_trap_tt() const { return last_tt_; }

  void set_observer(ExecObserver* obs) { obs_ = obs; }

  /// The block translation engine, if any run() call has engaged it
  /// (nullptr otherwise).  Host-side statistics only.
  const BlockEngine* block_engine() const { return block_.get(); }

 private:
  friend class BlockEngine;  // drives execute()/take_trap() on our state
  friend struct SparcCore<IntegerUnit>;

  // The shared SPARC V8 semantics (cpu/sparc_core.hpp) on this model.
  void take_trap(u8 tt);
  u8 execute(const isa::Instruction& ins, StepResult& res);

  // SparcCore hooks: nominal timing (no stalls), the MemoryPort, and the
  // trap bookkeeping; FLUSH, ASI 2 and the instruction mix are no-ops.
  const CpuConfig& cpu_cfg() const { return cfg_; }
  MemResult data_read(Addr addr, unsigned size);
  MemResult data_write(Addr addr, unsigned size, u64 value);
  static void flush_line(Addr, StepResult&) {}
  static bool asi_access(const isa::Instruction&, Addr, StepResult&) {
    return false;
  }
  void on_trap(u8 tt) {
    ++trap_count_;
    last_tt_ = tt;
  }
  static void on_retire(Mix) {}

  /// Deliverable external interrupt (the exact between-instructions test
  /// step_into performs; the block dispatcher re-checks it before every
  /// translated op).
  bool irq_pending() const {
    return st_.psr.et && irq_level_ != 0 &&
           (irq_level_ == 15 || irq_level_ > st_.psr.pil);
  }

  CpuConfig cfg_;
  MemoryPort& mem_;
  CpuState st_;
  isa::DecodeCache predecode_;  // host perf only; see CpuConfig knob

  bool annul_next_ = false;
  u8 irq_level_ = 0;
  u64 instret_ = 0;
  Cycles cycles_ = 0;
  u64 trap_count_ = 0;
  u8 last_tt_ = 0;
  ExecObserver* obs_ = nullptr;

  // Basic-block translation tier (host perf only; see CpuConfig knob).
  // Created lazily by the first observerless run() with the knob on.
  std::unique_ptr<BlockEngine> block_;

  // Set by execute() for control transfers: next npc after the delay slot.
  bool cti_taken_ = false;
  Addr cti_target_ = 0;
};

}  // namespace la::cpu
