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
//
// It has one execution path and no host fast tier: run() is a loop over
// step(), and every step decodes its word with isa::decode().
#pragma once

#include "common/types.hpp"
#include "cpu/config.hpp"
#include "cpu/memory_port.hpp"
#include "cpu/state.hpp"
#include "isa/decode.hpp"
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

  /// The step ran an instruction: it fetched one, stepped over an annulled
  /// slot, or took a trap.  A cycle with no instruction in it (error mode,
  /// a wedged CPU) leaves `ins` invalid, and an invalid word that does
  /// execute always traps.  Per-instruction consumers (the trace stream, a
  /// direct trace analyzer) see exactly these steps.
  bool is_instruction() const { return trapped || annulled || ins.valid(); }
};

struct MemResult;
enum class Mix : u8;
template <class Model>
struct SparcCore;

class IntegerUnit {
 public:
  IntegerUnit(const CpuConfig& cfg, MemoryPort& mem);

  CpuState& state() { return st_; }
  const CpuState& state() const { return st_; }
  const CpuConfig& config() const { return cfg_; }

  /// Reset: supervisor mode, traps disabled, PC at `entry`.
  void reset(Addr entry = 0);

  /// Execute one instruction (or take one trap).  No-op in error mode.
  StepResult step();

  /// Run until `steps` instructions retired, error mode, or the PC hits
  /// `halt_pc` (use the address of a self-branch / final instruction).
  /// Returns the number of steps actually executed.
  u64 run(u64 max_steps, Addr halt_pc = 0xffffffff);

  /// Assert an external interrupt at `level` (1..15); 0 clears.
  void set_irq(u8 level) { irq_level_ = level; }

  Cycles cycle_count() const { return cycles_; }

 private:
  friend struct SparcCore<IntegerUnit>;

  // SparcCore hooks (cpu/sparc_core.hpp): nominal timing (no stalls) over
  // the MemoryPort; FLUSH, ASI 2, trap bookkeeping and the instruction mix
  // are no-ops.
  const CpuConfig& cpu_cfg() const { return cfg_; }
  MemResult data_read(Addr addr, unsigned size);
  MemResult data_write(Addr addr, unsigned size, u64 value);
  static void flush_line(Addr, StepResult&) {}
  static bool asi_access(const isa::Instruction&, Addr, StepResult&) {
    return false;
  }
  static void on_trap(u8) {}
  static void on_retire(Mix) {}

  /// Deliverable external interrupt (checked between instructions).
  bool irq_pending() const {
    return st_.psr.et && irq_level_ != 0 &&
           (irq_level_ == 15 || irq_level_ > st_.psr.pil);
  }

  CpuConfig cfg_;
  MemoryPort& mem_;
  CpuState st_;

  bool annul_next_ = false;
  u8 irq_level_ = 0;
  Cycles cycles_ = 0;

  // Set by execute() for control transfers: next npc after the delay slot.
  bool cti_taken_ = false;
  Addr cti_target_ = 0;
};

}  // namespace la::cpu
