#include "cpu/integer_unit.hpp"

#include <cassert>

#include "cpu/block_engine.hpp"
#include "cpu/sparc_core.hpp"

namespace la::cpu {

using isa::Instruction;
using isa::Trap;

using Core = SparcCore<IntegerUnit>;

IntegerUnit::IntegerUnit(const CpuConfig& cfg, MemoryPort& mem)
    : cfg_(cfg), mem_(mem), st_(cfg) {
  assert(cfg.valid());
}

IntegerUnit::~IntegerUnit() = default;

void IntegerUnit::reset(Addr entry) {
  st_ = CpuState(cfg_);
  st_.pc = entry;
  st_.npc = entry + 4;
  st_.psr.s = true;
  st_.psr.et = false;  // traps disabled until boot code enables them
  annul_next_ = false;
  irq_level_ = 0;
  instret_ = 0;
  cycles_ = 0;
  trap_count_ = 0;
  last_tt_ = 0;
}

MemResult IntegerUnit::data_read(Addr addr, unsigned size) {
  MemResult r;
  r.ok = mem_.read(addr, size, r.value);
  return r;
}

MemResult IntegerUnit::data_write(Addr addr, unsigned size, u64 value) {
  MemResult r;
  r.ok = mem_.write(addr, size, value);
  return r;
}

void IntegerUnit::take_trap(u8 tt) { Core::take_trap(*this, tt); }

u8 IntegerUnit::execute(const Instruction& ins, StepResult& res) {
  return Core::execute(*this, ins, res);
}

StepResult IntegerUnit::step() {
  StepResult res;
  step_into(res);
  return res;
}

void IntegerUnit::step_into(StepResult& res) {
  res.pc = st_.pc;
  res.raw = 0;
  res.annulled = false;
  res.trapped = false;
  res.tt = 0;
  res.cycles = 1;
  res.mem_access = false;
  res.mem_write = false;
  res.mem_addr = 0;
  res.mem_size = 0;
  if (st_.error_mode) return;

  // External interrupt check (between instructions, before fetch).
  if (irq_pending()) {
    const u8 tt = static_cast<u8>(0x10 + (irq_level_ & 0xf));
    take_trap(tt);
    res.trapped = true;
    res.tt = tt;
    res.cycles = cfg_.trap_latency;
    cycles_ += res.cycles;
    if (obs_) obs_->on_step(res);
    return;
  }

  u32 word = 0;
  if (!mem_.fetch(st_.pc, word)) {
    take_trap(Core::tt_of(Trap::kInstructionAccess));
    res.trapped = true;
    res.tt = Core::tt_of(Trap::kInstructionAccess);
    res.cycles = cfg_.trap_latency;
    cycles_ += res.cycles;
    if (obs_) obs_->on_step(res);
    return;
  }
  res.raw = word;
  res.ins = cfg_.host_fast_paths ? predecode_.lookup(word)
                                 : isa::decode(word);

  if (annul_next_) {
    annul_next_ = false;
    res.annulled = true;
    st_.pc = st_.npc;
    st_.npc += 4;
    res.cycles = 1;
    cycles_ += 1;
    if (obs_) obs_->on_step(res);
    return;
  }

  cti_taken_ = false;
  const u8 tt = execute(res.ins, res);
  if (tt != Core::kNoTrap) {
    take_trap(tt);
    res.trapped = true;
    res.tt = tt;
    res.cycles = cfg_.trap_latency;
  } else {
    const Addr new_pc = st_.npc;
    const Addr new_npc = cti_taken_ ? cti_target_ : st_.npc + 4;
    st_.pc = new_pc;
    st_.npc = new_npc;
    ++instret_;
  }
  cycles_ += res.cycles;
  if (obs_) obs_->on_step(res);
}

u64 IntegerUnit::run(u64 max_steps, Addr halt_pc) {
  if (obs_ == nullptr && cfg_.host_fast_paths) {
    // Basic-block translation tier: decode each block once, execute via
    // threaded dispatch.  Bit-identical to the loop below (the engine
    // re-checks the same between-instruction conditions and routes every
    // irregular case back through step_into); engages only observerless,
    // so tracing and single-stepping always see the per-step path.
    if (!block_) block_ = std::make_unique<BlockEngine>();
    return block_->run(*this, max_steps, halt_pc);
  }
  u64 n = 0;
  while (n < max_steps && !st_.error_mode && st_.pc != halt_pc) {
    step();
    ++n;
  }
  return n;
}

}  // namespace la::cpu
