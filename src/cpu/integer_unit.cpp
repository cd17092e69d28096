#include "cpu/integer_unit.hpp"

#include <cassert>

#include "cpu/sparc_core.hpp"

namespace la::cpu {

using isa::Trap;

using Core = SparcCore<IntegerUnit>;

IntegerUnit::IntegerUnit(const CpuConfig& cfg, MemoryPort& mem)
    : cfg_(cfg), mem_(mem), st_(cfg) {
  assert(cfg.valid());
}

void IntegerUnit::reset(Addr entry) {
  st_ = CpuState(cfg_);
  st_.pc = entry;
  st_.npc = entry + 4;
  st_.psr.s = true;
  st_.psr.et = false;  // traps disabled until boot code enables them
  annul_next_ = false;
  irq_level_ = 0;
  cycles_ = 0;
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

StepResult IntegerUnit::step() {
  StepResult res;
  res.pc = st_.pc;
  if (st_.error_mode) return res;

  // External interrupt check (between instructions, before fetch).
  if (irq_pending()) {
    const u8 tt = static_cast<u8>(0x10 + (irq_level_ & 0xf));
    Core::take_trap(*this, tt);
    res.trapped = true;
    res.tt = tt;
    res.cycles = cfg_.trap_latency;
    cycles_ += res.cycles;
    return res;
  }

  u32 word = 0;
  if (!mem_.fetch(st_.pc, word)) {
    Core::take_trap(*this, Core::tt_of(Trap::kInstructionAccess));
    res.trapped = true;
    res.tt = Core::tt_of(Trap::kInstructionAccess);
    res.cycles = cfg_.trap_latency;
    cycles_ += res.cycles;
    return res;
  }
  res.raw = word;
  res.ins = isa::decode(word);

  if (annul_next_) {
    annul_next_ = false;
    res.annulled = true;
    st_.pc = st_.npc;
    st_.npc += 4;
    res.cycles = 1;
    cycles_ += 1;
    return res;
  }

  cti_taken_ = false;
  const u8 tt = Core::execute(*this, res.ins, res);
  if (tt != Core::kNoTrap) {
    Core::take_trap(*this, tt);
    res.trapped = true;
    res.tt = tt;
    res.cycles = cfg_.trap_latency;
  } else {
    const Addr new_pc = st_.npc;
    const Addr new_npc = cti_taken_ ? cti_target_ : st_.npc + 4;
    st_.pc = new_pc;
    st_.npc = new_npc;
  }
  cycles_ += res.cycles;
  return res;
}

u64 IntegerUnit::run(u64 max_steps, Addr halt_pc) {
  u64 n = 0;
  while (n < max_steps && !st_.error_mode && st_.pc != halt_pc) {
    step();
    ++n;
  }
  return n;
}

}  // namespace la::cpu
