#include "cpu/integer_unit.hpp"

#include <cassert>
#include <limits>

#include "common/bits.hpp"
#include "cpu/alu_ops.hpp"
#include "cpu/block_engine.hpp"

namespace la::cpu {

using isa::Cond;
using isa::Instruction;
using isa::Mnemonic;
using isa::Trap;

namespace {
constexpr u8 kNoTrap = static_cast<u8>(Trap::kNone);
constexpr u8 tt_of(Trap t) { return static_cast<u8>(t); }
}  // namespace

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

void IntegerUnit::take_trap(u8 tt) {
  ++trap_count_;
  last_tt_ = tt;
  if (!st_.psr.et && tt != tt_of(Trap::kReset)) {
    // Trap with traps disabled: the processor enters error mode and halts
    // (a real LEON asserts its error output; the FPX circuitry reports it).
    // The tt is still latched into TBR so the cause can be read out.
    st_.set_tbr_tt(tt);
    st_.error_mode = true;
    return;
  }
  st_.psr.et = false;
  st_.psr.ps = st_.psr.s;
  st_.psr.s = true;
  st_.psr.cwp = static_cast<u8>((st_.psr.cwp + st_.nwindows - 1) %
                                st_.nwindows);
  // Saved into the *new* window's locals l1/l2 (r17/r18).
  st_.set_reg(17, st_.pc);
  st_.set_reg(18, st_.npc);
  st_.set_tbr_tt(tt);
  const Addr base = st_.tbr & 0xfffff000u;
  st_.pc = base + (u32{tt} << 4);
  st_.npc = st_.pc + 4;
  annul_next_ = false;
}

// The condition-code formulas live in cpu/alu_ops.hpp, shared with the
// inline ALU handlers of both threaded tiers.
void IntegerUnit::set_icc_logic(u32 res) { icc_logic(st_.psr, res); }

void IntegerUnit::set_icc_add(u32 a, u32 b, u32 res, bool carry_in) {
  icc_add(st_.psr, a, b, res, carry_in);
}

void IntegerUnit::set_icc_sub(u32 a, u32 b, u32 res, bool carry_in) {
  icc_sub(st_.psr, a, b, res, carry_in);
}

u8 IntegerUnit::execute(const Instruction& ins, StepResult& res) {
  auto& st = st_;
  const Addr pc = st.pc;

  // Shared helpers -------------------------------------------------------
  const auto effective_addr = [&]() -> Addr {
    return st.reg(ins.rs1) +
           (ins.imm ? static_cast<u32>(ins.simm13) : st.reg(ins.rs2));
  };

  const auto do_load = [&](unsigned size, bool sign, bool dbl) -> u8 {
    if (dbl && (ins.rd & 1)) return tt_of(Trap::kIllegalInstruction);
    if (isa::is_alternate_space(ins.mn) && !st.psr.s) {
      return tt_of(Trap::kPrivilegedInstruction);
    }
    const Addr ea = effective_addr();
    const unsigned align = dbl ? 8 : size;
    if (!is_aligned(ea, align)) return tt_of(Trap::kMemAddressNotAligned);
    u64 v = 0;
    if (!mem_.read(ea, dbl ? 8 : size, v)) return tt_of(Trap::kDataAccess);
    res.mem_access = true;
    res.mem_addr = ea;
    res.mem_size = static_cast<u8>(dbl ? 8 : size);
    if (dbl) {
      st.set_reg(ins.rd, static_cast<u32>(v >> 32));
      st.set_reg(static_cast<u8>(ins.rd | 1), static_cast<u32>(v));
      res.cycles = 1 + cfg_.load_double_extra;
      return kNoTrap;
    }
    u32 w = static_cast<u32>(v);
    if (sign) w = static_cast<u32>(sign_extend(w, size * 8));
    st.set_reg(ins.rd, w);
    res.cycles = 1 + cfg_.load_extra;
    return kNoTrap;
  };

  const auto do_store = [&](unsigned size, bool dbl) -> u8 {
    if (dbl && (ins.rd & 1)) return tt_of(Trap::kIllegalInstruction);
    if (isa::is_alternate_space(ins.mn) && !st.psr.s) {
      return tt_of(Trap::kPrivilegedInstruction);
    }
    const Addr ea = effective_addr();
    const unsigned align = dbl ? 8 : size;
    if (!is_aligned(ea, align)) return tt_of(Trap::kMemAddressNotAligned);
    u64 v;
    if (dbl) {
      v = (u64{st.reg(ins.rd)} << 32) |
          st.reg(static_cast<u8>(ins.rd | 1));
    } else {
      v = st.reg(ins.rd);
    }
    if (!mem_.write(ea, dbl ? 8 : size, v)) return tt_of(Trap::kDataAccess);
    res.mem_access = true;
    res.mem_write = true;
    res.mem_addr = ea;
    res.mem_size = static_cast<u8>(dbl ? 8 : size);
    res.cycles = 1 + (dbl ? cfg_.store_double_extra : cfg_.store_extra);
    return kNoTrap;
  };

  const u32 a = st.reg(ins.rs1);
  const u32 b = op2_of(ins);

  switch (ins.mn) {
    case Mnemonic::kInvalid:
    case Mnemonic::kUnimp:
      return tt_of(Trap::kIllegalInstruction);

    // -- Control transfer -------------------------------------------------
    case Mnemonic::kCall:
      st.set_reg(15, pc);
      cti_taken_ = true;
      cti_target_ = pc + (static_cast<u32>(ins.disp) << 2);
      res.cycles = 1 + cfg_.cti_extra;
      return kNoTrap;

    case Mnemonic::kBicc: {
      const bool taken = isa::eval_cond(ins.cond, st.psr.n, st.psr.z,
                                        st.psr.v, st.psr.c);
      if (ins.cond == Cond::kA) {
        cti_taken_ = true;
        cti_target_ = pc + (static_cast<u32>(ins.disp) << 2);
        if (ins.annul) annul_next_ = true;
        res.cycles = 1 + cfg_.cti_extra;
      } else if (taken) {
        cti_taken_ = true;
        cti_target_ = pc + (static_cast<u32>(ins.disp) << 2);
        res.cycles = 1 + cfg_.cti_extra;
      } else {
        if (ins.annul) annul_next_ = true;
      }
      return kNoTrap;
    }

    case Mnemonic::kFbfcc:
      return tt_of(Trap::kFpDisabled);  // no FPU configured
    case Mnemonic::kCbccc:
      return tt_of(Trap::kCpDisabled);

    case Mnemonic::kJmpl: {
      const Addr target = a + (ins.imm ? static_cast<u32>(ins.simm13)
                                       : st.reg(ins.rs2));
      if (!is_aligned(target, 4)) return tt_of(Trap::kMemAddressNotAligned);
      st.set_reg(ins.rd, pc);
      cti_taken_ = true;
      cti_target_ = target;
      res.cycles = 1 + cfg_.cti_extra;
      return kNoTrap;
    }

    case Mnemonic::kRett: {
      if (st.psr.et) {
        return st.psr.s ? tt_of(Trap::kIllegalInstruction)
                        : tt_of(Trap::kPrivilegedInstruction);
      }
      if (!st.psr.s) return tt_of(Trap::kPrivilegedInstruction);
      const unsigned new_cwp = (st.psr.cwp + 1) % st.nwindows;
      if ((st.wim >> new_cwp) & 1u) return tt_of(Trap::kWindowUnderflow);
      const Addr target = a + (ins.imm ? static_cast<u32>(ins.simm13)
                                       : st.reg(ins.rs2));
      if (!is_aligned(target, 4)) return tt_of(Trap::kMemAddressNotAligned);
      st.psr.cwp = static_cast<u8>(new_cwp);
      st.psr.s = st.psr.ps;
      st.psr.et = true;
      cti_taken_ = true;
      cti_target_ = target;
      res.cycles = 1 + cfg_.cti_extra;
      return kNoTrap;
    }

    case Mnemonic::kTicc: {
      const bool taken = isa::eval_cond(ins.cond, st.psr.n, st.psr.z,
                                        st.psr.v, st.psr.c);
      if (!taken) return kNoTrap;
      const u32 num = a + b;
      return static_cast<u8>(0x80u + (num & 0x7fu));
    }

    case Mnemonic::kFlush:
      // Functionally a no-op (the timed model invalidates the I-cache line).
      return kNoTrap;

    // -- SETHI ------------------------------------------------------------
    case Mnemonic::kSethi:
      st.set_reg(ins.rd, ins.imm22 << 10);
      return kNoTrap;

    // -- Logical ----------------------------------------------------------
    case Mnemonic::kAnd: st.set_reg(ins.rd, a & b); return kNoTrap;
    case Mnemonic::kAndcc: { const u32 r = a & b; set_icc_logic(r); st.set_reg(ins.rd, r); return kNoTrap; }
    case Mnemonic::kAndn: st.set_reg(ins.rd, a & ~b); return kNoTrap;
    case Mnemonic::kAndncc: { const u32 r = a & ~b; set_icc_logic(r); st.set_reg(ins.rd, r); return kNoTrap; }
    case Mnemonic::kOr: st.set_reg(ins.rd, a | b); return kNoTrap;
    case Mnemonic::kOrcc: { const u32 r = a | b; set_icc_logic(r); st.set_reg(ins.rd, r); return kNoTrap; }
    case Mnemonic::kOrn: st.set_reg(ins.rd, a | ~b); return kNoTrap;
    case Mnemonic::kOrncc: { const u32 r = a | ~b; set_icc_logic(r); st.set_reg(ins.rd, r); return kNoTrap; }
    case Mnemonic::kXor: st.set_reg(ins.rd, a ^ b); return kNoTrap;
    case Mnemonic::kXorcc: { const u32 r = a ^ b; set_icc_logic(r); st.set_reg(ins.rd, r); return kNoTrap; }
    case Mnemonic::kXnor: st.set_reg(ins.rd, a ^ ~b); return kNoTrap;
    case Mnemonic::kXnorcc: { const u32 r = a ^ ~b; set_icc_logic(r); st.set_reg(ins.rd, r); return kNoTrap; }

    // -- Shifts (count is the low 5 bits of operand2) ----------------------
    case Mnemonic::kSll: st.set_reg(ins.rd, a << (b & 31)); return kNoTrap;
    case Mnemonic::kSrl: st.set_reg(ins.rd, a >> (b & 31)); return kNoTrap;
    case Mnemonic::kSra:
      st.set_reg(ins.rd,
                 static_cast<u32>(static_cast<i32>(a) >> (b & 31)));
      return kNoTrap;

    // -- Add / subtract ----------------------------------------------------
    case Mnemonic::kAdd: st.set_reg(ins.rd, a + b); return kNoTrap;
    case Mnemonic::kAddcc: { const u32 r = a + b; set_icc_add(a, b, r, false); st.set_reg(ins.rd, r); return kNoTrap; }
    case Mnemonic::kAddx: st.set_reg(ins.rd, a + b + (st.psr.c ? 1 : 0)); return kNoTrap;
    case Mnemonic::kAddxcc: {
      const bool cin = st.psr.c;
      const u32 r = a + b + (cin ? 1 : 0);
      set_icc_add(a, b, r, cin);
      st.set_reg(ins.rd, r);
      return kNoTrap;
    }
    case Mnemonic::kSub: st.set_reg(ins.rd, a - b); return kNoTrap;
    case Mnemonic::kSubcc: { const u32 r = a - b; set_icc_sub(a, b, r, false); st.set_reg(ins.rd, r); return kNoTrap; }
    case Mnemonic::kSubx:
      st.set_reg(ins.rd, a - b - (!cfg_.quirk_subx_no_carry && st.psr.c ? 1 : 0));
      return kNoTrap;
    case Mnemonic::kSubxcc: {
      const bool cin = st.psr.c;
      const u32 r = a - b - (cin ? 1 : 0);
      set_icc_sub(a, b, r, cin);
      st.set_reg(ins.rd, r);
      return kNoTrap;
    }

    // -- Tagged arithmetic -------------------------------------------------
    case Mnemonic::kTaddcc:
    case Mnemonic::kTaddcctv: {
      const u32 r = a + b;
      const bool tag_v = (((a & b & ~r) | (~a & ~b & r)) >> 31) != 0 ||
                         ((a | b) & 3u) != 0;
      if (ins.mn == Mnemonic::kTaddcctv && tag_v) {
        return tt_of(Trap::kTagOverflow);
      }
      st.psr.n = (r >> 31) != 0;
      st.psr.z = r == 0;
      st.psr.v = tag_v;
      st.psr.c = (u64{a} + u64{b}) >> 32;
      st.set_reg(ins.rd, r);
      return kNoTrap;
    }
    case Mnemonic::kTsubcc:
    case Mnemonic::kTsubcctv: {
      const u32 r = a - b;
      const bool tag_v = (((a & ~b & ~r) | (~a & b & r)) >> 31) != 0 ||
                         ((a | b) & 3u) != 0;
      if (ins.mn == Mnemonic::kTsubcctv && tag_v) {
        return tt_of(Trap::kTagOverflow);
      }
      st.psr.n = (r >> 31) != 0;
      st.psr.z = r == 0;
      st.psr.v = tag_v;
      st.psr.c = u64{a} < u64{b};
      st.set_reg(ins.rd, r);
      return kNoTrap;
    }

    // -- Multiply / divide -------------------------------------------------
    case Mnemonic::kMulscc: {
      // One step of the iterative multiply: see V8 manual B.18.
      const u32 v1 = ((st.psr.n != st.psr.v) ? 0x80000000u : 0u) | (a >> 1);
      const u32 v2 = (st.y & 1u) ? b : 0u;
      const u32 r = v1 + v2;
      set_icc_add(v1, v2, r, false);
      st.y = (st.y >> 1) | ((a & 1u) << 31);
      st.set_reg(ins.rd, r);
      return kNoTrap;
    }
    case Mnemonic::kUmul:
    case Mnemonic::kUmulcc: {
      if (!cfg_.has_mul) return tt_of(Trap::kIllegalInstruction);
      const u64 p = u64{a} * u64{b};
      st.y = static_cast<u32>(p >> 32);
      const u32 r = static_cast<u32>(p);
      if (ins.mn == Mnemonic::kUmulcc) set_icc_logic(r);
      st.set_reg(ins.rd, r);
      res.cycles = cfg_.mul_latency;
      return kNoTrap;
    }
    case Mnemonic::kSmul:
    case Mnemonic::kSmulcc: {
      if (!cfg_.has_mul) return tt_of(Trap::kIllegalInstruction);
      const i64 p = i64{static_cast<i32>(a)} * i64{static_cast<i32>(b)};
      st.y = static_cast<u32>(static_cast<u64>(p) >> 32);
      const u32 r = static_cast<u32>(static_cast<u64>(p));
      if (ins.mn == Mnemonic::kSmulcc) set_icc_logic(r);
      st.set_reg(ins.rd, r);
      res.cycles = cfg_.mul_latency;
      return kNoTrap;
    }
    case Mnemonic::kUdiv:
    case Mnemonic::kUdivcc: {
      if (!cfg_.has_div) return tt_of(Trap::kIllegalInstruction);
      if (b == 0) return tt_of(Trap::kDivisionByZero);
      const u64 dividend = (u64{st.y} << 32) | a;
      u64 q = dividend / b;
      const bool ovf = q > 0xffffffffull;
      if (ovf) q = 0xffffffffull;
      const u32 r = static_cast<u32>(q);
      if (ins.mn == Mnemonic::kUdivcc) {
        st.psr.n = (r >> 31) != 0;
        st.psr.z = r == 0;
        st.psr.v = ovf;
        st.psr.c = false;
      }
      st.set_reg(ins.rd, r);
      res.cycles = cfg_.div_latency;
      return kNoTrap;
    }
    case Mnemonic::kSdiv:
    case Mnemonic::kSdivcc: {
      if (!cfg_.has_div) return tt_of(Trap::kIllegalInstruction);
      if (b == 0) return tt_of(Trap::kDivisionByZero);
      const i64 dividend =
          static_cast<i64>((u64{st.y} << 32) | a);
      const i64 divisor = static_cast<i32>(b);
      // INT64_MIN / -1 overflows the host idiv (SIGFPE); the architectural
      // quotient 2^63 overflows the 32-bit result anyway.
      i64 q = (dividend == std::numeric_limits<i64>::min() && divisor == -1)
                  ? std::numeric_limits<i64>::max()
                  : dividend / divisor;
      bool ovf = false;
      if (q > 0x7fffffffll) { q = 0x7fffffffll; ovf = true; }
      if (q < -0x80000000ll) { q = -0x80000000ll; ovf = true; }
      const u32 r = static_cast<u32>(static_cast<u64>(q));
      if (ins.mn == Mnemonic::kSdivcc) {
        st.psr.n = (r >> 31) != 0;
        st.psr.z = r == 0;
        st.psr.v = ovf;
        st.psr.c = false;
      }
      st.set_reg(ins.rd, r);
      res.cycles = cfg_.div_latency;
      return kNoTrap;
    }

    // -- State registers ---------------------------------------------------
    case Mnemonic::kRdy: st.set_reg(ins.rd, st.y); return kNoTrap;
    case Mnemonic::kRdasr:
      // RDASR rs1=15 rd=0 is STBAR: a store barrier, no-op here.
      st.set_reg(ins.rd, st.asr[ins.rs1]);
      return kNoTrap;
    case Mnemonic::kRdpsr:
      if (!st.psr.s) return tt_of(Trap::kPrivilegedInstruction);
      st.set_reg(ins.rd, st.psr.pack());
      return kNoTrap;
    case Mnemonic::kRdwim:
      if (!st.psr.s) return tt_of(Trap::kPrivilegedInstruction);
      // Bits for non-existent windows read as zero.
      st.set_reg(ins.rd, st.wim & window_mask());
      return kNoTrap;
    case Mnemonic::kRdtbr:
      if (!st.psr.s) return tt_of(Trap::kPrivilegedInstruction);
      st.set_reg(ins.rd, st.tbr);
      return kNoTrap;
    case Mnemonic::kWry: st.y = a ^ b; return kNoTrap;
    case Mnemonic::kWrasr: st.asr[ins.rd] = a ^ b; return kNoTrap;
    case Mnemonic::kWrpsr: {
      if (!st.psr.s) return tt_of(Trap::kPrivilegedInstruction);
      const u32 v = a ^ b;
      if (bits(v, 4, 0) >= st.nwindows) {
        return tt_of(Trap::kIllegalInstruction);
      }
      st.psr.unpack(v);
      return kNoTrap;
    }
    case Mnemonic::kWrwim:
      if (!st.psr.s) return tt_of(Trap::kPrivilegedInstruction);
      st.wim = (a ^ b) & window_mask();
      return kNoTrap;
    case Mnemonic::kWrtbr:
      if (!st.psr.s) return tt_of(Trap::kPrivilegedInstruction);
      // Only the trap base address field (31:12) is writable.
      st.tbr = (st.tbr & 0x00000ff0u) | ((a ^ b) & 0xfffff000u);
      return kNoTrap;

    // -- Register windows --------------------------------------------------
    case Mnemonic::kSave: {
      const unsigned new_cwp = (st.psr.cwp + st.nwindows - 1) % st.nwindows;
      if ((st.wim >> new_cwp) & 1u) return tt_of(Trap::kWindowOverflow);
      const u32 r = a + b;  // computed with the OLD window
      st.psr.cwp = static_cast<u8>(new_cwp);
      st.set_reg(ins.rd, r);  // written into the NEW window
      return kNoTrap;
    }
    case Mnemonic::kRestore: {
      const unsigned new_cwp = (st.psr.cwp + 1) % st.nwindows;
      if ((st.wim >> new_cwp) & 1u) return tt_of(Trap::kWindowUnderflow);
      const u32 r = a + b;
      st.psr.cwp = static_cast<u8>(new_cwp);
      st.set_reg(ins.rd, r);
      return kNoTrap;
    }

    // -- FP / coprocessor op spaces ---------------------------------------
    case Mnemonic::kFpop1:
    case Mnemonic::kFpop2:
      return tt_of(Trap::kFpDisabled);
    case Mnemonic::kCpop1:
    case Mnemonic::kCpop2:
      return tt_of(Trap::kCpDisabled);

    // -- Loads -------------------------------------------------------------
    case Mnemonic::kLd: case Mnemonic::kLda: return do_load(4, false, false);
    case Mnemonic::kLdub: case Mnemonic::kLduba: return do_load(1, false, false);
    case Mnemonic::kLduh: case Mnemonic::kLduha: return do_load(2, false, false);
    case Mnemonic::kLdsb: case Mnemonic::kLdsba: return do_load(1, true, false);
    case Mnemonic::kLdsh: case Mnemonic::kLdsha: return do_load(2, true, false);
    case Mnemonic::kLdd: case Mnemonic::kLdda: return do_load(4, false, true);

    // -- Stores ------------------------------------------------------------
    case Mnemonic::kSt: case Mnemonic::kSta: return do_store(4, false);
    case Mnemonic::kStb: case Mnemonic::kStba: return do_store(1, false);
    case Mnemonic::kSth: case Mnemonic::kStha: return do_store(2, false);
    case Mnemonic::kStd: case Mnemonic::kStda: return do_store(4, true);

    // -- Atomics -----------------------------------------------------------
    case Mnemonic::kLdstub:
    case Mnemonic::kLdstuba: {
      if (isa::is_alternate_space(ins.mn) && !st.psr.s) {
        return tt_of(Trap::kPrivilegedInstruction);
      }
      const Addr ea = effective_addr();
      u64 old = 0;
      if (!mem_.read(ea, 1, old)) return tt_of(Trap::kDataAccess);
      if (!mem_.write(ea, 1, 0xff)) return tt_of(Trap::kDataAccess);
      st.set_reg(ins.rd, static_cast<u32>(old));
      res.mem_access = true;
      res.mem_write = true;
      res.mem_addr = ea;
      res.mem_size = 1;
      res.cycles = 1 + cfg_.load_extra + cfg_.store_extra;
      return kNoTrap;
    }
    case Mnemonic::kSwap:
    case Mnemonic::kSwapa: {
      if (isa::is_alternate_space(ins.mn) && !st.psr.s) {
        return tt_of(Trap::kPrivilegedInstruction);
      }
      const Addr ea = effective_addr();
      if (!is_aligned(ea, 4)) return tt_of(Trap::kMemAddressNotAligned);
      u64 old = 0;
      if (!mem_.read(ea, 4, old)) return tt_of(Trap::kDataAccess);
      if (!mem_.write(ea, 4, st.reg(ins.rd))) {
        return tt_of(Trap::kDataAccess);
      }
      st.set_reg(ins.rd, static_cast<u32>(old));
      res.mem_access = true;
      res.mem_write = true;
      res.mem_addr = ea;
      res.mem_size = 4;
      res.cycles = 1 + cfg_.load_extra + cfg_.store_extra;
      return kNoTrap;
    }

    // -- FP / coprocessor memory ops ---------------------------------------
    case Mnemonic::kLdf: case Mnemonic::kLdfsr: case Mnemonic::kLddf:
    case Mnemonic::kStf: case Mnemonic::kStfsr: case Mnemonic::kStdfq:
    case Mnemonic::kStdf:
      return tt_of(Trap::kFpDisabled);
    case Mnemonic::kLdc: case Mnemonic::kLdcsr: case Mnemonic::kLddc:
    case Mnemonic::kStc: case Mnemonic::kStcsr: case Mnemonic::kStdcq:
    case Mnemonic::kStdc:
      return tt_of(Trap::kCpDisabled);

    case Mnemonic::kCount:
      break;
  }
  return tt_of(Trap::kIllegalInstruction);
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
    take_trap(tt_of(Trap::kInstructionAccess));
    res.trapped = true;
    res.tt = tt_of(Trap::kInstructionAccess);
    res.cycles = cfg_.trap_latency;
    cycles_ += res.cycles;
    if (obs_) obs_->on_step(res);
    return;
  }
  res.raw = word;
  res.ins = cfg_.host_decode_cache ? predecode_.lookup(word)
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
  if (tt != kNoTrap) {
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
  u64 n = 0;
  if (obs_ == nullptr && cfg_.host_block_engine) {
    // Basic-block translation tier: decode each block once, execute via
    // threaded dispatch.  Bit-identical to the loops below (the engine
    // re-checks the same between-instruction conditions and routes every
    // irregular case back through step_into); engages only observerless,
    // so tracing and single-stepping always see the per-step path.
    if (!block_) block_ = std::make_unique<BlockEngine>();
    return block_->run(*this, max_steps, halt_pc);
  }
  if (obs_ == nullptr && cfg_.host_decode_cache) {
    // Hot loop: one StepResult reused across iterations; nothing outside
    // this frame observes it, so skipping the per-step materialization is
    // invisible (the same instructions execute with the same state).
    // host_decode_cache doubles as the functional model's "host fast
    // paths" knob: with it off, run() is the plain per-step path.
    StepResult res;
    while (n < max_steps && !st_.error_mode && st_.pc != halt_pc) {
      step_into(res);
      ++n;
    }
    return n;
  }
  while (n < max_steps && !st_.error_mode && st_.pc != halt_pc) {
    step();
    ++n;
  }
  return n;
}

}  // namespace la::cpu
