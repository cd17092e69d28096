// The SPARC V8 semantics core, written once for both CPU models.
//
// cpu::IntegerUnit (the functional reference) and cpu::LeonPipeline (the
// timed LEON2 model) run the same instruction set through this template:
// SparcCore<Model>::execute() runs one decoded instruction against the
// model's architectural state and returns the trap it raises (or
// Trap::kNone), and take_trap() performs V8 trap entry.  What differs
// between the models -- how data memory is reached and what it costs, the
// cache side effects of FLUSH and of LEON's ASI 2, which counters are kept
// -- reaches the core through hooks the model defines as ordinary member
// functions.  The model is the template argument, so every hook is a
// static call the compiler can inline; nothing here is virtual.
//
// The hooks (the model befriends its core, so they may be private):
//   st_, annul_next_, cti_taken_, cti_target_   state and inter-step latches
//   cpu_cfg()                -> const CpuConfig&
//   data_read(ea, size)      -> MemResult; .cycles are stall cycles
//   data_write(ea, size, v)  -> MemResult
//   flush_line(ea, res)      FLUSH's cache side effect
//   asi_access(ins, ea, res) -> true when the model served an alternate-
//                               space access itself (it never traps)
//   on_trap(tt)              trap bookkeeping
//   on_retire(Mix)           instruction-mix event, retiring paths only
//
// Cycles: execute() is entered with res.cycles == 1 (the base cost) and
// leaves the instruction's full cost there; on a trap the caller charges
// the trap latency instead.  On success the caller advances pc/npc, taking
// cti_target_ as the new npc when cti_taken_ is set.
#pragma once

#include <limits>

#include "common/bits.hpp"
#include "common/types.hpp"
#include "cpu/alu_ops.hpp"
#include "cpu/config.hpp"
#include "cpu/integer_unit.hpp"  // StepResult
#include "cpu/state.hpp"
#include "isa/isa.hpp"
#include "isa/traps.hpp"

namespace la::cpu {

/// Outcome of one data access through a model's memory hook.
struct MemResult {
  bool ok = true;     // false: access error (data_access_exception)
  Cycles cycles = 0;  // stall cycles beyond the instruction's base cost
  u64 value = 0;      // the value read
};

/// Instruction-mix events, reported only by instructions that retire.
enum class Mix : u8 { kLoad, kStore, kBranch, kTakenBranch, kCall, kMulDiv };

template <class Model>
struct SparcCore {
  static constexpr u8 kNoTrap = static_cast<u8>(isa::Trap::kNone);
  static constexpr u8 tt_of(isa::Trap t) { return static_cast<u8>(t); }

  /// Trap entry per V8 §7: decrement CWP (unchecked), save pc/npc into the
  /// new window's l1/l2, vector through TBR.  A trap with ET=0 enters
  /// error mode instead.
  static void take_trap(Model& m, u8 tt);

  /// Execute `ins`; returns the trap it raises, or kNoTrap.
  static u8 execute(Model& m, const isa::Instruction& ins, StepResult& res);
};

// Out of the class body, so these are ordinary (not implicitly inline)
// functions: the compiler inlines them where it would inline any call.
template <class Model>
void SparcCore<Model>::take_trap(Model& m, u8 tt) {
  m.on_trap(tt);
  CpuState& st = m.st_;
  if (!st.psr.et && tt != tt_of(isa::Trap::kReset)) {
    // The processor halts (a real LEON asserts its error output; the FPX
    // circuitry reports it).  The tt is still latched into TBR so the
    // cause can be read out.
    st.set_tbr_tt(tt);
    st.error_mode = true;
    return;
  }
  st.psr.et = false;
  st.psr.ps = st.psr.s;
  st.psr.s = true;
  st.psr.cwp =
      static_cast<u8>((st.psr.cwp + st.nwindows - 1) % st.nwindows);
  // Saved into the *new* window's locals l1/l2 (r17/r18).
  st.set_reg(17, st.pc);
  st.set_reg(18, st.npc);
  st.set_tbr_tt(tt);
  st.pc = (st.tbr & 0xfffff000u) + (u32{tt} << 4);
  st.npc = st.pc + 4;
  m.annul_next_ = false;
}

template <class Model>
u8 SparcCore<Model>::execute(Model& m, const isa::Instruction& ins,
                             StepResult& res) {
  using isa::Cond;
  using isa::Mnemonic;
  using isa::Trap;
  CpuState& st = m.st_;
  const CpuConfig& cfg = m.cpu_cfg();
  const Addr pc = st.pc;
  const u32 a = st.reg(ins.rs1);
  const u32 b = ins.imm ? static_cast<u32>(ins.simm13) : st.reg(ins.rs2);
  // Valid-bit mask for WIM given the configured window count.
  const auto window_mask = [&] {
    return cfg.nwindows == 32 ? ~0u : ((1u << cfg.nwindows) - 1u);
  };

  switch (ins.mn) {
    case Mnemonic::kInvalid:
    case Mnemonic::kUnimp:
      return tt_of(Trap::kIllegalInstruction);

    // -- Control transfer -----------------------------------------------
    case Mnemonic::kCall:
      st.set_reg(15, pc);
      m.cti_taken_ = true;
      m.cti_target_ = pc + (static_cast<u32>(ins.disp) << 2);
      res.cycles += cfg.cti_extra;
      m.on_retire(Mix::kCall);
      return kNoTrap;

    case Mnemonic::kBicc: {
      m.on_retire(Mix::kBranch);
      const bool taken = isa::eval_cond(ins.cond, st.psr.n, st.psr.z,
                                        st.psr.v, st.psr.c);
      if (ins.cond == Cond::kA) {
        m.cti_taken_ = true;
        m.cti_target_ = pc + (static_cast<u32>(ins.disp) << 2);
        if (ins.annul) m.annul_next_ = true;
        res.cycles += cfg.cti_extra;
        m.on_retire(Mix::kTakenBranch);
      } else if (taken) {
        m.cti_taken_ = true;
        m.cti_target_ = pc + (static_cast<u32>(ins.disp) << 2);
        res.cycles += cfg.cti_extra;
        m.on_retire(Mix::kTakenBranch);
      } else {
        if (ins.annul) m.annul_next_ = true;
      }
      return kNoTrap;
    }

    case Mnemonic::kFbfcc:
      return tt_of(Trap::kFpDisabled);  // no FPU configured
    case Mnemonic::kCbccc:
      return tt_of(Trap::kCpDisabled);

    case Mnemonic::kJmpl: {
      const Addr target = a + b;
      if (!is_aligned(target, 4)) return tt_of(Trap::kMemAddressNotAligned);
      st.set_reg(ins.rd, pc);
      m.cti_taken_ = true;
      m.cti_target_ = target;
      res.cycles += cfg.cti_extra;
      m.on_retire(Mix::kCall);
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
      const Addr target = a + b;
      if (!is_aligned(target, 4)) return tt_of(Trap::kMemAddressNotAligned);
      st.psr.cwp = static_cast<u8>(new_cwp);
      st.psr.s = st.psr.ps;
      st.psr.et = true;
      m.cti_taken_ = true;
      m.cti_target_ = target;
      res.cycles += cfg.cti_extra;
      return kNoTrap;
    }

    case Mnemonic::kTicc: {
      const bool taken = isa::eval_cond(ins.cond, st.psr.n, st.psr.z,
                                        st.psr.v, st.psr.c);
      if (!taken) return kNoTrap;
      return static_cast<u8>(0x80u + ((a + b) & 0x7fu));
    }

    case Mnemonic::kFlush:
      // Architecturally a no-op; a model with caches invalidates the
      // lines holding the address (the boot ROM's mailbox poll relies on
      // it to see writes made behind the processor's back, Fig 5).
      m.flush_line(a + b, res);
      return kNoTrap;

    // -- SETHI and the line tier's ALU ops: LA_ALU_OPS (cpu/alu_ops.hpp),
    //    where sethi's B is its shifted imm22 ------------------------------
#define LA_ALU_RD(v) st.set_reg(ins.rd, (v))
#define LA_ALU_PSR st.psr
#define LA_ALU_SUBX_NO_CARRY cfg.quirk_subx_no_carry
#define LA_CORE_ALU(name, mn, ...)                                  \
    case Mnemonic::mn: {                                            \
      const u32 A = a;                                              \
      const u32 B =                                                 \
          Mnemonic::mn == Mnemonic::kSethi ? ins.imm22 << 10 : b;   \
      (void)A;                                                      \
      __VA_ARGS__;                                                  \
      return kNoTrap;                                               \
    }
    LA_ALU_OPS(LA_CORE_ALU)
#undef LA_CORE_ALU
#undef LA_ALU_SUBX_NO_CARRY
#undef LA_ALU_PSR
#undef LA_ALU_RD

    // -- The logical ops the line tier leaves to execute() ----------------
    case Mnemonic::kAndncc: { const u32 r = a & ~b; icc_logic(st.psr, r); st.set_reg(ins.rd, r); return kNoTrap; }
    case Mnemonic::kOrn: st.set_reg(ins.rd, a | ~b); return kNoTrap;
    case Mnemonic::kOrncc: { const u32 r = a | ~b; icc_logic(st.psr, r); st.set_reg(ins.rd, r); return kNoTrap; }
    case Mnemonic::kXnorcc: { const u32 r = a ^ ~b; icc_logic(st.psr, r); st.set_reg(ins.rd, r); return kNoTrap; }

    // -- Tagged arithmetic ------------------------------------------------
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

    // -- Multiply / divide ------------------------------------------------
    case Mnemonic::kMulscc: {
      // One step of the iterative multiply: see V8 manual B.18.
      const u32 v1 = ((st.psr.n != st.psr.v) ? 0x80000000u : 0u) | (a >> 1);
      const u32 v2 = (st.y & 1u) ? b : 0u;
      const u32 r = v1 + v2;
      icc_add(st.psr, v1, v2, r, false);
      st.y = (st.y >> 1) | ((a & 1u) << 31);
      st.set_reg(ins.rd, r);
      return kNoTrap;
    }
    case Mnemonic::kUmul:
    case Mnemonic::kUmulcc: {
      if (!cfg.has_mul) return tt_of(Trap::kIllegalInstruction);
      const u64 p = u64{a} * u64{b};
      st.y = static_cast<u32>(p >> 32);
      const u32 r = static_cast<u32>(p);
      if (ins.mn == Mnemonic::kUmulcc) icc_logic(st.psr, r);
      st.set_reg(ins.rd, r);
      res.cycles = cfg.mul_latency;
      m.on_retire(Mix::kMulDiv);
      return kNoTrap;
    }
    case Mnemonic::kSmul:
    case Mnemonic::kSmulcc: {
      if (!cfg.has_mul) return tt_of(Trap::kIllegalInstruction);
      const i64 p = i64{static_cast<i32>(a)} * i64{static_cast<i32>(b)};
      st.y = static_cast<u32>(static_cast<u64>(p) >> 32);
      const u32 r = static_cast<u32>(static_cast<u64>(p));
      if (ins.mn == Mnemonic::kSmulcc) icc_logic(st.psr, r);
      st.set_reg(ins.rd, r);
      res.cycles = cfg.mul_latency;
      m.on_retire(Mix::kMulDiv);
      return kNoTrap;
    }
    case Mnemonic::kUdiv:
    case Mnemonic::kUdivcc: {
      if (!cfg.has_div) return tt_of(Trap::kIllegalInstruction);
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
      res.cycles = cfg.div_latency;
      m.on_retire(Mix::kMulDiv);
      return kNoTrap;
    }
    case Mnemonic::kSdiv:
    case Mnemonic::kSdivcc: {
      if (!cfg.has_div) return tt_of(Trap::kIllegalInstruction);
      if (b == 0) return tt_of(Trap::kDivisionByZero);
      const i64 dividend = static_cast<i64>((u64{st.y} << 32) | a);
      const i64 divisor = static_cast<i32>(b);
      // INT64_MIN / -1 overflows the host idiv (SIGFPE); the
      // architectural quotient 2^63 overflows the 32-bit result anyway.
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
      res.cycles = cfg.div_latency;
      m.on_retire(Mix::kMulDiv);
      return kNoTrap;
    }

    // -- State registers --------------------------------------------------
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

    // -- Register windows -------------------------------------------------
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

    // -- FP / coprocessor: neither unit is configured ----------------------
    case Mnemonic::kFpop1:
    case Mnemonic::kFpop2:
    case Mnemonic::kLdf: case Mnemonic::kLdfsr: case Mnemonic::kLddf:
    case Mnemonic::kStf: case Mnemonic::kStfsr: case Mnemonic::kStdfq:
    case Mnemonic::kStdf:
      return tt_of(Trap::kFpDisabled);
    case Mnemonic::kCpop1:
    case Mnemonic::kCpop2:
    case Mnemonic::kLdc: case Mnemonic::kLdcsr: case Mnemonic::kLddc:
    case Mnemonic::kStc: case Mnemonic::kStcsr: case Mnemonic::kStdcq:
    case Mnemonic::kStdc:
      return tt_of(Trap::kCpDisabled);

    default:
      break;  // integer loads, stores and atomics, below
  }

  // -- Loads, stores, atomics ---------------------------------------------
  // Checked in V8 trap priority order (Table 7-1): privileged_instruction
  // (6), then illegal_instruction for an odd LDD/STD rd (7), then
  // mem_address_not_aligned (9), then the access itself.
  const bool ld = isa::is_load(ins.mn);
  const bool stq = isa::is_store(ins.mn);
  if (!ld && !stq) return tt_of(Trap::kIllegalInstruction);
  const Addr ea = a + b;
  if (isa::is_alternate_space(ins.mn)) {
    if (!st.psr.s) return tt_of(Trap::kPrivilegedInstruction);
    if (m.asi_access(ins, ea, res)) return kNoTrap;
  }
  const unsigned size = isa::access_size(ins.mn);
  const bool dbl = size == 8;
  if (dbl && (ins.rd & 1u)) return tt_of(Trap::kIllegalInstruction);
  if (!is_aligned(ea, size)) return tt_of(Trap::kMemAddressNotAligned);
  const auto retire = [&](Mix kind) {
    res.mem_access = true;
    res.mem_write = stq;
    res.mem_addr = ea;
    res.mem_size = static_cast<u8>(size);
    m.on_retire(kind);
  };

  if (ld && stq) {
    // Atomics (ldstub, swap): the load, then the store, then rd.
    const MemResult r = m.data_read(ea, size);
    if (!r.ok) return tt_of(Trap::kDataAccess);
    const u64 v = size == 1 ? 0xffu : u64{st.reg(ins.rd)};
    const MemResult w = m.data_write(ea, size, v);
    if (!w.ok) return tt_of(Trap::kDataAccess);
    st.set_reg(ins.rd, static_cast<u32>(r.value));
    res.cycles = 1 + cfg.load_extra + cfg.store_extra + r.cycles + w.cycles;
    m.on_retire(Mix::kLoad);  // atomics count as a load and a store
    retire(Mix::kStore);
    return kNoTrap;
  }

  if (ld) {
    const MemResult r = m.data_read(ea, size);
    if (!r.ok) return tt_of(Trap::kDataAccess);
    if (dbl) {
      st.set_reg(ins.rd, static_cast<u32>(r.value >> 32));
      st.set_reg(static_cast<u8>(ins.rd | 1u), static_cast<u32>(r.value));
      res.cycles = 1 + cfg.load_double_extra + r.cycles;
    } else {
      u32 v = static_cast<u32>(r.value);
      if (isa::op_info(ins.mn).flags & isa::kSigned) {
        v = static_cast<u32>(sign_extend(v, size * 8));
      }
      st.set_reg(ins.rd, v);
      res.cycles = 1 + cfg.load_extra + r.cycles;
    }
    retire(Mix::kLoad);
    return kNoTrap;
  }

  const u64 v = dbl ? (u64{st.reg(ins.rd)} << 32) |
                          st.reg(static_cast<u8>(ins.rd | 1u))
                    : u64{st.reg(ins.rd)};
  const MemResult w = m.data_write(ea, size, v);
  if (!w.ok) return tt_of(Trap::kDataAccess);
  res.cycles =
      1 + (dbl ? cfg.store_double_extra : cfg.store_extra) + w.cycles;
  retire(Mix::kStore);
  return kNoTrap;
}

}  // namespace la::cpu
