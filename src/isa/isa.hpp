// SPARC V8 instruction-set definitions shared by the decoder, encoder,
// disassembler, assembler, and both CPU models.
//
// Field layouts follow The SPARC Architecture Manual, Version 8 (the
// document the LEON2 core the paper uses is built against).
#pragma once

#include <string_view>

#include "common/types.hpp"

namespace la::isa {

/// The three top-level instruction formats (op field, bits 31:30).
enum class Format : u8 {
  kCall = 1,     // op = 1: CALL with 30-bit displacement
  kBranch = 0,   // op = 0: SETHI / Bicc / FBfcc / CBccc / UNIMP
  kArith = 2,    // op = 2: arithmetic / logical / control (op3-coded)
  kMemory = 3,   // op = 3: loads / stores (op3-coded)
};

/// Fully decoded operation.  Condition-code-setting variants are distinct
/// mnemonics so the executor is a single flat switch.
enum class Mnemonic : u16 {
  kInvalid = 0,

  // Format 1
  kCall,

  // Format 0
  kUnimp,
  kSethi,
  kBicc,   // integer conditional branch (cond + annul live in fields)
  kFbfcc,  // floating-point branch (decoded; traps fp_disabled at execute)
  kCbccc,  // coprocessor branch (decoded; traps cp_disabled at execute)

  // Format 2 — logical
  kAnd, kAndcc, kAndn, kAndncc,
  kOr, kOrcc, kOrn, kOrncc,
  kXor, kXorcc, kXnor, kXnorcc,

  // Format 2 — shifts
  kSll, kSrl, kSra,

  // Format 2 — add/sub
  kAdd, kAddcc, kAddx, kAddxcc,
  kSub, kSubcc, kSubx, kSubxcc,

  // Format 2 — tagged add/sub
  kTaddcc, kTaddcctv, kTsubcc, kTsubcctv,

  // Format 2 — multiply / divide
  kMulscc,
  kUmul, kUmulcc, kSmul, kSmulcc,
  kUdiv, kUdivcc, kSdiv, kSdivcc,

  // Format 2 — state register access
  kRdy, kRdasr, kRdpsr, kRdwim, kRdtbr,
  kWry, kWrasr, kWrpsr, kWrwim, kWrtbr,

  // Format 2 — control transfer & windows
  kJmpl, kRett, kTicc, kFlush, kSave, kRestore,

  // Format 2 — FP / coprocessor op spaces (trap at execute)
  kFpop1, kFpop2, kCpop1, kCpop2,

  // Format 3 — integer loads
  kLd, kLdub, kLduh, kLdd, kLdsb, kLdsh,
  kLda, kLduba, kLduha, kLdda, kLdsba, kLdsha,

  // Format 3 — integer stores
  kSt, kStb, kSth, kStd,
  kSta, kStba, kStha, kStda,

  // Format 3 — atomics
  kLdstub, kLdstuba, kSwap, kSwapa,

  // Format 3 — FP / coprocessor loads & stores (trap at execute)
  kLdf, kLdfsr, kLddf, kStf, kStfsr, kStdfq, kStdf,
  kLdc, kLdcsr, kLddc, kStc, kStcsr, kStdcq, kStdc,

  kCount,
};

/// Integer condition codes (the 4-bit `cond` field of Bicc / Ticc).
enum class Cond : u8 {
  kN = 0,    // never
  kE = 1,    // equal (Z)
  kLe = 2,   // less or equal
  kL = 3,    // less
  kLeu = 4,  // less or equal unsigned
  kCs = 5,   // carry set (unsigned less)
  kNeg = 6,  // negative
  kVs = 7,   // overflow set
  kA = 8,    // always
  kNe = 9,   // not equal
  kG = 10,   // greater
  kGe = 11,  // greater or equal
  kGu = 12,  // greater unsigned
  kCc = 13,  // carry clear (unsigned greater-or-equal)
  kPos = 14, // positive
  kVc = 15,  // overflow clear
};

/// Evaluate an integer condition against the four icc flags.
constexpr bool eval_cond(Cond c, bool n, bool z, bool v, bool cflag) {
  switch (c) {
    case Cond::kN: return false;
    case Cond::kE: return z;
    case Cond::kLe: return z || (n != v);
    case Cond::kL: return n != v;
    case Cond::kLeu: return cflag || z;
    case Cond::kCs: return cflag;
    case Cond::kNeg: return n;
    case Cond::kVs: return v;
    case Cond::kA: return true;
    case Cond::kNe: return !z;
    case Cond::kG: return !(z || (n != v));
    case Cond::kGe: return n == v;
    case Cond::kGu: return !(cflag || z);
    case Cond::kCc: return !cflag;
    case Cond::kPos: return !n;
    case Cond::kVc: return !v;
  }
  return false;
}

/// One decoded instruction.  Fields not relevant to a mnemonic are zero.
struct Instruction {
  Mnemonic mn = Mnemonic::kInvalid;
  u8 rd = 0;        // destination register (or cond for branches' raw rd)
  u8 rs1 = 0;
  u8 rs2 = 0;
  bool imm = false; // i bit: rs2 vs simm13
  i32 simm13 = 0;   // sign-extended 13-bit immediate
  u8 asi = 0;       // alternate space identifier (op=3 with i=0)
  u32 imm22 = 0;    // SETHI / UNIMP constant
  Cond cond = Cond::kN;
  bool annul = false;
  i32 disp = 0;     // sign-extended branch disp22 or call disp30 (in words)
  u16 opf = 0;      // FPop/CPop sub-opcode
  u32 raw = 0;      // original encoding (kept for diagnostics)

  bool valid() const { return mn != Mnemonic::kInvalid; }
};

/// True if the mnemonic reads memory (any integer/atomic/fp load).
bool is_load(Mnemonic m);
/// True if the mnemonic writes memory (stores; atomics count as both).
bool is_store(Mnemonic m);
/// True for the alternate-space (privileged) memory ops.
bool is_alternate_space(Mnemonic m);
/// Number of bytes moved by a memory mnemonic (1, 2, 4, or 8).
unsigned access_size(Mnemonic m);
/// Lower-case mnemonic text, e.g. "addcc".
std::string_view mnemonic_name(Mnemonic m);
/// Branch-condition suffix, e.g. "ne" for Cond::kNe ("b" + "ne" = "bne").
std::string_view cond_name(Cond c);

}  // namespace la::isa
