// SPARC V8 instruction-set definitions shared by the decoder, encoder,
// disassembler, assembler, and both CPU models.
//
// Field layouts follow The SPARC Architecture Manual, Version 8 (the
// document the LEON2 core the paper uses is built against).
#pragma once

#include <cstddef>
#include <iterator>
#include <string_view>

#include "common/types.hpp"

namespace la::isa {

/// The instruction table: one row per Mnemonic, in enum order, and the one
/// place an instruction's encoding, text and memory facts are written.
///   M(enumerator, text, corpus key, op, op3, access size, flags)
/// `text` is what sasm parses and the disassembler prints (the rd/wr state
/// register groups and the branch/trap families share theirs); the corpus
/// key is unique ("rdy", "bicc").  `op` is the format, bits 31:30 (0
/// SETHI/branches/UNIMP, 1 CALL, 2 arithmetic/control, 3 memory); `op3`
/// is bits 24:19 on formats 2 and 3 and op2 (bits 24:22) on format 0.  The
/// access size is the bytes a memory op moves (4 elsewhere).  Flags are
/// OpFlag bits.  Condition-code-setting variants are distinct rows, so the
/// executor is a single flat switch.  kInvalid has no encoding; decode()
/// yields it for the holes.  The enum order is load-bearing: the fuzzer's
/// coverage bitmap and the corpus walk index by it.
#define LA_SPARC_OPS(M)                                                  \
  M(kInvalid, "<invalid>", "<invalid>", 0, 0x00, 4, 0)                   \
  /* Format 1 */                                                         \
  M(kCall, "call", "call", 1, 0x00, 4, 0)                                \
  /* Format 0 (FBfcc and CBccc trap at execute) */                       \
  M(kUnimp, "unimp", "unimp", 0, 0x0, 4, 0)                              \
  M(kSethi, "sethi", "sethi", 0, 0x4, 4, 0)                              \
  M(kBicc, "b", "bicc", 0, 0x2, 4, 0)                                    \
  M(kFbfcc, "fb", "fbfcc", 0, 0x6, 4, 0)                                 \
  M(kCbccc, "cb", "cbccc", 0, 0x7, 4, 0)                                 \
  /* Format 2: logical */                                                \
  M(kAnd, "and", "and", 2, 0x01, 4, kAlu3)                               \
  M(kAndcc, "andcc", "andcc", 2, 0x11, 4, kAlu3)                         \
  M(kAndn, "andn", "andn", 2, 0x05, 4, kAlu3)                            \
  M(kAndncc, "andncc", "andncc", 2, 0x15, 4, kAlu3)                      \
  M(kOr, "or", "or", 2, 0x02, 4, kAlu3)                                  \
  M(kOrcc, "orcc", "orcc", 2, 0x12, 4, kAlu3)                            \
  M(kOrn, "orn", "orn", 2, 0x06, 4, kAlu3)                               \
  M(kOrncc, "orncc", "orncc", 2, 0x16, 4, kAlu3)                         \
  M(kXor, "xor", "xor", 2, 0x03, 4, kAlu3)                               \
  M(kXorcc, "xorcc", "xorcc", 2, 0x13, 4, kAlu3)                         \
  M(kXnor, "xnor", "xnor", 2, 0x07, 4, kAlu3)                            \
  M(kXnorcc, "xnorcc", "xnorcc", 2, 0x17, 4, kAlu3)                      \
  /* Format 2: shifts */                                                 \
  M(kSll, "sll", "sll", 2, 0x25, 4, kAlu3)                               \
  M(kSrl, "srl", "srl", 2, 0x26, 4, kAlu3)                               \
  M(kSra, "sra", "sra", 2, 0x27, 4, kAlu3)                               \
  /* Format 2: add / subtract */                                         \
  M(kAdd, "add", "add", 2, 0x00, 4, kAlu3)                               \
  M(kAddcc, "addcc", "addcc", 2, 0x10, 4, kAlu3)                         \
  M(kAddx, "addx", "addx", 2, 0x08, 4, kAlu3)                            \
  M(kAddxcc, "addxcc", "addxcc", 2, 0x18, 4, kAlu3)                      \
  M(kSub, "sub", "sub", 2, 0x04, 4, kAlu3)                               \
  M(kSubcc, "subcc", "subcc", 2, 0x14, 4, kAlu3)                         \
  M(kSubx, "subx", "subx", 2, 0x0c, 4, kAlu3)                            \
  M(kSubxcc, "subxcc", "subxcc", 2, 0x1c, 4, kAlu3)                      \
  /* Format 2: tagged add / subtract */                                  \
  M(kTaddcc, "taddcc", "taddcc", 2, 0x20, 4, kAlu3)                      \
  M(kTaddcctv, "taddcctv", "taddcctv", 2, 0x22, 4, kAlu3)                \
  M(kTsubcc, "tsubcc", "tsubcc", 2, 0x21, 4, kAlu3)                      \
  M(kTsubcctv, "tsubcctv", "tsubcctv", 2, 0x23, 4, kAlu3)                \
  /* Format 2: multiply / divide */                                      \
  M(kMulscc, "mulscc", "mulscc", 2, 0x24, 4, kAlu3)                      \
  M(kUmul, "umul", "umul", 2, 0x0a, 4, kAlu3)                            \
  M(kUmulcc, "umulcc", "umulcc", 2, 0x1a, 4, kAlu3)                      \
  M(kSmul, "smul", "smul", 2, 0x0b, 4, kAlu3)                            \
  M(kSmulcc, "smulcc", "smulcc", 2, 0x1b, 4, kAlu3)                      \
  M(kUdiv, "udiv", "udiv", 2, 0x0e, 4, kAlu3)                            \
  M(kUdivcc, "udivcc", "udivcc", 2, 0x1e, 4, kAlu3)                      \
  M(kSdiv, "sdiv", "sdiv", 2, 0x0f, 4, kAlu3)                            \
  M(kSdivcc, "sdivcc", "sdivcc", 2, 0x1f, 4, kAlu3)                      \
  /* Format 2: state registers (RDASR and WRASR share RDY's and WRY's */ \
  /* op3; decode picks them by rs1 or rd, and each follows its base) */  \
  M(kRdy, "rd", "rdy", 2, 0x28, 4, 0)                                    \
  M(kRdasr, "rd", "rdasr", 2, 0x28, 4, 0)                                \
  M(kRdpsr, "rd", "rdpsr", 2, 0x29, 4, 0)                                \
  M(kRdwim, "rd", "rdwim", 2, 0x2a, 4, 0)                                \
  M(kRdtbr, "rd", "rdtbr", 2, 0x2b, 4, 0)                                \
  M(kWry, "wr", "wry", 2, 0x30, 4, 0)                                    \
  M(kWrasr, "wr", "wrasr", 2, 0x30, 4, 0)                                \
  M(kWrpsr, "wr", "wrpsr", 2, 0x31, 4, 0)                                \
  M(kWrwim, "wr", "wrwim", 2, 0x32, 4, 0)                                \
  M(kWrtbr, "wr", "wrtbr", 2, 0x33, 4, 0)                                \
  /* Format 2: control transfer & windows */                             \
  M(kJmpl, "jmpl", "jmpl", 2, 0x38, 4, 0)                                \
  M(kRett, "rett", "rett", 2, 0x39, 4, 0)                                \
  M(kTicc, "t", "ticc", 2, 0x3a, 4, 0)                                   \
  M(kFlush, "flush", "flush", 2, 0x3b, 4, 0)                             \
  M(kSave, "save", "save", 2, 0x3c, 4, kAlu3)                            \
  M(kRestore, "restore", "restore", 2, 0x3d, 4, kAlu3)                   \
  /* Format 2: FP / coprocessor op spaces (trap at execute) */           \
  M(kFpop1, "fpop1", "fpop1", 2, 0x34, 4, 0)                             \
  M(kFpop2, "fpop2", "fpop2", 2, 0x35, 4, 0)                             \
  M(kCpop1, "cpop1", "cpop1", 2, 0x36, 4, 0)                             \
  M(kCpop2, "cpop2", "cpop2", 2, 0x37, 4, 0)                             \
  /* Format 3: integer loads */                                          \
  M(kLd, "ld", "ld", 3, 0x00, 4, kLoad)                                  \
  M(kLdub, "ldub", "ldub", 3, 0x01, 1, kLoad)                            \
  M(kLduh, "lduh", "lduh", 3, 0x02, 2, kLoad)                            \
  M(kLdd, "ldd", "ldd", 3, 0x03, 8, kLoad)                               \
  M(kLdsb, "ldsb", "ldsb", 3, 0x09, 1, kLoad | kSigned)                  \
  M(kLdsh, "ldsh", "ldsh", 3, 0x0a, 2, kLoad | kSigned)                  \
  M(kLda, "lda", "lda", 3, 0x10, 4, kLoad | kAlt)                        \
  M(kLduba, "lduba", "lduba", 3, 0x11, 1, kLoad | kAlt)                  \
  M(kLduha, "lduha", "lduha", 3, 0x12, 2, kLoad | kAlt)                  \
  M(kLdda, "ldda", "ldda", 3, 0x13, 8, kLoad | kAlt)                     \
  M(kLdsba, "ldsba", "ldsba", 3, 0x19, 1, kLoad | kAlt | kSigned)        \
  M(kLdsha, "ldsha", "ldsha", 3, 0x1a, 2, kLoad | kAlt | kSigned)        \
  /* Format 3: integer stores */                                         \
  M(kSt, "st", "st", 3, 0x04, 4, kStore)                                 \
  M(kStb, "stb", "stb", 3, 0x05, 1, kStore)                              \
  M(kSth, "sth", "sth", 3, 0x06, 2, kStore)                              \
  M(kStd, "std", "std", 3, 0x07, 8, kStore)                              \
  M(kSta, "sta", "sta", 3, 0x14, 4, kStore | kAlt)                       \
  M(kStba, "stba", "stba", 3, 0x15, 1, kStore | kAlt)                    \
  M(kStha, "stha", "stha", 3, 0x16, 2, kStore | kAlt)                    \
  M(kStda, "stda", "stda", 3, 0x17, 8, kStore | kAlt)                    \
  /* Format 3: atomics (a load and a store) */                           \
  M(kLdstub, "ldstub", "ldstub", 3, 0x0d, 1, kLoad | kStore)             \
  M(kLdstuba, "ldstuba", "ldstuba", 3, 0x1d, 1, kLoad | kStore | kAlt)   \
  M(kSwap, "swap", "swap", 3, 0x0f, 4, kLoad | kStore)                   \
  M(kSwapa, "swapa", "swapa", 3, 0x1f, 4, kLoad | kStore | kAlt)         \
  /* Format 3: FP / coprocessor loads & stores (trap at execute) */      \
  M(kLdf, "ldf", "ldf", 3, 0x20, 4, kLoad)                               \
  M(kLdfsr, "ldfsr", "ldfsr", 3, 0x21, 4, kLoad)                         \
  M(kLddf, "lddf", "lddf", 3, 0x23, 8, kLoad)                            \
  M(kStf, "stf", "stf", 3, 0x24, 4, kStore)                              \
  M(kStfsr, "stfsr", "stfsr", 3, 0x25, 4, kStore)                        \
  M(kStdfq, "stdfq", "stdfq", 3, 0x26, 8, kStore)                        \
  M(kStdf, "stdf", "stdf", 3, 0x27, 8, kStore)                           \
  M(kLdc, "ldc", "ldc", 3, 0x30, 4, kLoad)                               \
  M(kLdcsr, "ldcsr", "ldcsr", 3, 0x31, 4, kLoad)                         \
  M(kLddc, "lddc", "lddc", 3, 0x33, 8, kLoad)                            \
  M(kStc, "stc", "stc", 3, 0x34, 4, kStore)                              \
  M(kStcsr, "stcsr", "stcsr", 3, 0x35, 4, kStore)                        \
  M(kStdcq, "stdcq", "stdcq", 3, 0x36, 8, kStore)                        \
  M(kStdc, "stdc", "stdc", 3, 0x37, 8, kStore)

/// Fully decoded operation: one enumerator per LA_SPARC_OPS row.
enum class Mnemonic : u16 {
#define LA_ISA_ENUM(mn, ...) mn,
  LA_SPARC_OPS(LA_ISA_ENUM)
#undef LA_ISA_ENUM
  kCount,
};

/// LA_SPARC_OPS flag bits.
enum OpFlag : u8 {
  kLoad = 1,     // reads memory (atomics are loads and stores)
  kStore = 2,    // writes memory
  kAlt = 4,      // alternate space: privileged, explicit ASI, i == 0
  kSigned = 8,   // the load sign-extends
  kAlu3 = 16,    // sasm syntax `op rs1, reg_or_imm, rd`
};

/// One LA_SPARC_OPS row.
struct OpInfo {
  std::string_view text;
  std::string_view key;
  u8 op;
  u8 op3;
  u8 size;
  u8 flags;
};

/// The rows, indexed by Mnemonic.
inline constexpr OpInfo kOps[] = {
#define LA_ISA_ROW(mn, text, key, op, op3, size, flags) \
  {text, key, op, op3, size, static_cast<u8>(flags)},
    LA_SPARC_OPS(LA_ISA_ROW)
#undef LA_ISA_ROW
};

// The table's invariants, checked at compile time.
static_assert(std::size(kOps) == static_cast<std::size_t>(Mnemonic::kCount));
static_assert(
    [] {
      // Row 0, kInvalid, has no encoding.
      for (std::size_t i = 1; i < std::size(kOps); ++i) {
        for (std::size_t j = 1; j < i; ++j) {
          if (kOps[i].op != kOps[j].op || kOps[i].op3 != kOps[j].op3) {
            continue;
          }
          const auto m = static_cast<Mnemonic>(i);
          const auto base = static_cast<Mnemonic>(j);
          if (!(m == Mnemonic::kRdasr && base == Mnemonic::kRdy) &&
              !(m == Mnemonic::kWrasr && base == Mnemonic::kWry)) {
            return false;
          }
        }
      }
      return true;
    }(),
    "each (op, op3) names one mnemonic, but RDASR and WRASR share their "
    "base row's and follow it (the decoder's first row wins)");
static_assert(
    [] {
      for (const OpInfo& r : kOps) {
        if ((r.flags & kAlt) && !(r.op == 3 && (r.op3 & 0x10))) return false;
      }
      return true;
    }(),
    "alternate-space rows are op 3 with op3 bit 4 set");
static_assert(
    [] {
      for (const OpInfo& r : kOps) {
        if (r.size != 1 && r.size != 2 && r.size != 4 && r.size != 8) {
          return false;
        }
      }
      return true;
    }(),
    "every access size is 1, 2, 4 or 8");

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

/// The LA_SPARC_OPS row of `m` (m < kCount).
constexpr const OpInfo& op_info(Mnemonic m) {
  return kOps[static_cast<std::size_t>(m)];
}
/// True if the mnemonic reads memory (any integer/atomic/fp load).
constexpr bool is_load(Mnemonic m) { return (op_info(m).flags & kLoad) != 0; }
/// True if the mnemonic writes memory (stores; atomics count as both).
constexpr bool is_store(Mnemonic m) {
  return (op_info(m).flags & kStore) != 0;
}
/// True for the alternate-space (privileged) memory ops.
constexpr bool is_alternate_space(Mnemonic m) {
  return (op_info(m).flags & kAlt) != 0;
}
/// Number of bytes moved by a memory mnemonic (1, 2, 4, or 8).
constexpr unsigned access_size(Mnemonic m) { return op_info(m).size; }
/// Lower-case mnemonic text, e.g. "addcc"; "<?>" past the table.
constexpr std::string_view mnemonic_name(Mnemonic m) {
  return m < Mnemonic::kCount ? op_info(m).text : "<?>";
}
/// Branch-condition suffix, e.g. "ne" for Cond::kNe ("b" + "ne" = "bne").
std::string_view cond_name(Cond c);

}  // namespace la::isa
