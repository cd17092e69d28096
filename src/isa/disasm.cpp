#include "isa/disasm.hpp"

#include <string>

#include "common/hex.hpp"
#include "isa/decode.hpp"
#include "isa/registers.hpp"

namespace la::isa {
namespace {

std::string imm_str(i32 v) {
  if (v >= -64 && v <= 64) return std::to_string(v);
  if (v < 0) return "-" + hex32(static_cast<u32>(-static_cast<i64>(v)));
  return hex32(static_cast<u32>(v));
}

/// "[%rs1 + %rs2]" / "[%rs1 + imm]" / "[%rs1]" address syntax.
std::string addr_str(const Instruction& ins) {
  std::string s = "[" + reg_name(ins.rs1);
  if (ins.imm) {
    if (ins.simm13 > 0) {
      s += " + " + imm_str(ins.simm13);
    } else if (ins.simm13 < 0) {
      s += " - " + imm_str(-ins.simm13);
    }
  } else if (ins.rs2 != 0) {
    s += " + " + reg_name(ins.rs2);
  }
  s += "]";
  return s;
}

std::string operand2(const Instruction& ins) {
  return ins.imm ? imm_str(ins.simm13) : reg_name(ins.rs2);
}

std::string three_op(const Instruction& ins) {
  return std::string(mnemonic_name(ins.mn)) + " " + reg_name(ins.rs1) +
         ", " + operand2(ins) + ", " + reg_name(ins.rd);
}

}  // namespace

std::string disassemble(const Instruction& ins, Addr pc) {
  using M = Mnemonic;
  switch (ins.mn) {
    case M::kInvalid:
      return ".word " + hex32(ins.raw) + "  ! <invalid>";
    case M::kCall: {
      const Addr target = pc + (static_cast<u32>(ins.disp) << 2);
      return "call " + hex32(target);
    }
    case M::kUnimp:
      return "unimp " + hex32(ins.imm22);
    case M::kSethi:
      if (ins.rd == 0 && ins.imm22 == 0) return "nop";
      return "sethi %hi(" + hex32(ins.imm22 << 10) + "), " +
             reg_name(ins.rd);
    case M::kBicc:
    case M::kFbfcc:
    case M::kCbccc: {
      std::string s{mnemonic_name(ins.mn)};
      s += cond_name(ins.cond);
      if (ins.annul) s += ",a";
      const Addr target = pc + (static_cast<u32>(ins.disp) << 2);
      s += " " + hex32(target);
      return s;
    }
    case M::kJmpl:
      if (ins.rd == 0) {
        // jmpl with rd=%g0 is the synthetic `jmp`; %o7+8 is `ret`.
        if (ins.imm && ins.simm13 == 8 && ins.rs1 == 31) return "ret";
        if (ins.imm && ins.simm13 == 8 && ins.rs1 == 15) return "retl";
      }
      return "jmpl " + reg_name(ins.rs1) + " + " + operand2(ins) + ", " +
             reg_name(ins.rd);
    case M::kRett:
      return "rett " + reg_name(ins.rs1) + " + " + operand2(ins);
    case M::kTicc: {
      std::string s = "t" + std::string(cond_name(ins.cond)) + " ";
      if (ins.rs1 != 0) s += reg_name(ins.rs1) + " + ";
      s += operand2(ins);
      return s;
    }
    case M::kFlush:
      return "flush " + addr_str(ins);
    case M::kSave:
    case M::kRestore:
      return three_op(ins);
    case M::kRdy:
      return "rd %y, " + reg_name(ins.rd);
    case M::kRdasr:
      return "rd %asr" + std::to_string(ins.rs1) + ", " + reg_name(ins.rd);
    case M::kRdpsr:
      return "rd %psr, " + reg_name(ins.rd);
    case M::kRdwim:
      return "rd %wim, " + reg_name(ins.rd);
    case M::kRdtbr:
      return "rd %tbr, " + reg_name(ins.rd);
    case M::kWry:
      return "wr " + reg_name(ins.rs1) + ", " + operand2(ins) + ", %y";
    case M::kWrasr:
      return "wr " + reg_name(ins.rs1) + ", " + operand2(ins) + ", %asr" +
             std::to_string(ins.rd);
    case M::kWrpsr:
      return "wr " + reg_name(ins.rs1) + ", " + operand2(ins) + ", %psr";
    case M::kWrwim:
      return "wr " + reg_name(ins.rs1) + ", " + operand2(ins) + ", %wim";
    case M::kWrtbr:
      return "wr " + reg_name(ins.rs1) + ", " + operand2(ins) + ", %tbr";
    case M::kFpop1:
    case M::kFpop2:
    case M::kCpop1:
    case M::kCpop2:
      return std::string(mnemonic_name(ins.mn)) + " opf=" +
             hex16(ins.opf);
    default:
      break;
  }
  if (is_load(ins.mn)) {
    // Loads, and the atomics (ldstub/swap), which read and write.
    std::string s{mnemonic_name(ins.mn)};
    s += " " + addr_str(ins);
    if (is_alternate_space(ins.mn)) s += " " + std::to_string(ins.asi);
    s += ", " + reg_name(ins.rd);
    return s;
  }
  if (is_store(ins.mn)) {
    std::string s{mnemonic_name(ins.mn)};
    s += " " + reg_name(ins.rd) + ", " + addr_str(ins);
    if (is_alternate_space(ins.mn)) s += " " + std::to_string(ins.asi);
    return s;
  }
  return three_op(ins);
}

std::string disassemble_word(u32 word, Addr pc) {
  return disassemble(decode(word), pc);
}

}  // namespace la::isa
