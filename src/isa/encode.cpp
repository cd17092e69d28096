#include "isa/encode.hpp"

#include <cassert>

#include "common/bits.hpp"

namespace la::isa {
namespace {

/// The format-2/3 layout, op and op3 from `m`'s row.
u32 fmt23(Mnemonic m, u8 rd, u8 rs1, bool imm, i32 simm13, u8 rs2, u8 asi) {
  const OpInfo& r = op_info(m);
  u32 w = (u32{r.op} << 30) | ((u32{rd} & 0x1fu) << 25) | (u32{r.op3} << 19) |
          ((u32{rs1} & 0x1fu) << 14);
  if (imm) {
    w |= (1u << 13) | (static_cast<u32>(simm13) & 0x1fff);
  } else {
    w |= (u32{asi} << 5) | (u32{rs2} & 0x1fu);
  }
  return w;
}

/// The Bicc / FBfcc / CBccc layout, op2 from `m`'s row.
u32 branch(Mnemonic m, Cond c, bool annul, i32 disp22) {
  return (annul ? (1u << 29) : 0u) | (static_cast<u32>(c) << 25) |
         (u32{op_info(m).op3} << 22) | (static_cast<u32>(disp22) & 0x3fffffu);
}

}  // namespace

u32 encode_call(i32 disp30) {
  return (1u << 30) | (static_cast<u32>(disp30) & 0x3fffffffu);
}

u32 encode_sethi(u8 rd, u32 imm22) {
  const u32 op2 = op_info(Mnemonic::kSethi).op3;
  return ((u32{rd} & 0x1fu) << 25) | (op2 << 22) | (imm22 & 0x3fffffu);
}

u32 encode_branch(Cond c, bool annul, i32 disp22) {
  return branch(Mnemonic::kBicc, c, annul, disp22);
}

u32 encode_arith_rr(Mnemonic m, u8 rd, u8 rs1, u8 rs2) {
  assert(op_info(m).op == 2);
  return fmt23(m, rd, rs1, false, 0, rs2, 0);
}

u32 encode_arith_ri(Mnemonic m, u8 rd, u8 rs1, i32 simm13) {
  assert(op_info(m).op == 2);
  assert(simm13 >= -4096 && simm13 <= 4095);
  return fmt23(m, rd, rs1, true, simm13, 0, 0);
}

u32 encode_mem_rr(Mnemonic m, u8 rd, u8 rs1, u8 rs2, u8 asi) {
  assert(op_info(m).op == 3);
  return fmt23(m, rd, rs1, false, 0, rs2, asi);
}

u32 encode_mem_ri(Mnemonic m, u8 rd, u8 rs1, i32 simm13) {
  assert(op_info(m).op == 3);
  assert(simm13 >= -4096 && simm13 <= 4095);
  return fmt23(m, rd, rs1, true, simm13, 0, 0);
}

u32 encode_ticc(Cond c, u8 rs1, i32 simm7) {
  return fmt23(Mnemonic::kTicc, static_cast<u8>(c), rs1, true, simm7 & 0x7f,
               0, 0);
}

u32 encode_nop() { return encode_sethi(0, 0); }

u32 encode(const Instruction& ins) {
  assert(ins.valid());
  switch (ins.mn) {
    case Mnemonic::kCall:
      return encode_call(ins.disp);
    case Mnemonic::kUnimp:
      return ins.imm22 & 0x3fffffu;
    case Mnemonic::kSethi:
      return encode_sethi(ins.rd, ins.imm22);
    case Mnemonic::kBicc:
    case Mnemonic::kFbfcc:
    case Mnemonic::kCbccc:
      return branch(ins.mn, ins.cond, ins.annul, ins.disp);
    case Mnemonic::kTicc:
      return fmt23(ins.mn, static_cast<u8>(ins.cond), ins.rs1, ins.imm,
                   ins.simm13, ins.rs2, 0);
    case Mnemonic::kFpop1:
    case Mnemonic::kFpop2:
    case Mnemonic::kCpop1:
    case Mnemonic::kCpop2: {
      const OpInfo& r = op_info(ins.mn);
      return (u32{r.op} << 30) | (u32{ins.rd} << 25) | (u32{r.op3} << 19) |
             (u32{ins.rs1} << 14) | ((u32{ins.opf} & 0x1ffu) << 5) |
             u32{ins.rs2};
    }
    default:
      return fmt23(ins.mn, ins.rd, ins.rs1, ins.imm, ins.simm13,
                   ins.rs2, ins.asi);
  }
}

}  // namespace la::isa
