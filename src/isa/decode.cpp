#include "isa/decode.hpp"

#include <array>

#include "common/bits.hpp"

namespace la::isa {
namespace {

/// (op, op3) -> mnemonic, built from LA_SPARC_OPS: op3 is op2 for format
/// 0, and kInvalid fills the holes the manual leaves.  The first row wins,
/// so RDY's and WRY's opcodes decode to them, and decode_format23() picks
/// RDASR and WRASR by rs1 and rd.
constexpr auto kByOp3 = [] {
  std::array<std::array<Mnemonic, 64>, 4> t{};
  for (std::size_t i = 0; i < std::size(kOps); ++i) {
    Mnemonic& slot = t[kOps[i].op][kOps[i].op3];
    if (slot == Mnemonic::kInvalid) slot = static_cast<Mnemonic>(i);
  }
  return t;
}();
static_assert(kByOp3[2][0x28] == Mnemonic::kRdy);
static_assert(kByOp3[2][0x30] == Mnemonic::kWry);

Instruction decode_format0(u32 w) {
  Instruction ins;
  ins.raw = w;
  ins.mn = kByOp3[0][bits(w, 24, 22)];
  switch (ins.mn) {
    case Mnemonic::kUnimp:
      ins.imm22 = bits(w, 21, 0);
      break;
    case Mnemonic::kSethi:
      ins.rd = static_cast<u8>(bits(w, 29, 25));
      ins.imm22 = bits(w, 21, 0);
      // SETHI with rd=0, imm=0 is the canonical NOP; it needs no special
      // mnemonic — writing %g0 is architecturally a no-op anyway.
      break;
    case Mnemonic::kBicc:
    case Mnemonic::kFbfcc:
    case Mnemonic::kCbccc:
      ins.cond = static_cast<Cond>(bits(w, 28, 25));
      ins.annul = bit(w, 29) != 0;
      ins.disp = sign_extend(bits(w, 21, 0), 22);
      break;
    default:
      break;  // invalid
  }
  return ins;
}

Instruction decode_format23(u32 w) {
  Instruction ins;
  ins.raw = w;
  const u32 op = bits(w, 31, 30);
  const u32 op3 = bits(w, 24, 19);
  ins.mn = kByOp3[op][op3];
  ins.rd = static_cast<u8>(bits(w, 29, 25));
  ins.rs1 = static_cast<u8>(bits(w, 18, 14));
  ins.imm = bit(w, 13) != 0;
  if (ins.imm) {
    ins.simm13 = sign_extend(bits(w, 12, 0), 13);
  } else {
    ins.rs2 = static_cast<u8>(bits(w, 4, 0));
    // The asi field only exists on format-3 (memory) encodings; for
    // format 2 the bits are reserved don't-cares.
    if (op == 3) ins.asi = static_cast<u8>(bits(w, 12, 5));
  }
  switch (ins.mn) {
    case Mnemonic::kRdy:
      // RDY is RDASR with rs1 == 0; other rs1 values read ancillary state.
      if (ins.rs1 != 0) ins.mn = Mnemonic::kRdasr;
      // Remaining source fields are don't-cares for RDY and RDASR alike.
      ins.rs2 = 0;
      ins.imm = false;
      ins.simm13 = 0;
      break;
    case Mnemonic::kWry:
      if (ins.rd != 0) ins.mn = Mnemonic::kWrasr;
      break;
    case Mnemonic::kFlush:
    case Mnemonic::kRett:
      ins.rd = 0;  // rd is a reserved don't-care for these
      break;
    case Mnemonic::kWrpsr:
    case Mnemonic::kWrwim:
    case Mnemonic::kWrtbr:
      ins.rd = 0;  // reserved (rd only selects WRASR on the WRY opcode)
      break;
    case Mnemonic::kRdpsr:
    case Mnemonic::kRdwim:
    case Mnemonic::kRdtbr:
      // Source-operand fields are don't-cares on the state-register reads.
      ins.rs1 = 0;
      ins.rs2 = 0;
      ins.imm = false;
      ins.simm13 = 0;
      break;
    case Mnemonic::kTicc:
      // Ticc reuses the branch cond field in rd's position (bits 28:25);
      // bit 29 and the asi field are reserved — canonicalize them away so
      // decode/encode round-trips.  The trap number is (rs1 + operand2)
      // mod 128, so an immediate only matters through its low 7 bits.
      ins.cond = static_cast<Cond>(bits(w, 28, 25));
      ins.rd = static_cast<u8>(bits(w, 28, 25));
      ins.asi = 0;
      if (ins.imm) ins.simm13 &= 0x7f;
      break;
    case Mnemonic::kFpop1:
    case Mnemonic::kFpop2:
    case Mnemonic::kCpop1:
    case Mnemonic::kCpop2:
      ins.opf = static_cast<u16>(bits(w, 13, 5));
      ins.rs2 = static_cast<u8>(bits(w, 4, 0));
      ins.imm = false;
      break;
    default:
      break;
  }
  // Alternate-space ops require i == 0 per the manual; with i == 1 the
  // encoding is undefined, which we surface as an illegal instruction.
  if (is_alternate_space(ins.mn) && ins.imm) ins.mn = Mnemonic::kInvalid;
  // Non-alternate memory ops carry an implicit ASI; the field bits are
  // don't-cares and are canonicalized away.
  if (!is_alternate_space(ins.mn)) ins.asi = 0;
  return ins;
}

}  // namespace

Instruction decode(u32 w) {
  switch (bits(w, 31, 30)) {
    case 0:
      return decode_format0(w);
    case 1: {
      Instruction ins;
      ins.raw = w;
      ins.mn = Mnemonic::kCall;
      ins.disp = sign_extend(bits(w, 29, 0), 30);
      return ins;
    }
    default:
      return decode_format23(w);
  }
}

}  // namespace la::isa
