// Instruction -> 32-bit SPARC V8 word.  Inverse of decode() for all valid
// instructions (property-tested both directions).
#pragma once

#include "isa/isa.hpp"

namespace la::isa {

/// Encode a decoded instruction back into its 32-bit word.
/// Precondition: ins.valid().  Field values out of range (e.g. simm13 that
/// does not fit 13 bits) trigger an assertion in debug builds and are
/// masked in release builds.
u32 encode(const Instruction& ins);

// Convenience builders used by the assembler and by tests. ---------------

u32 encode_call(i32 disp30_words);
u32 encode_sethi(u8 rd, u32 imm22);
u32 encode_branch(Cond c, bool annul, i32 disp22_words);
u32 encode_arith_rr(Mnemonic m, u8 rd, u8 rs1, u8 rs2);
u32 encode_arith_ri(Mnemonic m, u8 rd, u8 rs1, i32 simm13);
u32 encode_mem_rr(Mnemonic m, u8 rd, u8 rs1, u8 rs2, u8 asi = 0);
u32 encode_mem_ri(Mnemonic m, u8 rd, u8 rs1, i32 simm13);
u32 encode_ticc(Cond c, u8 rs1, i32 simm7);
u32 encode_nop();

}  // namespace la::isa
