// Inline ALU semantics for LeonPipeline's line tier.
//
// The line tier (run_lines() over the predecoded I-cache mirror) runs the
// pure register-to-register operations inline instead of through the
// shared core's execute() switch.  This header is the one list of those
// operations: an X-macro from which leon_pipeline.cpp generates the
// dispatch tokens, the mnemonic-to-token switch and the handlers, plus
// the condition-code helpers it and the semantics core
// (cpu/sparc_core.hpp) share.
//
// LA_ALU_OPS(M) expands M(label stem, Mnemonic enumerator, body) once per
// inline op.  Each body mirrors the corresponding case of
// SparcCore::execute(): A and B are the operands (rs1 and rs2-or-simm13;
// sethi's B is its pre-shifted imm22), and the body relies on three hooks
// the expansion site defines:
//   LA_ALU_RD(v)          write v to rd
//   LA_ALU_PSR            the Psr lvalue (icc in, icc out)
//   LA_ALU_SUBX_NO_CARRY  CpuConfig::quirk_subx_no_carry
#pragma once

#include "common/types.hpp"
#include "cpu/state.hpp"

namespace la::cpu {

/// icc after a logical op: N/Z from the result, V and C cleared.
inline void icc_logic(Psr& p, u32 r) {
  p.n = (r >> 31) != 0;
  p.z = r == 0;
  p.v = false;
  p.c = false;
}

/// icc after r = a + b + carry_in.
inline void icc_add(Psr& p, u32 a, u32 b, u32 r, bool carry_in) {
  p.n = (r >> 31) != 0;
  p.z = r == 0;
  p.v = (((a & b & ~r) | (~a & ~b & r)) >> 31) != 0;
  const u64 wide = u64{a} + u64{b} + (carry_in ? 1 : 0);
  p.c = (wide >> 32) != 0;
}

/// icc after r = a - b - carry_in.
inline void icc_sub(Psr& p, u32 a, u32 b, u32 r, bool carry_in) {
  p.n = (r >> 31) != 0;
  p.z = r == 0;
  p.v = (((a & ~b & ~r) | (~a & b & r)) >> 31) != 0;
  p.c = u64{a} < u64{b} + (carry_in ? 1 : 0);
}

}  // namespace la::cpu

#define LA_ALU_OPS(M)                                                      \
  M(and, kAnd, LA_ALU_RD(A & B))                                           \
  M(andn, kAndn, LA_ALU_RD(A & ~B))                                        \
  M(or, kOr, LA_ALU_RD(A | B))                                             \
  M(xor, kXor, LA_ALU_RD(A ^ B))                                           \
  M(xnor, kXnor, LA_ALU_RD(A ^ ~B))                                        \
  M(sll, kSll, LA_ALU_RD(A << (B & 31)))                                   \
  M(srl, kSrl, LA_ALU_RD(A >> (B & 31)))                                   \
  M(sra, kSra,                                                             \
    LA_ALU_RD(static_cast<u32>(static_cast<i32>(A) >> (B & 31))))          \
  M(sethi, kSethi, LA_ALU_RD(B))                                           \
  M(add, kAdd, LA_ALU_RD(A + B))                                           \
  M(addx, kAddx, LA_ALU_RD(A + B + (LA_ALU_PSR.c ? 1 : 0)))                \
  M(sub, kSub, LA_ALU_RD(A - B))                                           \
  M(subx, kSubx,                                                           \
    LA_ALU_RD(A - B - (!(LA_ALU_SUBX_NO_CARRY) && LA_ALU_PSR.c ? 1 : 0)))  \
  M(andcc, kAndcc, const u32 r = A & B; icc_logic(LA_ALU_PSR, r);          \
    LA_ALU_RD(r))                                                          \
  M(orcc, kOrcc, const u32 r = A | B; icc_logic(LA_ALU_PSR, r);            \
    LA_ALU_RD(r))                                                          \
  M(xorcc, kXorcc, const u32 r = A ^ B; icc_logic(LA_ALU_PSR, r);          \
    LA_ALU_RD(r))                                                          \
  M(addcc, kAddcc, const u32 r = A + B; icc_add(LA_ALU_PSR, A, B, r, false); \
    LA_ALU_RD(r))                                                          \
  M(addxcc, kAddxcc, const bool cin = LA_ALU_PSR.c;                        \
    const u32 r = A + B + (cin ? 1 : 0); icc_add(LA_ALU_PSR, A, B, r, cin); \
    LA_ALU_RD(r))                                                          \
  M(subcc, kSubcc, const u32 r = A - B; icc_sub(LA_ALU_PSR, A, B, r, false); \
    LA_ALU_RD(r))                                                          \
  M(subxcc, kSubxcc, const bool cin = LA_ALU_PSR.c;                        \
    const u32 r = A - B - (cin ? 1 : 0); icc_sub(LA_ALU_PSR, A, B, r, cin); \
    LA_ALU_RD(r))
