// Inline semantics for LeonPipeline's line tier.
//
// The line tier (run_lines() over the predecoded I-cache mirror) runs the
// hot instructions inline instead of through the shared core's execute()
// switch.  This header holds the two lists of those instructions, each an
// X-macro from which leon_pipeline.cpp generates the dispatch tokens, the
// mnemonic-to-token switch and the handlers, plus the condition-code
// helpers the line tier and the semantics core (cpu/sparc_core.hpp) share:
//   LA_ALU_OPS  the pure register-to-register operations and sethi;
//   LA_MEM_OPS  the plain integer loads and stores.
// Everything else (ldd/std with an odd rd, the atomics, the alternate-
// space ops, control transfers but Bicc, multiply/divide, window and state
// register ops, and andncc, orn, orncc and xnorcc) keeps the execute()
// token.
//
// LA_ALU_OPS(M) expands M(label stem, Mnemonic enumerator, body) once per
// inline op.  SparcCore::execute() expands the same list for its cases, so
// each body exists once.  A and B are the operands (rs1 and rs2-or-simm13;
// sethi's B is its pre-shifted imm22), and the body relies on three hooks
// the expansion site defines:
//   LA_ALU_RD(v)          write v to rd
//   LA_ALU_PSR            the Psr lvalue (icc in, icc out)
//   LA_ALU_SUBX_NO_CARRY  CpuConfig::quirk_subx_no_carry
//
// LA_MEM_OPS(M) expands M(label stem, Mnemonic enumerator, LOAD or STORE,
// CpuConfig extra-cycle field, body) once per inline op; the access size
// is isa::access_size() of the enumerator, the address is rs1 + (rs2 or
// simm13), and the bodies mirror execute()'s load/store tail.  A LOAD body
// moves the big-endian value read, V (u64), into registers; a STORE body
// is the value to write.  Hooks:
//   LA_MEM_RD(v)   write v to rd       LA_MEM_RS   the value of rd
//   LA_MEM_RD1(v)  write v to rd | 1   LA_MEM_RS1  the value of rd | 1
// The doubleword ops' odd-rd encodings trap (illegal_instruction) and are
// left to execute().
#pragma once

#include "common/bits.hpp"
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

#define LA_MEM_OPS(M)                                                      \
  M(ld, kLd, LOAD, load_extra, LA_MEM_RD(static_cast<u32>(V)))             \
  M(ldub, kLdub, LOAD, load_extra, LA_MEM_RD(static_cast<u32>(V)))         \
  M(lduh, kLduh, LOAD, load_extra, LA_MEM_RD(static_cast<u32>(V)))         \
  M(ldsb, kLdsb, LOAD, load_extra,                                         \
    LA_MEM_RD(static_cast<u32>(sign_extend(static_cast<u32>(V), 8))))      \
  M(ldsh, kLdsh, LOAD, load_extra,                                         \
    LA_MEM_RD(static_cast<u32>(sign_extend(static_cast<u32>(V), 16))))     \
  M(ldd, kLdd, LOAD, load_double_extra,                                    \
    LA_MEM_RD(static_cast<u32>(V >> 32)); LA_MEM_RD1(static_cast<u32>(V))) \
  M(st, kSt, STORE, store_extra, LA_MEM_RS)                                \
  M(stb, kStb, STORE, store_extra, LA_MEM_RS)                              \
  M(sth, kSth, STORE, store_extra, LA_MEM_RS)                              \
  M(std, kStd, STORE, store_double_extra,                                  \
    (u64{LA_MEM_RS} << 32) | LA_MEM_RS1)
