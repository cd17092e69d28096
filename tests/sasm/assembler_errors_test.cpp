// The assembler must report problems as diagnostics with line numbers,
// never crash, and never produce an image when anything failed.
#include <gtest/gtest.h>

#include <string>

#include "sasm/assembler.hpp"

namespace la::sasm {
namespace {

AsmResult asm_of(std::string_view src) {
  Assembler a;
  return a.assemble(src);
}

TEST(AsmErrors, UnknownMnemonic) {
  // Besides made-up names: the FP and coprocessor loads and stores, which
  // have no syntax, and corpus keys that are not the text sasm parses.
  for (const std::string name :
       {"frobnicate", "ldf", "stf", "lddf", "ldc", "stc", "rdy", "wrpsr",
        "bicc", "ticc"}) {
    SCOPED_TRACE(name);
    const AsmResult r = asm_of(name + " %g1, %g2, %g3\n");
    ASSERT_FALSE(r.ok);
    ASSERT_EQ(r.errors.size(), 1u);
    EXPECT_EQ(r.errors[0].line, 1u);
    EXPECT_EQ(r.errors[0].message, "unknown mnemonic '" + name + "'");
  }
}

TEST(AsmErrors, UndefinedSymbol) {
  const AsmResult r = asm_of("ba nowhere\n");
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.errors[0].message.find("nowhere"), std::string::npos);
}

TEST(AsmErrors, RedefinedLabel) {
  const AsmResult r = asm_of("x: nop\nx: nop\n");
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.errors[0].line, 2u);
  EXPECT_NE(r.errors[0].message.find("redefined"), std::string::npos);
}

TEST(AsmErrors, ImmediateOutOfRange) {
  EXPECT_FALSE(asm_of("add %g1, 5000, %g2\n").ok);
  EXPECT_FALSE(asm_of("add %g1, -5000, %g2\n").ok);
  // Boundary values are fine.
  EXPECT_TRUE(asm_of("add %g1, 4095, %g2\nadd %g1, -4096, %g2\n").ok);
}

TEST(AsmErrors, BranchTargetUnaligned) {
  const AsmResult r = asm_of(R"(
      .org 0x100
      ba x
      nop
      .byte 1
  x:  nop
  )");
  EXPECT_FALSE(r.ok);
}

TEST(AsmErrors, TrapNumberRange) {
  EXPECT_FALSE(asm_of("ta 128\n").ok);
  EXPECT_TRUE(asm_of("ta 127\n").ok);
}

TEST(AsmErrors, MultipleErrorsAllReported) {
  const AsmResult r = asm_of("bogus1\nnop\nbogus2\n");
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.errors.size(), 2u);
  EXPECT_EQ(r.errors[0].line, 1u);
  EXPECT_EQ(r.errors[1].line, 3u);
}

TEST(AsmErrors, TrailingGarbage) {
  EXPECT_FALSE(asm_of("nop nop\n").ok);
  EXPECT_FALSE(asm_of("add %g1, %g2, %g3, %g4\n").ok);
}

TEST(AsmErrors, BadDirectives) {
  EXPECT_FALSE(asm_of(".bogus 1\n").ok);
  EXPECT_FALSE(asm_of(".align 3\n").ok);  // not a power of two
  EXPECT_FALSE(asm_of(".ascii 42\n").ok);
  EXPECT_FALSE(asm_of(".byte 300\n").ok);
}

TEST(AsmErrors, OrgNeedsBackwardSymbols) {
  // .org with a forward reference cannot be sized in pass 1.
  EXPECT_FALSE(asm_of(".org later\nlater: nop\n").ok);
  // Backward reference is fine.
  EXPECT_TRUE(asm_of("before = 0x100\n.org before\nnop\n").ok);
}

TEST(AsmErrors, SethiRangeCheck) {
  EXPECT_FALSE(asm_of("sethi 0x400000, %g1\n").ok);
  EXPECT_TRUE(asm_of("sethi 0x3fffff, %g1\n").ok);
}

TEST(AsmErrors, ExpressionDivisionByZero) {
  EXPECT_FALSE(asm_of(".word 1/0\n").ok);
}

TEST(AsmErrors, LexerErrorsCarryLineNumbers) {
  const AsmResult r = asm_of("nop\n%qq\n");
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.errors[0].line, 2u);
}

TEST(AsmErrors, FailedAssemblyYieldsNoImage) {
  const AsmResult r = asm_of("bogus\n");
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.image.data.empty());
  EXPECT_THROW(assemble_or_throw("bogus\n"), std::runtime_error);
}

}  // namespace
}  // namespace la::sasm
