// The replay harness itself is a measuring instrument, so these tests
// calibrate it: a generated vector must pass every leg, and every
// kind of injected corruption (registers, memory, trap outcome, nominal
// cycles) must come back as a named first-divergence report.  If these
// fail, a green corpus run proves nothing.
#include <gtest/gtest.h>

#include "conform/generator.hpp"
#include "conform/replay.hpp"
#include "conform/vector.hpp"

namespace la::conform {
namespace {

TestVector sample(isa::Mnemonic mn, const char* name) {
  const CorpusFile f = generate_corpus(mn);
  for (const TestVector& v : f.vectors) {
    if (v.name == name) return v;
  }
  ADD_FAILURE() << "no case " << name;
  return TestVector{};
}

TEST(Replay, LegNamesRoundTrip) {
  for (const Leg leg : kAllLegs) {
    Leg back = Leg::kIu;
    ASSERT_TRUE(leg_from_name(leg_name(leg), back)) << leg_name(leg);
    EXPECT_EQ(back, leg);
  }
  Leg l;
  EXPECT_FALSE(leg_from_name("warp-drive", l));
  // The functional model's old fast-path legs are gone; scripts that
  // still name them must fail loudly, not replay a subset.
  for (const char* gone : {"iu-slow", "iu-fast", "iu-block"}) {
    EXPECT_FALSE(leg_from_name(gone, l)) << gone;
  }
}

TEST(Replay, GeneratedVectorPassesAllLegs) {
  EXPECT_EQ(replay_vector_all(sample(isa::Mnemonic::kAddcc,
                                     "addcc/edge_carry")),
            "");
  EXPECT_EQ(replay_vector_all(sample(isa::Mnemonic::kLdd, "ldd/r0")), "");
}

TEST(Replay, CorruptRegisterFailsEveryLeg) {
  TestVector v = sample(isa::Mnemonic::kAddcc, "addcc/edge_carry");
  v.post.regs[3] ^= 0x1u;
  for (const Leg leg : kAllLegs) {
    const std::string d = replay_vector(v, leg);
    ASSERT_FALSE(d.empty()) << leg_name(leg);
    // The report names the case, the leg, and the register.
    EXPECT_NE(d.find(v.name), std::string::npos) << d;
    EXPECT_NE(d.find(leg_name(leg)), std::string::npos) << d;
    EXPECT_NE(d.find("regs"), std::string::npos) << d;
  }
}

TEST(Replay, CorruptMemoryWordFails) {
  TestVector v = sample(isa::Mnemonic::kSt, "st/r0");
  ASSERT_FALSE(v.post.mem.empty());
  v.post.mem.begin()->second ^= 0xff00u;
  const std::string d = replay_vector_all(v);
  ASSERT_FALSE(d.empty());
  EXPECT_NE(d.find("mem"), std::string::npos) << d;
}

TEST(Replay, CorruptTrapOutcomeFails) {
  TestVector v = sample(isa::Mnemonic::kTicc, "ticc/edge_ta");
  ASSERT_TRUE(v.ref.trapped);
  TestVector wrong_tt = v;
  wrong_tt.ref.tt ^= 1u;
  EXPECT_NE(replay_vector_all(wrong_tt), "");

  TestVector no_trap = v;
  no_trap.ref.trapped = false;
  EXPECT_NE(replay_vector_all(no_trap), "");
}

TEST(Replay, CyclesBindOnlyTheIntegerUnitLegs) {
  TestVector v = sample(isa::Mnemonic::kAddcc, "addcc/edge_carry");
  v.ref.cycles += 3;
  // The functional model's nominal timing is part of the contract ...
  EXPECT_NE(replay_vector(v, Leg::kIu).find("cycles"), std::string::npos);
  // ... the pipeline's cycles depend on caches/bus and are not checked.
  EXPECT_EQ(replay_vector(v, Leg::kPipeSlow), "");
  EXPECT_EQ(replay_vector(v, Leg::kPipeFast), "");
  EXPECT_EQ(replay_vector(v, Leg::kPipeRun), "");
}

TEST(Replay, VectorConfigSelectsTheQuirkModel) {
  // The quirk twin passes as generated; flipping its config bit without
  // regenerating the post-state must fail on every leg — proof that
  // replay builds the CPU from the vector's own config.
  TestVector v = sample(isa::Mnemonic::kSubx, "subx/edge_carry_in_quirk");
  ASSERT_TRUE(v.cfg.quirk_subx);
  EXPECT_EQ(replay_vector_all(v), "");
  v.cfg.quirk_subx = false;
  for (const Leg leg : kAllLegs) {
    EXPECT_FALSE(replay_vector(v, leg).empty()) << leg_name(leg);
  }
}

TEST(Replay, DelaySlotVectorsRunBothSteps) {
  const TestVector v = sample(isa::Mnemonic::kBicc, "bicc/edge_taken");
  EXPECT_EQ(v.steps, 2);
  EXPECT_EQ(replay_vector_all(v), "");
}

}  // namespace
}  // namespace la::conform
