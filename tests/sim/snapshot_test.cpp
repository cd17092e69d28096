// SystemSnapshot unit tests: round-trip fidelity, versioning/corruption
// rejection, cross-configuration restore, wedge-flag capture, page sharing
// between captures, and the warm-start pool's accounting and budget.  The
// heavy identity grid (run N == snapshot@k + restore
// + run N-k across seeds x fast paths x recorder) lives in
// tests/property/snapshot_identity_test.cpp.
#include <gtest/gtest.h>

#include "ctrl/client.hpp"
#include "sasm/assembler.hpp"
#include "sim/liquid_system.hpp"
#include "sim/snapshot.hpp"

namespace la::test {
namespace {

sasm::Image work_program() {
  return sasm::assemble_or_throw(R"(
      .org 0x40000100
  _start:
      mov 300, %o1
      mov 0, %o2
  loop:
      add %o2, %o1, %o2
      subcc %o1, 1, %o1
      bne loop
      nop
      set result, %g1
      st %o2, [%g1]
      jmp 0x40
      nop
      .align 4
  result: .skip 4
  )");
}

/// Boot a node and drive it into the middle of a running program so the
/// snapshot captures non-trivial state (dirty caches, armed watchdog,
/// in-flight run timing).
sim::LiquidSystem& mid_run_node(sim::LiquidSystem& node) {
  node.run(300);
  ctrl::LiquidClient client(node);
  EXPECT_TRUE(client.load_program(work_program()));
  EXPECT_TRUE(client.start(0x40000100));
  node.run(200);  // into the loop, well before completion
  return node;
}

TEST(SystemSnapshot, ResnapshotOfRestoreIsBitIdentical) {
  sim::SystemConfig cfg;
  cfg.watchdog_budget = 1'000'000;
  sim::LiquidSystem a(cfg);
  mid_run_node(a);

  const sim::SystemSnapshot snap = a.snapshot();
  ASSERT_FALSE(snap.empty());
  ASSERT_TRUE(sim::SystemSnapshot::validate(snap.serialize()));

  sim::LiquidSystem b(cfg);
  std::string err;
  ASSERT_TRUE(b.restore(snap, &err)) << err;
  EXPECT_EQ(b.now(), a.now());
  EXPECT_EQ(b.cpu().state().pc, a.cpu().state().pc);
  EXPECT_EQ(b.controller().state(), a.controller().state());
  EXPECT_EQ(b.snapshot().serialize(), snap.serialize());
}

TEST(SystemSnapshot, SerializeDeserializeRoundTrip) {
  sim::LiquidSystem a;
  a.run(500);
  const sim::SystemSnapshot snap = a.snapshot();

  // Cross-process simulation: only the bytes travel.
  const Bytes wire = snap.serialize();
  auto back = sim::SystemSnapshot::deserialize(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->serialize(), wire);

  sim::LiquidSystem b;
  ASSERT_TRUE(b.restore(*back));
  EXPECT_EQ(b.snapshot().serialize(), snap.serialize());
}

TEST(SystemSnapshot, RestoredRunMatchesStraightRun) {
  sim::SystemConfig cfg;
  sim::LiquidSystem a(cfg);
  mid_run_node(a);
  const sim::SystemSnapshot snap = a.snapshot();

  sim::LiquidSystem b(cfg);
  ASSERT_TRUE(b.restore(snap));

  a.run(5'000);
  b.run(5'000);
  EXPECT_EQ(a.snapshot().serialize(), b.snapshot().serialize());
  EXPECT_EQ(a.controller().state(), net::LeonState::kDone);
  EXPECT_EQ(b.controller().state(), net::LeonState::kDone);
  const u32 result = work_program().symbol("result");
  EXPECT_EQ(a.sram().backdoor_word(result), b.sram().backdoor_word(result));
  EXPECT_NE(a.sram().backdoor_word(result), 0u);
}

TEST(SystemSnapshot, WedgeFlagSurvivesRestore) {
  sim::LiquidSystem a;
  a.run(300);
  a.cpu().set_wedged(true);
  const sim::SystemSnapshot snap = a.snapshot();

  sim::LiquidSystem b;
  ASSERT_TRUE(b.restore(snap));
  EXPECT_TRUE(b.cpu().wedged());
}

TEST(SystemSnapshot, CrossesHostFastPathConfigurations) {
  sim::SystemConfig fast;
  fast.pipeline.host_fast_paths = true;
  sim::LiquidSystem a(fast);
  mid_run_node(a);
  const sim::SystemSnapshot snap = a.snapshot();

  sim::SystemConfig slow;
  slow.pipeline.host_fast_paths = false;
  sim::LiquidSystem b(slow);
  std::string err;
  ASSERT_TRUE(b.restore(snap, &err)) << err;
  // Host knobs are not architectural: the recapture is bit-identical even
  // though b runs the reference paths.
  EXPECT_EQ(b.snapshot().serialize(), snap.serialize());
}

TEST(SystemSnapshot, AdoptsSnapshotPipelineArchitecture) {
  sim::SystemConfig big;
  big.pipeline.dcache.size_bytes = 4096;
  sim::LiquidSystem a(big);
  a.run(400);
  const sim::SystemSnapshot snap = a.snapshot();

  sim::SystemConfig small;  // restoring node booted a different bitstream
  small.pipeline.dcache.size_bytes = 1024;
  sim::LiquidSystem b(small);
  ASSERT_TRUE(b.restore(snap));
  EXPECT_EQ(b.cpu().config().dcache.size_bytes, 4096u);
  EXPECT_EQ(b.snapshot().serialize(), snap.serialize());
}

TEST(SystemSnapshot, RejectsCorruptionAndVersionSkew) {
  sim::LiquidSystem a;
  a.run(100);
  const sim::SystemSnapshot good = a.snapshot();

  std::string err;
  const Bytes wire = good.serialize();
  Bytes flipped = wire;
  flipped[flipped.size() / 2] ^= 0x40;
  EXPECT_FALSE(sim::SystemSnapshot::validate(flipped, &err));
  EXPECT_EQ(err, "snapshot checksum mismatch");

  Bytes bad_magic = wire;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(sim::SystemSnapshot::validate(bad_magic, &err));
  EXPECT_EQ(err, "bad snapshot magic");

  Bytes future = wire;
  future[4] = 0x7f;  // version bytes are little-endian at offset 4
  EXPECT_FALSE(sim::SystemSnapshot::validate(future, &err));
  EXPECT_EQ(err, "unsupported snapshot version");

  EXPECT_FALSE(sim::SystemSnapshot::deserialize(Bytes{1, 2, 3}).has_value());
}

TEST(SystemSnapshot, RejectsMismatchedPlatform) {
  sim::SystemConfig cfg;
  cfg.sdram_size = 1u << 22;
  sim::LiquidSystem a(cfg);
  a.run(100);
  const sim::SystemSnapshot snap = a.snapshot();

  sim::SystemConfig other;
  other.sdram_size = 1u << 21;
  sim::LiquidSystem b(other);
  std::string err;
  EXPECT_FALSE(b.restore(snap, &err));
  EXPECT_EQ(err, "snapshot platform config does not match this system");
}

TEST(SystemSnapshot, RejectsAMalformedPageTable) {
  sim::LiquidSystem a;
  mid_run_node(a);
  sim::SystemSnapshot snap = a.snapshot();

  // Drop the last page but keep the checksum honest: only the page-table
  // check can catch it.
  Bytes wire = snap.serialize();
  ASSERT_GT(wire.size(), 8 + kPageBytes);
  wire.resize(wire.size() - 8 - kPageBytes);
  const u64 sum = snap_fnv1a(wire.data(), wire.size());
  for (int i = 0; i < 8; ++i) wire.push_back(static_cast<u8>(sum >> (8 * i)));
  std::string err;
  EXPECT_FALSE(sim::SystemSnapshot::deserialize(wire, &err).has_value());
  EXPECT_EQ(err, "malformed snapshot page table");

  // State that names pages the snapshot does not carry is refused too.
  snap.pages.clear();
  sim::LiquidSystem b;
  EXPECT_FALSE(b.restore(snap, &err));
  EXPECT_EQ(err, "corrupt or incompatible snapshot component section");
}

TEST(SystemSnapshot, CostsTheTouchedPagesNotTheMemorySize) {
  sim::LiquidSystem a;
  mid_run_node(a);
  const sim::SystemSnapshot snap = a.snapshot();
  // 5 MiB of SRAM + SDRAM, of which boot, load and run touched a few
  // pages: the snapshot references those and nothing else.
  const std::size_t memory = a.config().sram_size + a.config().sdram_size;
  EXPECT_GE(snap.pages.size(), 1u);
  EXPECT_LE(snap.pages.size(), 8u);
  EXPECT_LT(snap.size_bytes(), memory / 20);
  EXPECT_LT(snap.serialize().size(), memory / 20);
}

TEST(SystemSnapshot, ConsecutiveCapturesShareUnwrittenPages) {
  sim::LiquidSystem a;
  a.run(300);
  const sim::SystemSnapshot boot = a.snapshot();
  ctrl::LiquidClient client(a);
  ASSERT_TRUE(client.load_program(work_program()));
  const sim::SystemSnapshot loaded = a.snapshot();

  // The LOAD rewrote SRAM page 0 (mailbox + program) and nothing else:
  // every other page of the post-boot capture is shared, not copied.
  std::size_t shared = 0;
  for (const PageRef& p : loaded.pages) {
    for (const PageRef& q : boot.pages) shared += p == q ? 1 : 0;
  }
  EXPECT_EQ(shared + 1, loaded.pages.size());
  EXPECT_EQ(boot.pages.size(), loaded.pages.size());

  // Restoring the post-boot capture puts the old page back.
  sim::LiquidSystem b;
  ASSERT_TRUE(b.restore(boot));
  EXPECT_EQ(b.sram().backdoor_word(0x40000100), 0u);
  ASSERT_TRUE(b.restore(loaded));
  EXPECT_NE(b.sram().backdoor_word(0x40000100), 0u);
}

TEST(SystemSnapshot, RestoringIntoTheCapturingNodeRewindsItsMemory) {
  sim::LiquidSystem a;
  mid_run_node(a);
  const sim::SystemSnapshot snap = a.snapshot();
  const u32 result = work_program().symbol("result");
  a.run(5'000);  // the program stores its result into a shared page
  ASSERT_NE(a.sram().backdoor_word(result), 0u);
  ASSERT_TRUE(a.restore(snap));
  EXPECT_EQ(a.sram().backdoor_word(result), 0u);
  EXPECT_EQ(a.snapshot().serialize(), snap.serialize());
}

TEST(SnapshotPool, FirstWriterWinsAndCountsHits) {
  sim::LiquidSystem a;
  a.run(100);
  sim::SnapshotPool pool;
  EXPECT_EQ(pool.get("boot|k1"), nullptr);

  const sim::SystemSnapshot first = a.snapshot();
  pool.put("boot|k1", first);
  a.run(100);
  pool.put("boot|k1", a.snapshot());  // later capture must NOT replace
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.bytes(), first.size_bytes());

  auto sp = pool.get("boot|k1");
  ASSERT_NE(sp, nullptr);
  sim::LiquidSystem b;
  ASSERT_TRUE(b.restore(*sp));

  const auto st = pool.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.inserts, 1u);
}

TEST(SnapshotPool, EvictsLeastRecentlyUsedBeyondItsBudget) {
  // Entries of a quarter budget each.  The pool charges every page
  // reference in full, so one zero page referenced over and over stands in
  // for 16 MiB without allocating it.
  const PageRef page = std::make_shared<const Page>();
  const auto quarter = [&] {
    sim::SystemSnapshot s;
    s.state = Bytes(kPageBytes);
    s.pages.assign(sim::SnapshotPool::kBudget / 4 / kPageBytes - 1, page);
    return s;
  };
  ASSERT_EQ(quarter().size_bytes(), sim::SnapshotPool::kBudget / 4);

  sim::SnapshotPool pool;
  for (const char* key : {"a", "b", "c", "d"}) pool.put(key, quarter());
  EXPECT_EQ(pool.bytes(), sim::SnapshotPool::kBudget);  // full, not over
  EXPECT_EQ(pool.stats().evictions, 0u);

  ASSERT_NE(pool.get("a"), nullptr);  // "b" is now the least recent
  pool.put("e", quarter());
  EXPECT_TRUE(pool.contains("a"));
  EXPECT_FALSE(pool.contains("b"));
  EXPECT_TRUE(pool.contains("e"));
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_EQ(pool.bytes(), sim::SnapshotPool::kBudget);
  EXPECT_EQ(pool.stats().evictions, 1u);
}

}  // namespace
}  // namespace la::test
