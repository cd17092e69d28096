// Trace analyzer: profiles from real pipeline runs and the configuration
// recommendations they produce.
#include <gtest/gtest.h>

#include "ctrl/client.hpp"
#include "liquid/reconfig_server.hpp"
#include "liquid/trace.hpp"
#include "sasm/assembler.hpp"
#include "sim/liquid_system.hpp"
#include "sim/snapshot.hpp"

namespace la::liquid {
namespace {

/// Walk `bytes` of data with the given byte stride, then return.
std::string walker(u32 bytes, u32 stride) {
  std::string s = R"(
      .org 0x40000100
  _start:
      set data, %o0
      set )" + std::to_string(bytes) + R"(, %o5
      mov 0, %o1
  loop:
      ld [%o0 + %o1], %o2
      add %o1, )" + std::to_string(stride) + R"(, %o1
      cmp %o1, %o5
      bl loop
      nop
      jmp 0x40
      nop
      .align 32
  data:
      .skip )" + std::to_string(bytes) + "\n";
  return s;
}

/// Feed `sys`'s instruction steps to `an` through the node's step hook,
/// as ReconfigurationServer::run_job does without stream_traces.
void attach(sim::LiquidSystem& sys, TraceAnalyzer& an) {
  an.set_focus(0x40000000, 0x4fffffff);  // the application, not the boot ROM
  sys.set_step_hook([&an](const cpu::StepResult& r) {
    if (r.is_instruction()) an.ingest(net::TraceRecord::from_step(r));
  });
}

/// Load and run `src` on `sys` over the control network.
bool run_program(sim::LiquidSystem& sys, const std::string& src) {
  ctrl::LiquidClient client(sys);
  return static_cast<bool>(client.run_program(sasm::assemble_or_throw(src)));
}

TraceReport run_traced(const std::string& src, TraceAnalyzer& an) {
  sim::LiquidSystem sys;
  sys.run(100);
  attach(sys, an);
  EXPECT_TRUE(run_program(sys, src));
  sys.set_step_hook({});
  return an.report();
}

/// The paper's baseline with the 4 KB D-cache.
cpu::PipelineConfig dcache_4k() {
  ArchConfig a = ArchConfig::paper_baseline();
  a.dcache_bytes = 4096;
  return a.to_pipeline();
}

TEST(Trace, CountsInstructionsAndMemoryOps) {
  TraceAnalyzer an;
  const TraceReport t = run_traced(walker(256, 4), an);
  EXPECT_GT(t.instructions, 300u);  // 64 iterations x 5 + overhead
  EXPECT_GE(t.loads, 64u);
  EXPECT_GT(t.code_footprint_bytes, 0u);
}

TEST(Trace, WorkingSetTracksFootprint) {
  TraceAnalyzer small, large;
  const TraceReport ts = run_traced(walker(256, 4), small);
  const TraceReport tl = run_traced(walker(4096, 4), large);
  // 32-byte granularity: 256B -> 256B, 4KB -> 4KB (plus the odd extra
  // line from boot-loop mailbox polling).
  EXPECT_NEAR(static_cast<double>(ts.data_working_set_bytes), 256.0, 96.0);
  EXPECT_NEAR(static_cast<double>(tl.data_working_set_bytes), 4096.0, 96.0);
}

TEST(Trace, DominantStrideDetected) {
  TraceAnalyzer an;
  const TraceReport t = run_traced(walker(2048, 128), an);
  EXPECT_EQ(t.dominant_stride, 128);
}

TEST(Trace, HotPcsAreTheLoop) {
  TraceAnalyzer an;
  const TraceReport t = run_traced(walker(1024, 4), an);
  ASSERT_FALSE(t.hot_pcs.empty());
  // The hottest PCs must be user-code addresses (the loop), not boot ROM.
  EXPECT_GE(t.hot_pcs[0].first, 0x40000100u);
  EXPECT_GT(t.hot_pcs[0].second, 200u);
}

TEST(Trace, RecommendsCacheCoveringWorkingSet) {
  const ConfigSpace space;  // 1..16 KB
  TraceAnalyzer an;
  run_traced(walker(4096, 32), an);
  const ArchConfig rec = an.recommend(space);
  // 4 KB walked with 32B stride -> working set 4 KB: need >= 4 KB, and 8
  // KB wins over 16 KB on area.  (4 KB itself is exactly at the working
  // set; the analyzer may pick 4 or 8 KB depending on mailbox noise.)
  EXPECT_GE(rec.dcache_bytes, 4096u);
  EXPECT_LE(rec.dcache_bytes, 8192u);
}

TEST(Trace, SmallFootprintKeepsSmallCache) {
  const ConfigSpace space;
  TraceAnalyzer an;
  run_traced(walker(256, 4), an);
  EXPECT_EQ(an.recommend(space).dcache_bytes, 1024u);
}

TEST(Trace, ResetClearsEverything) {
  TraceAnalyzer an;
  run_traced(walker(256, 4), an);
  EXPECT_GT(an.report().instructions, 0u);
  an.reset();
  const TraceReport t = an.report();
  EXPECT_EQ(t.instructions, 0u);
  EXPECT_EQ(t.data_working_set_bytes, 0u);
  EXPECT_TRUE(t.hot_pcs.empty());
}

// The tap is the node's, so it outlives the pipeline a reconfiguration
// replaces.
TEST(Trace, StepHookSurvivesReconfigure) {
  sim::LiquidSystem sys;
  sys.run(100);
  TraceAnalyzer an;
  attach(sys, an);
  sys.reconfigure(dcache_4k());
  sys.run(100);  // the fresh boot reaches its polling loop
  ASSERT_EQ(sys.cpu().dcache().config().size_bytes, 4096u);
  EXPECT_TRUE(run_program(sys, walker(256, 4)));
  sys.set_step_hook({});
  EXPECT_GT(an.report().instructions, 300u);
}

// ... and the pipeline a restore rebuilds to adopt the snapshot's
// micro-architecture.
TEST(Trace, StepHookSurvivesRestore) {
  sim::SystemConfig donor_cfg;
  donor_cfg.pipeline = dcache_4k();
  sim::LiquidSystem donor(donor_cfg);
  donor.run(100);
  const sim::SystemSnapshot snap = donor.snapshot();

  sim::LiquidSystem sys;
  sys.run(100);
  TraceAnalyzer an;
  attach(sys, an);
  ASSERT_TRUE(sys.restore(snap));
  ASSERT_EQ(sys.cpu().dcache().config().size_bytes, 4096u);
  EXPECT_TRUE(run_program(sys, walker(256, 4)));
  sys.set_step_hook({});
  EXPECT_GT(an.report().instructions, 300u);
}

// run_job profiles a job through the node's step hook, or (stream_traces)
// from the trace datagrams the node sends: the same profile either way.
TEST(Trace, DirectAndStreamedFeedsAgree) {
  const auto img = sasm::assemble_or_throw(walker(4096, 32));
  const auto profile = [&](bool stream) {
    sim::LiquidSystem node;
    node.run(100);
    SynthesisModel syn;
    ReconfigurationCache cache;
    ServerConfig scfg;
    scfg.stream_traces = stream;
    ReconfigurationServer server(node, cache, syn, scfg);
    TraceAnalyzer an;
    const JobResult r =
        server.run_job(ArchConfig::paper_baseline(), img, 0, 0, &an);
    EXPECT_TRUE(r.ok) << r.error;
    return an.report();
  };
  const TraceReport direct = profile(false);
  const TraceReport streamed = profile(true);
  EXPECT_GT(direct.instructions, 300u);
  EXPECT_EQ(direct.instructions, streamed.instructions);
  EXPECT_EQ(direct.annulled, streamed.annulled);
  EXPECT_EQ(direct.loads, streamed.loads);
  EXPECT_EQ(direct.stores, streamed.stores);
  EXPECT_EQ(direct.multiplies, streamed.multiplies);
  EXPECT_EQ(direct.divides, streamed.divides);
  EXPECT_EQ(direct.traps, streamed.traps);
  EXPECT_EQ(direct.data_working_set_bytes, streamed.data_working_set_bytes);
  EXPECT_EQ(direct.code_footprint_bytes, streamed.code_footprint_bytes);
  EXPECT_EQ(direct.dominant_stride, streamed.dominant_stride);
  EXPECT_EQ(direct.hot_pcs, streamed.hot_pcs);
}

TEST(Trace, HotPcRankingIsDeterministicOnCountTies) {
  // Regression: equal execution counts used to rank in std::sort's
  // unspecified order, so reports and top-N truncation could differ
  // between runs/platforms.  Ties now break on the address.
  TraceAnalyzer an;
  an.set_focus(0x40000000, 0x4fffffff);
  const Addr pcs[] = {0x40000110, 0x40000104, 0x4000010c, 0x40000100};
  for (const Addr pc : pcs) {
    net::TraceRecord r;
    r.pc = pc;
    an.ingest(r);  // every pc exactly once: a four-way tie
  }
  net::TraceRecord hot;
  hot.pc = 0x40000108;
  an.ingest(hot);
  an.ingest(hot);  // twice: the unambiguous winner

  const TraceReport t = an.report();
  ASSERT_EQ(t.hot_pcs.size(), 5u);
  EXPECT_EQ(t.hot_pcs[0].first, 0x40000108u);
  EXPECT_EQ(t.hot_pcs[0].second, 2u);
  for (std::size_t i = 2; i < t.hot_pcs.size(); ++i) {
    EXPECT_LT(t.hot_pcs[i - 1].first, t.hot_pcs[i].first);
  }
  // Truncation keeps the lowest-addressed of the tied tail.
  const TraceReport top3 = an.report(3);
  ASSERT_EQ(top3.hot_pcs.size(), 3u);
  EXPECT_EQ(top3.hot_pcs[1].first, 0x40000100u);
  EXPECT_EQ(top3.hot_pcs[2].first, 0x40000104u);
}

}  // namespace
}  // namespace la::liquid
