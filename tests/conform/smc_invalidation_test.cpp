// Predecode-mirror coverage at the replay-rig level, driven
// by corpus vectors instead of assembled kernels (the assembly twin lives
// in cpu/predecode_test.cpp).  Two scenarios:
//
//  * LOAD invalidation: a persistent pipeline rig is fed a sequence of
//    corpus vectors by overwriting the code/data image behind the CPU's
//    back (exactly what the controller's LOAD does), flushing the caches
//    between programs.  Each vector must then reproduce its reference
//    post-state — a mirror keyed on stale words would fail here.
//    Without the flush the caches are architecturally stale, and the
//    fast and slow pipelines must be *identically* stale.
//
//  * SMC corner: a store into the I-line being executed, with and
//    without `flush`, across the predecode grid's cache geometries; the
//    fast paths must match the slow model word for word.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bus/ahb.hpp"
#include "conform/generator.hpp"
#include "conform/replay.hpp"
#include "conform/vector.hpp"
#include "cpu/leon_pipeline.hpp"
#include "isa/encode.hpp"
#include "mem/sram.hpp"

namespace la::conform {
namespace {


/// A persistent pipeline rig: memory survives across vectors so cache
/// and decode-cache state carries over, like a real board between LOADs.
struct Rig {
  mem::Sram sram{kVecMemBase, kVecMemSize};
  bus::AhbBus bus;
  Cycles clock = 0;
  std::unique_ptr<cpu::LeonPipeline> pipe;

  explicit Rig(const cpu::PipelineConfig& cfg) {
    bus.attach(kVecMemBase, kVecMemSize, &sram);
    pipe = std::make_unique<cpu::LeonPipeline>(cfg, bus, &clock,
                                               cpu::Cacheable::kEverything);
    pipe->reset(kVecCodeBase);
  }

  /// Overwrite the memory image the way the loader does: behind the
  /// CPU's back, no bus traffic the caches could observe.
  void load(const TestVector& v) {
    for (const auto& [a, w] : v.pre.mem) sram.backdoor_write_word(a, w);
    for (const auto& [a, w] : v.code) sram.backdoor_write_word(a, w);
  }

  /// Force the architectural pre-state (apply_state assumes a fresh CPU,
  /// so zero the whole file first — the rig is deliberately not fresh).
  void apply_pre(const ArchState& pre) {
    cpu::CpuState& st = pipe->state();
    for (u32 i = 1; i < flat_reg_count(st.nwindows); ++i) {
      flat_reg_set(st, i, 0);
    }
    for (u32 i = 1; i < 32; ++i) st.asr[i] = 0;
    apply_state(pre, st);
  }

  void run(int steps) {
    for (int i = 0; i < steps; ++i) pipe->step();
  }
};

cpu::PipelineConfig pipe_cfg(const VecConfig& vc, bool fast) {
  cpu::PipelineConfig cfg;
  cfg.cpu = vc.cpu_config();
  cfg.host_fast_paths = fast;
  return cfg;
}

void expect_same_state(Rig& fast, Rig& slow, const std::string& what) {
  EXPECT_EQ(diff_states(capture_state(fast.pipe->state()),
                        capture_state(slow.pipe->state())),
            "")
      << what;
  EXPECT_EQ(fast.pipe->stats().instructions, slow.pipe->stats().instructions)
      << what;
  EXPECT_EQ(fast.pipe->stats().cycles, slow.pipe->stats().cycles) << what;
  EXPECT_EQ(fast.pipe->stats().traps, slow.pipe->stats().traps) << what;
}

/// Single-step ALU/memory vectors sharing the standard code address, so
/// successive LOADs overwrite the very words the I-cache already holds.
std::vector<TestVector> workload() {
  std::vector<TestVector> seq;
  for (const isa::Mnemonic mn :
       {isa::Mnemonic::kAdd, isa::Mnemonic::kSt, isa::Mnemonic::kXor,
        isa::Mnemonic::kLd, isa::Mnemonic::kSubcc, isa::Mnemonic::kStb}) {
    const CorpusFile f = generate_corpus(mn, kDefaultSeed, 3);
    for (const TestVector& v : f.vectors) {
      if (v.steps == 1 && !v.ref.trapped && v.cfg.nwindows == 8 &&
          !v.cfg.quirk_subx) {
        seq.push_back(v);
      }
    }
  }
  return seq;
}

TEST(SmcInvalidation, LoadWithFlushReplaysReferencePostState) {
  const VecConfig vc;
  Rig fast(pipe_cfg(vc, true));
  Rig slow(pipe_cfg(vc, false));
  for (const TestVector& v : workload()) {
    for (Rig* r : {&fast, &slow}) {
      // Flush first (write back the previous program's dirty lines),
      // then load the new image — the reset/LOAD ordering on a board.
      r->pipe->flush_caches();
      r->load(v);
      r->apply_pre(v.pre);
      r->run(v.steps);
    }
    // Both models must match the IntegerUnit reference exactly, even
    // though the rig was never reconstructed between programs.
    for (Rig* r : {&fast, &slow}) {
      ArchState got = capture_state(r->pipe->state());
      r->pipe->flush_caches();
      for (const auto& [a, w] : v.post.mem) {
        (void)w;
        got.mem[a] = r->sram.backdoor_word(a);
      }
      EXPECT_EQ(diff_states(got, v.post), "") << v.name;
    }
    expect_same_state(fast, slow, v.name);
  }
}

TEST(SmcInvalidation, LoadWithoutFlushIsIdenticallyStale) {
  // Skipping the flush leaves the caches (and any predecoded mirror)
  // architecturally stale: the run may execute old code, and that is
  // fine — but the fast paths must be stale in exactly the same way.
  const VecConfig vc;
  Rig fast(pipe_cfg(vc, true));
  Rig slow(pipe_cfg(vc, false));
  for (const TestVector& v : workload()) {
    for (Rig* r : {&fast, &slow}) {
      r->load(v);
      r->apply_pre(v.pre);
      r->run(v.steps);
    }
    expect_same_state(fast, slow, v.name);
  }
}

// --- the SMC corner over the predecode grid's geometries ----------------

/// Three-instruction kernel, all inside one I-line:
///   st %g2, [%g1]   ; g1 = base+8 -> overwrites the third word
///   xor %g0,%g0,%g0 ; filler (or `flush [%g1]` in the flush variant)
///   add %g0,11,%g4  ; prefilled "old" insn; %g2 holds add %g0,22,%g4
/// Stale I-line => %g4 = 11, invalidated/uncached => %g4 = 22.
void run_smc(const cpu::PipelineConfig& base, bool with_flush,
             u32 expect_g4) {
  const u32 old_insn = isa::encode_arith_ri(isa::Mnemonic::kAdd, 4, 0, 11);
  const u32 new_insn = isa::encode_arith_ri(isa::Mnemonic::kAdd, 4, 0, 22);
  const u32 filler =
      with_flush ? isa::encode_arith_ri(isa::Mnemonic::kFlush, 0, 1, 0)
                 : isa::encode_arith_rr(isa::Mnemonic::kXor, 0, 0, 0);

  ArchState pre;
  pre.pc = kVecCodeBase;
  pre.npc = kVecCodeBase + 4;
  {
    cpu::Psr p;
    p.s = true;
    p.et = true;
    pre.psr = p.pack();
  }
  pre.tbr = kVecTrapBase;
  pre.regs[1] = kVecCodeBase + 8;  // %g1: store/flush target
  pre.regs[2] = new_insn;          // %g2: the patch word

  const VecConfig vc;
  Rig fast(pipe_cfg(vc, true));
  Rig slow(pipe_cfg(vc, false));
  for (Rig* r : {&fast, &slow}) {
    cpu::PipelineConfig cfg = base;  // same geometry, per-rig fast paths
    cfg.host_fast_paths = r == &fast;
    r->pipe = std::make_unique<cpu::LeonPipeline>(
        cfg, r->bus, &r->clock, cpu::Cacheable::kEverything);
    r->pipe->reset(kVecCodeBase);
    r->sram.backdoor_write_word(kVecCodeBase, isa::encode_mem_ri(
                                                  isa::Mnemonic::kSt, 2, 1, 0));
    r->sram.backdoor_write_word(kVecCodeBase + 4, filler);
    r->sram.backdoor_write_word(kVecCodeBase + 8, old_insn);
    r->apply_pre(pre);
    r->run(3);
    EXPECT_EQ(r->pipe->state().reg(4), expect_g4)
        << (r == &fast ? "fast" : "slow") << " flush=" << with_flush;
  }
  expect_same_state(fast, slow, with_flush ? "smc+flush" : "smc");
}

TEST(SmcInvalidation, StoreIntoExecutingLineDefaultCaches) {
  // The line is resident from fetching the store itself, so without a
  // flush the third word executes stale; flush makes the patch visible.
  run_smc(pipe_cfg(VecConfig{}, true), /*with_flush=*/false, 11);
  run_smc(pipe_cfg(VecConfig{}, true), /*with_flush=*/true, 22);
}

TEST(SmcInvalidation, StoreIntoExecutingLineTinyCache) {
  cpu::PipelineConfig tiny = pipe_cfg(VecConfig{}, true);
  tiny.icache.size_bytes = 128;
  tiny.icache.line_bytes = 16;
  tiny.dcache.size_bytes = 128;
  tiny.dcache.line_bytes = 16;
  run_smc(tiny, /*with_flush=*/false, 11);
  run_smc(tiny, /*with_flush=*/true, 22);
}

TEST(SmcInvalidation, StoreIntoExecutingLineCacheOff) {
  // Uncached fetches observe the store immediately, flush or not.
  cpu::PipelineConfig nocache = pipe_cfg(VecConfig{}, true);
  nocache.icache_enabled = false;
  nocache.dcache_enabled = false;
  nocache.write_buffer_depth = 0;
  run_smc(nocache, /*with_flush=*/false, 22);
  run_smc(nocache, /*with_flush=*/true, 22);
}

}  // namespace
}  // namespace la::conform
