// The timed LEON pipeline: functional correctness on the AHB system plus
// the cache/bus timing behaviours the paper's experiment depends on.
#include <gtest/gtest.h>

#include <functional>

#include "pipeline_test_util.hpp"
#include "sasm/runtime.hpp"

namespace la::test {
namespace {

// The paper's array-access kernel (Fig 7), parameterized by bound.
std::string fig7_kernel(u32 bound) {
  std::string s = R"(
      .org 0x40000100
  _start:
      set count, %o0
      set 0, %o1
      set )" + std::to_string(bound) + R"(, %o2
  loop:
      and %o1, 1023, %o3
      sll %o3, 2, %o3        ! count is an int array: byte offset = idx*4
      ld [%o0 + %o3], %o4
      add %o1, 32, %o1
      cmp %o1, %o2
      bl loop
      nop
  done:
      ba done
      nop
      .align 32
  count:
      .skip 4096
  )";
  return s;
}

TEST(Pipeline, ExecutesBasicProgram) {
  PipeSys s(R"(
      .org 0x40000100
  _start:
      mov 10, %g1
      mov 32, %g2
      add %g1, %g2, %g3
      set buf, %g4
      st %g3, [%g4]
      ld [%g4], %g5
  done: ba done
      nop
      .align 4
  buf:  .skip 8
  )");
  s.run_to("done");
  EXPECT_EQ(s.g(3), 42u);
  EXPECT_EQ(s.g(5), 42u);
  EXPECT_EQ(s.sram().backdoor_word(s.image().symbol("buf")), 42u);
}

TEST(Pipeline, CyclesAdvanceTheSharedClock) {
  PipeSys s(R"(
      .org 0x40000100
  _start:
      nop
      nop
  done: ba done
      nop
  )");
  s.run_to("done");
  EXPECT_GT(s.clock(), 0u);
  EXPECT_EQ(s.clock(), s.pipe().stats().cycles);
}

TEST(Pipeline, IcacheWarmLoopHasNoFetchStalls) {
  PipeSys s(R"(
      .org 0x40000100
  _start:
      mov 100, %g1
  loop:
      subcc %g1, 1, %g1
      bne loop
      nop
  done: ba done
      nop
  )");
  s.run_to("done");
  const auto& st = s.pipe().stats();
  // The loop is 3 instructions in at most 2 lines: a handful of fills,
  // then hits forever.
  EXPECT_LE(s.pipe().icache().stats().read_misses, 3u);
  EXPECT_GT(s.pipe().icache().stats().read_hits, 250u);
  EXPECT_LT(st.icache_stall, 100u);
}

TEST(Pipeline, DcacheMissesCostCycles) {
  // Two runs of the Fig 7 kernel: with a 1 KB D-cache (all conflict
  // misses) and a 4 KB D-cache (all hits after warm-up).  The 4 KB run
  // must be substantially faster — the paper's headline observation.
  cpu::PipelineConfig small;
  small.dcache.size_bytes = 1024;
  PipeSys s1(fig7_kernel(100000), small);
  s1.run_to("done");

  cpu::PipelineConfig big;
  big.dcache.size_bytes = 4096;
  PipeSys s4(fig7_kernel(100000), big);
  s4.run_to("done");

  EXPECT_GT(s1.clock(), s4.clock() + s4.clock() / 4);
  // 1 KB: every iteration misses; 4 KB: only the 32 cold misses.
  EXPECT_EQ(s4.pipe().dcache().stats().read_misses, 32u);
  EXPECT_GT(s1.pipe().dcache().stats().read_misses, 3000u);
}

TEST(Pipeline, DcacheDisabledIsSlowerThanWarmCache) {
  // A 4 KB cache holds the kernel's whole working set -> hits dominate and
  // beat uncached accesses.  (A 1 KB cache on this kernel misses on every
  // access and is *worse* than uncached — line fills cost 8-beat bursts —
  // which is exactly why the paper wants the cache right-sized.)
  cpu::PipelineConfig on;
  on.dcache.size_bytes = 4096;
  PipeSys a(fig7_kernel(32000), on);
  a.run_to("done");

  cpu::PipelineConfig off;
  off.dcache_enabled = false;
  PipeSys b(fig7_kernel(32000), off);
  b.run_to("done");

  EXPECT_GT(b.clock(), a.clock());
  EXPECT_EQ(b.pipe().dcache().stats().accesses(), 0u);

  cpu::PipelineConfig tiny;
  tiny.dcache.size_bytes = 1024;
  PipeSys c(fig7_kernel(32000), tiny);
  c.run_to("done");
  EXPECT_GT(c.clock(), b.clock());  // thrashing cache loses to uncached
}

TEST(Pipeline, WriteBufferHidesStoreLatency) {
  const std::string prog = R"(
      .org 0x40000100
  _start:
      set buf, %g1
      mov 200, %g2
  loop:
      st %g2, [%g1]
      add %g1, 4, %g1
      subcc %g2, 1, %g2
      bne loop
      nop
  done: ba done
      nop
      .align 4
  buf:  .skip 1024
  )";
  cpu::PipelineConfig buffered;
  buffered.write_buffer_depth = 1;
  PipeSys a(prog, buffered);
  a.run_to("done");

  cpu::PipelineConfig sync;
  sync.write_buffer_depth = 0;
  PipeSys b(prog, sync);
  b.run_to("done");

  EXPECT_LT(a.clock(), b.clock());
}

TEST(Pipeline, FlushMakesBackdoorWritesVisible) {
  // The boot-ROM polling scenario: the CPU caches a word, leon_ctrl
  // rewrites it behind the cache, and only a FLUSH lets the CPU see it.
  PipeSys s(R"(
      .org 0x40000100
  _start:
      set mbox, %g1
      ld [%g1], %g2        ! caches the line (value 0)
  spin1:
      ba spin1
      nop
  resume:
      ld [%g1], %g3        ! stale: still served from the cache
      flush %g1
      ld [%g1], %g4        ! fresh after the flush
  done: ba done
      nop
      .align 32
  mbox: .word 0
  )");
  s.run_to("spin1");
  EXPECT_EQ(s.g(2), 0u);
  // External circuitry writes behind the processor's back.
  s.sram().backdoor_write_word(s.image().symbol("mbox"), 77);
  // Redirect the CPU to the resume sequence (test backdoor).
  s.pipe().state().pc = s.image().symbol("resume");
  s.pipe().state().npc = s.pipe().state().pc + 4;
  s.run_to("done");
  EXPECT_EQ(s.g(3), 0u);   // stale read
  EXPECT_EQ(s.g(4), 77u);  // post-flush read
}

TEST(Pipeline, CacheControlRegisterViaAsi) {
  PipeSys s(R"(
      .org 0x40000100
  _start:
      lda [%g0 + %g0] 2, %g1   ! read CCR
      set 0x00600000, %g2      ! FI|FD
      sta %g2, [%g0 + %g0] 2   ! flush both caches
  done: ba done
      nop
  )");
  s.run_to("done");
  EXPECT_EQ(s.g(1), 0xfu);  // both caches enabled
  // Flush happened: the I-cache only holds lines refetched after the sta.
  EXPECT_LE(s.pipe().icache().valid_lines(), 2u);
}

TEST(Pipeline, UncachedPeripheralAccess) {
  PipeSys s(R"(
      .org 0x40000100
  _start:
      set 0x80000400, %g1     ! GPIO out
      mov 0xff, %g2
      st %g2, [%g1]
      ld [%g1], %g3
  done: ba done
      nop
  )");
  s.run_to("done");
  EXPECT_EQ(s.g(3), 0xffu);
  EXPECT_EQ(s.pipe().dcache().stats().accesses(), 0u);  // never cached
}

TEST(Pipeline, CycleCounterMeasuresProgramSection) {
  PipeSys s(R"(
      .org 0x40000100
  _start:
      set 0x80000500, %g1
      mov 1, %g2
      st %g2, [%g1]           ! start counting
      mov 50, %g3
  loop:
      subcc %g3, 1, %g3
      bne loop
      nop
      st %g0, [%g1]           ! stop
      ld [%g1 + 4], %g4       ! measured cycles
  done: ba done
      nop
  )");
  s.run_to("done");
  EXPECT_GT(s.g(4), 100u);          // ~150 instructions worth of cycles
  EXPECT_LT(s.g(4), 2000u);
  EXPECT_EQ(s.g(4), s.counter().measured());
}

TEST(Pipeline, StoreToUnmappedTraps) {
  PipeSys s(R"(
      .org 0x40000100
  _start:
      set 0x20000000, %g1
      st %g0, [%g1]
  )");
  s.pipe().run(10);
  EXPECT_TRUE(s.pipe().state().error_mode);
  EXPECT_EQ(s.pipe().state().tbr_tt(), 0x09);
}

TEST(Pipeline, TrapsWorkOnTimedModel) {
  PipeSys s(R"(
      .org 0x40000100
  _start:
      set 0x40001000, %g1
      wr %g1, 0, %tbr
      wr %g0, 0xaa0, %psr
      nop
      ta 2
      nop
  after: ba after
      nop
      .org 0x40001820          ! tt = 0x82
  handler:
      mov 55, %g7
      jmp %l2
      rett %l2 + 4
  )");
  s.run_to("after");
  EXPECT_EQ(s.g(7), 55u);
  EXPECT_TRUE(s.pipe().state().psr.et);
}

TEST(Pipeline, InstructionMixAccounting) {
  PipeSys s(R"(
      .org 0x40000100
  _start:
      set buf, %g1           ! sethi + or
      mov 3, %g2
  loop:
      ld [%g1], %g3          ! 3 loads
      st %g3, [%g1 + 4]      ! 3 stores
      umul %g3, %g2, %g4     ! 3 multiplies
      subcc %g2, 1, %g2
      bne loop               ! 3 branches, 2 taken
      nop
      call f                 ! 1 call
      nop
  done: ba done
      nop
  f:
      retl                   ! jmpl: counted as a call-class transfer
      nop
      .align 4
  buf:  .skip 8
  )");
  s.run_to("done");
  const auto& st = s.pipe().stats();
  EXPECT_EQ(st.loads, 3u);
  EXPECT_EQ(st.stores, 3u);
  EXPECT_EQ(st.muldiv, 3u);
  EXPECT_EQ(st.branches, 3u);
  EXPECT_EQ(st.taken_branches, 2u);
  EXPECT_EQ(st.calls, 2u);  // call + retl(jmpl)
}

TEST(Pipeline, AnnulledSlotsCountedSeparately) {
  PipeSys s(R"(
      .org 0x40000100
  _start:
      ba,a skip
      mov 1, %g1
  skip:
  done: ba done
      nop
  )");
  s.run_to("done");
  EXPECT_EQ(s.g(1), 0u);
  EXPECT_EQ(s.pipe().stats().annulled, 1u);
}

/// The I-cache's every saved byte (tags, LRU, data, stats, tick).
Bytes icache_state(cpu::LeonPipeline& p) {
  SnapWriter w;
  p.icache().save_state(w);
  return w.take();
}

// The line tier counts a line's streak of I-cache re-hits in a local and
// applies them at the next line change and before anything else runs.
// Windows ending mid-line, an execute() op inside the streak, and a whole
// I-cache flush (the ASI 2 FI bit) in a line the program then leaves must
// all leave the I-cache exactly as per-fetch accounting (the reference's
// one access() per fetch) leaves it.
TEST(Pipeline, LineTierStreakAccountingMatchesPerFetch) {
  const char* src = R"(
      .org 0x40000100
  _start:
      mov 0, %g1
      mov 60, %g2
      set 0x00200000, %l2    ! CCR FI
      ba loop
      nop
      .align 32
  loop:
      add %g1, 1, %g1
      xor %g1, %g2, %g3
      umul %g1, 3, %g5       ! execute() mid-streak
      and %g3, 7, %g4
      subcc %g2, 1, %g2
      bne loop
      nop
      add %g4, 1, %g4        ! crosses into the next line
      add %g1, %g4, %g1
      sub %g1, 1, %g1
      or %g1, 2, %g1
      xor %g1, 5, %g1
      add %g1, 1, %g1
      add %g1, 3, %g1
      ba far
      sta %l2, [%g0] 2       ! last word of its line: flush the I-cache
      .align 64
  far:
      add %g1, 1, %g1
  done:
      ba done
      nop
  )";
  cpu::PipelineConfig slow_cfg;
  slow_cfg.host_fast_paths = false;
  PipeSys fast(src);
  PipeSys slow(src, slow_cfg);
  u64 steps = 0;
  for (const u64 window : {3u, 5u, 7u, 11u, 2u, 13u}) {
    for (int i = 0; i < 12; ++i) {
      ASSERT_EQ(fast.pipe().run(window), window);
      for (u64 k = 0; k < window; ++k) slow.pipe().step();
      steps += window;
      ASSERT_EQ(icache_state(fast.pipe()), icache_state(slow.pipe()))
          << "after " << steps << " steps";
      ASSERT_EQ(fast.pipe().state().pc, slow.pipe().state().pc);
    }
  }
  EXPECT_EQ(fast.pipe().state().pc, fast.image().symbol("done"));
  EXPECT_EQ(fast.pipe().icache().stats().flushes, 2u);  // reset's, FI's
}

// --- The line tier's flush and direct-SRAM read miss -----------------------
// Each program runs on two rigs with the SRAM behind a disconnect switch:
// fast (the line tier, the direct SRAM path) and slow (the per-step
// reference, every access on the bus).

/// What the two rigs must agree on: the pipeline's saved state
/// (registers, latches, both caches, stats), the bus's and the switch's
/// counters, the clock, and the `len` bytes at `data`.
Bytes rig_state(PipeSys& s, Addr data, u32 len) {
  SnapWriter w;
  s.pipe().save_state(w);
  s.bus().save_state(w);
  s.disconnect().save_state(w);
  w.u64v(s.clock());
  Bytes mem(len);
  EXPECT_TRUE(s.sram().backdoor_read(data, mem));
  w.bytes(mem);
  return w.take();
}

/// Run `fast` and `slow` in lockstep windows until the slow rig reaches
/// `done`: step budgets of 1 to 13 alternating with cycle deadlines 1 to
/// 13 cycles out, so windows end on every instruction, the flushes and
/// the missing loads included.  `poke(rig, window)` runs on both rigs
/// before each window (fault injection).  After every window the rigs
/// must agree on rig_state() over `len` bytes at `data_label`.
void check_lockstep(PipeSys& fast, PipeSys& slow,
                    const char* data_label, u32 len,
                    const std::function<void(PipeSys&, u64)>& poke = {}) {
  const Addr done = slow.image().symbol("done");
  const Addr data = slow.image().symbol(data_label);
  for (u64 window = 0; slow.pipe().state().pc != done; ++window) {
    ASSERT_LT(window, 100000u) << "never reached done";
    ASSERT_FALSE(slow.pipe().state().error_mode);
    cpu::RunWindow w;
    w.halt_pc = done;
    const u64 k = 1 + window % 13;
    if (window % 2 == 0) {
      w.max_steps = k;
    } else {
      w.max_steps = 1000;
      w.deadline = slow.clock() + k;
    }
    if (poke) {
      poke(fast, window);
      poke(slow, window);
    }
    ASSERT_EQ(fast.pipe().run(w), slow.pipe().run(w)) << "window " << window;
    ASSERT_EQ(rig_state(fast, data, len), rig_state(slow, data, len))
        << "after window " << window;
  }
}

/// Fill the `len` bytes at `data_label` with a nonzero word pattern.
void seed_data(PipeSys& s, const char* data_label, u32 len) {
  const Addr data = s.image().symbol(data_label);
  for (u32 i = 0; i < len; i += 4) {
    s.sram().backdoor_write_word(data + i, 0x01010101u * (i / 4) + 7);
  }
}

cpu::PipelineConfig reference(cpu::PipelineConfig cfg) {
  cfg.host_fast_paths = false;
  return cfg;
}

// flush in register and immediate form: of the executing I-line after a
// store into it (the next fetch must refill the line and run the new
// word), of data lines (an I-side miss), in a taken delay slot, in an
// annulled one, and in a bne,a slot that runs while the loop loops and is
// annulled on exit; between them loads that miss the 1 KB D-cache and
// fill from the SRAM.
TEST(Pipeline, LineTierFlushMatchesPerStep) {
  const char* src = R"(
      .org 0x40000100
  _start:
      set data, %l0
      set patch, %l1
      set words, %l5
      mov 0, %l6
      mov 0, %l2
      mov 0, %o1
      mov 12, %l7              ! passes
  loop:
      ld [%l5 + %l6], %l4      ! this pass's word for `patch`
      xor %l6, 4, %l6
      ba smc
      nop
      .align 32
  smc:                         ! one I-cache line
      st %l4, [%l1]            ! the I-cache keeps the old word
      flush %l1                ! drop this line: the next fetch refills it
  patch:
      mov 1, %o0               ! runs as mov 1 and mov 2 in turn
      add %o1, %o0, %o1
      flush %l0                ! a data line: I-side miss, D-side hit
      ld [%l0], %o2            ! misses
      ba slot
      flush %l0 + 32           ! taken delay slot
      .align 32
  slot:
      ld [%l0 + 32], %o3       ! misses
      add %o1, %o3, %o1
      ba,a walk
      flush %l1                ! annulled
  walk:
      ld [%l0 + %l2], %o4      ! a 32-byte stride over 4 KB: misses
      add %o1, %o4, %o1
      add %l2, 32, %l2
      and %l2, 4095, %l2
      subcc %l7, 1, %l7
      bne,a loop               ! its slot runs while looping and is
      flush %l0 + 64           ! annulled on exit
      ba done
      nop
      .align 32
  done:
      ba done
      nop
  words:
      mov 1, %o0
      mov 2, %o0
      .align 32
  data:
      .skip 4096
  )";
  PipeSys fast(src, {}, /*direct_sram=*/true);
  PipeSys slow(src, reference({}), /*direct_sram=*/true);
  seed_data(fast, "data", 4096);
  seed_data(slow, "data", 4096);
  check_lockstep(fast, slow, "data", 4096);
  EXPECT_EQ(fast.o(0), 2u);  // the last pass ran the patched word
  EXPECT_GT(fast.pipe().icache().stats().read_misses, 12u);
}

// Under a write-back D-cache a flush of a dirty line writes it back (the
// execute() path: the writeback takes the bus), while a clean line's
// flush stays inline.  The refill after each flush must read what the
// writeback stored.
TEST(Pipeline, LineTierFlushWritesBackDirtyLine) {
  const char* src = R"(
      .org 0x40000100
  _start:
      set data, %l0
      mov 16, %l7
      mov 0, %o1
  loop:
      st %l7, [%l0]            ! write-allocate: the line turns dirty
      flush %l0                ! dirty: written back, then dropped
      ld [%l0], %o2            ! refills what the writeback stored
      add %o1, %o2, %o1
      flush %l0 + 64           ! a clean line, or none
      ld [%l0 + 64], %o3
      add %o1, %o3, %o1
      subcc %l7, 1, %l7
      bne loop
      flush %l0 + 4            ! taken delay slot: a clean line
      ba done
      nop
      .align 32
  done:
      ba done
      nop
      .align 32
  data:
      .skip 128
  )";
  cpu::PipelineConfig cfg;
  cfg.dcache.write_policy = cache::WritePolicy::kWriteBackAllocate;
  PipeSys fast(src, cfg, /*direct_sram=*/true);
  PipeSys slow(src, reference(cfg), /*direct_sram=*/true);
  check_lockstep(fast, slow, "data", 128);
  EXPECT_EQ(fast.o(1), 136u);  // 16 + 15 + ... + 1, each read back
  EXPECT_EQ(fast.sram().backdoor_word(fast.image().symbol("data")), 1u);
}

/// A walk that misses the D-cache on every register-form load, with
/// immediate-form loads of every size between, and a data_access handler
/// that counts its traps at `traps:` and returns past the faulting op.
std::string miss_walk_program() {
  sasm::rt::RuntimeOptions opt;
  opt.custom_handlers[0x09] = "skip";
  return R"(
      .org 0x40000100
  _start:
      call rt_init
      nop
      set data, %l0
      mov 0, %l1
      mov 0, %l7
      set 300, %l6
  walk:
      ld [%l0 + %l1], %o1      ! a 32-byte stride over 4 KB
      add %l7, %o1, %l7
      add %l1, 32, %l1
      and %l1, 4095, %l1
      ldub [%l0 + 1], %o2
      ldsh [%l0 + 34], %o3
      ldd [%l0 + 72], %o4
      ldsb [%l0 + 1027], %o1
      lduh [%l0 + 2050], %o2
      add %l7, %o1, %l7
      add %l7, %o2, %l7
      add %l7, %o3, %l7
      add %l7, %o5, %l7
      subcc %l6, 1, %l6
      bne walk
      nop
      ba done
      nop
  skip:
      set traps, %l3
      ld [%l3], %l4
      add %l4, 1, %l4
      st %l4, [%l3]
      jmp %l2
      rett %l2 + 4
      .align 32
  done:
      ba done
      nop
  traps:
      .word 0
      .align 32
  data:
      .skip 4096
  )" + sasm::rt::runtime_source(opt);
}

/// The miss walk on a fast and a slow rig in lockstep, with `setup` run
/// on both rigs first and `poke` before each window.
void check_miss_walk(const cpu::PipelineConfig& cfg,
                     const std::function<void(PipeSys&)>& setup,
                     const std::function<void(PipeSys&, u64)>& poke,
                     const std::function<void(PipeSys&)>& expect) {
  const std::string src = miss_walk_program();
  PipeSys fast(src, cfg, /*direct_sram=*/true);
  PipeSys slow(src, reference(cfg), /*direct_sram=*/true);
  for (PipeSys* s : {&fast, &slow}) {
    seed_data(*s, "data", 4096);
    if (setup) setup(*s);
  }
  check_lockstep(fast, slow, "traps", 4 + 32 + 4096, poke);
  expect(fast);
}

u32 traps(PipeSys& s) { return s.sram().backdoor_word(s.image().symbol("traps")); }

// The direct-SRAM read miss with the switch closed, with it open for part
// of the walk (fills read zeros), before pending AHB error pulses (the
// pulsed miss takes the bus and traps), over a parity-damaged word (its
// line's fills take the bus and trap), and in a 2-way random-replacement
// D-cache.
TEST(Pipeline, LineTierDirectReadMissMatchesPerStep) {
  const cpu::PipelineConfig plain;
  check_miss_walk(plain, nullptr, nullptr, [](PipeSys& s) {
    EXPECT_EQ(traps(s), 0u);
    EXPECT_GT(s.pipe().dcache().stats().read_misses, 300u);
  });
  check_miss_walk(
      plain, nullptr,
      [](PipeSys& s, u64 window) {
        // Closed again before the walk ends: the code after it is not in
        // the I-cache, and an open switch would feed it zeros.
        if (window == 200) s.disconnect().set_connected(false);
        if (window == 300) s.disconnect().set_connected(true);
      },
      [](PipeSys& s) {
        EXPECT_GT(s.disconnect().stats().blocked_reads, 100u);
      });
  check_miss_walk(
      plain, nullptr,
      [](PipeSys& s, u64 window) {
        if (window == 300 || window == 501) s.bus().inject_error_pulse(1);
      },
      [](PipeSys& s) {
        EXPECT_EQ(s.bus().stats().injected_errors, 2u);
        EXPECT_GE(traps(s), 1u);
      });
  check_miss_walk(
      plain,
      [](PipeSys& s) {
        ASSERT_TRUE(s.sram().corrupt_word(s.image().symbol("data") + 260,
                                          0x10));
      },
      nullptr,
      [](PipeSys& s) {
        EXPECT_GE(traps(s), 2u);
        EXPECT_EQ(s.sram().stats().parity_errors, traps(s));
      });
  cpu::PipelineConfig two_way;
  two_way.dcache.ways = 2;
  two_way.dcache.replacement = cache::Replacement::kRandom;
  check_miss_walk(two_way, nullptr, nullptr, [](PipeSys& s) {
    EXPECT_EQ(traps(s), 0u);
    EXPECT_GT(s.pipe().dcache().stats().evictions, 100u);
  });
}

}  // namespace
}  // namespace la::test
