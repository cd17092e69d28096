// Full-node fast-path equivalence: the window-driven run loop, the line
// tier, and the CPU fast paths must be unobservable through the control
// protocol — identical cycle counts on the Fig 8 cache sweep, identical
// cycles, snapshot bytes and flight-recorder rings after the progs/
// kernels and after a program built to walk every branch of the line
// tier's load/store handlers, and a program LOADed over a previously
// running one (restart → reload at the same addresses) must execute the
// new bytes, not a stale predecoded mirror.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "ctrl/client.hpp"
#include "sasm/assembler.hpp"
#include "sasm/runtime.hpp"
#include "sim/liquid_system.hpp"
#include "sim/snapshot.hpp"

#ifndef LA_PROGS_DIR
#error "LA_PROGS_DIR must point at the progs/ directory"
#endif

namespace la::test {
namespace {

sim::SystemConfig config_for(bool fast) {
  sim::SystemConfig cfg;
  cfg.pipeline.host_fast_paths = fast;
  return cfg;
}

/// A program that stores `value` at `result:` and returns to the ROM
/// polling loop (the completion marker leon_ctrl watches for).
std::string store_and_finish(u32 value) {
  return R"(
      .org 0x40000100
  _start:
      set )" + std::to_string(value) + R"(, %g1
      set result, %g2
      st %g1, [%g2]
      jmp 0x40
      nop
      .align 4
  result:
      .skip 4
  )";
}

/// An endless loop at the same load address — the "running program" the
/// reload lands on top of.
const char* kSpin = R"(
    .org 0x40000100
_start:
    set 0, %g1
loop:
    add %g1, 1, %g1
    ba loop
    nop
)";

// --- LOAD over a running program ------------------------------------------

struct LoadOverRun {
  u64 cycles = 0;
  u32 result = 0;
};

LoadOverRun drive_load_over_running(bool fast) {
  LoadOverRun out;
  sim::LiquidSystem node(config_for(fast));
  node.run(300);  // boot into the polling loop
  ctrl::LiquidClient client(node);

  // Start the spinner and let it run long enough to warm the I-cache and
  // (on the fast path) the predecoded mirror over the whole loop.
  const auto spin = sasm::assemble_or_throw(kSpin);
  EXPECT_TRUE(client.load_program(spin));
  EXPECT_TRUE(client.start(spin.entry));
  node.run(20000);
  const auto st = client.status();
  EXPECT_TRUE(st.has_value());
  if (st) {
    EXPECT_EQ(st->state, net::LeonState::kRunning);
  }

  // Loading over the running program is refused — the node is busy.
  const auto prog = sasm::assemble_or_throw(store_and_finish(0xfeedface));
  EXPECT_FALSE(client.load_program(prog));

  // The sanctioned path: restart, reload AT THE SAME ADDRESSES, rerun.
  // The new bytes land behind the processor's back (backdoor load), so a
  // predecoded mirror surviving the restart would execute the old spinner.
  EXPECT_TRUE(client.restart());
  EXPECT_TRUE(client.run_program(prog));
  const auto words = client.read_memory(prog.symbol("result"), 1);
  EXPECT_TRUE(words.has_value());
  if (words) out.result = (*words)[0];
  out.cycles = node.cpu().stats().cycles;
  return out;
}

TEST(FastPathSystem, LoadOverRunningProgram) {
  const LoadOverRun fast = drive_load_over_running(true);
  const LoadOverRun slow = drive_load_over_running(false);
  EXPECT_EQ(fast.result, 0xfeedfaceu);
  EXPECT_EQ(slow.result, 0xfeedfaceu);
  EXPECT_EQ(fast.cycles, slow.cycles);
}

// --- Fig 8 sweep cycle identity --------------------------------------------

/// A scaled-down Fig 7 kernel: strided loads over a 4 KB array with the
/// hardware cycle counter running, result stored at `cycles:`.
std::string fig7_kernel(u32 bound) {
  return R"(
      .org 0x40000100
  _start:
      set 0x80000500, %g1
      mov 1, %g2
      st %g2, [%g1]
      set count, %o0
      mov 0, %o1
      set )" + std::to_string(bound) + R"(, %o2
  loop:
      and %o1, 1023, %o3
      sll %o3, 2, %o3
      ld [%o0 + %o3], %o4
      add %o1, 32, %o1
      cmp %o1, %o2
      bl loop
      nop
      st %g0, [%g1]
      ld [%g1 + 4], %o5
      set cycles, %g3
      st %o5, [%g3]
      jmp 0x40
      nop
      .align 4
  cycles:
      .skip 4
      .align 32
  count:
      .skip 4096
  )";
}

struct SweepPoint {
  u32 counted = 0;   // the hardware counter's reading
  u64 cpu_cycles = 0;
};

SweepPoint drive_sweep_point(bool fast, u32 dcache_bytes) {
  SweepPoint out;
  sim::SystemConfig cfg = config_for(fast);
  cfg.pipeline.dcache.size_bytes = dcache_bytes;
  sim::LiquidSystem node(cfg);
  node.run(300);
  ctrl::LiquidClient client(node);
  const auto img = sasm::assemble_or_throw(fig7_kernel(100000));
  EXPECT_TRUE(client.run_program(img));
  const auto words = client.read_memory(img.symbol("cycles"), 1);
  EXPECT_TRUE(words.has_value());
  if (words) out.counted = (*words)[0];
  out.cpu_cycles = node.cpu().stats().cycles;
  return out;
}

TEST(FastPathSystem, Fig8SweepCyclesIdentical) {
  for (const u32 dcache_bytes : {1024u, 4096u}) {
    const SweepPoint fast = drive_sweep_point(true, dcache_bytes);
    const SweepPoint slow = drive_sweep_point(false, dcache_bytes);
    EXPECT_NE(fast.counted, 0u) << dcache_bytes;
    EXPECT_EQ(fast.counted, slow.counted) << dcache_bytes;
    EXPECT_EQ(fast.cpu_cycles, slow.cpu_cycles) << dcache_bytes;
  }
}

// --- progs/ kernels: snapshot bytes and flight rings ----------------------

std::string slurp(const std::string& name) {
  std::ifstream in(std::string(LA_PROGS_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << name;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct KernelRun {
  Bytes snapshot;
  std::string flight;  // "" with the recorder off
  u64 cycles = 0;
};

/// Boot, LOAD + START + await one kernel over the control protocol, then
/// capture the whole node and (when armed) its flight ring.
KernelRun drive_kernel(const sasm::Image& img, bool fast, bool recorder) {
  sim::SystemConfig cfg = config_for(fast);
  cfg.flight_recorder = recorder;
  sim::LiquidSystem node(cfg);
  node.run(300);
  ctrl::LiquidClient client(node);
  EXPECT_TRUE(client.run_program(img, 50'000'000));
  EXPECT_EQ(node.controller().state(), net::LeonState::kDone);
  KernelRun out;
  out.snapshot = node.snapshot().serialize();
  out.flight = node.take_flight_dump("fastpath_check");
  out.cycles = node.cpu().stats().cycles;
  return out;
}

void check_image(const sasm::Image& img) {
  const KernelRun fast = drive_kernel(img, true, false);
  const KernelRun slow = drive_kernel(img, false, false);
  const KernelRun fast_rec = drive_kernel(img, true, true);
  const KernelRun slow_rec = drive_kernel(img, false, true);

  EXPECT_EQ(fast.cycles, slow.cycles);
  // The recorder is host-side too: all four nodes snapshot identically.
  EXPECT_TRUE(fast.snapshot == slow.snapshot);
  EXPECT_TRUE(fast_rec.snapshot == fast.snapshot);
  EXPECT_TRUE(slow_rec.snapshot == fast.snapshot);
  ASSERT_FALSE(fast_rec.flight.empty());
  EXPECT_EQ(fast_rec.flight, slow_rec.flight);
  EXPECT_NE(fast_rec.flight.find("\"kind\":\"retire\""), std::string::npos);
}

void check_kernel(const std::string& file, bool with_runtime) {
  SCOPED_TRACE(file);
  std::string src = slurp(file);
  if (with_runtime) src += sasm::rt::runtime_source();
  check_image(sasm::assemble_or_throw(src));
}

TEST(FastPathSystem, Crc32SnapshotAndFlightRingIdentical) {
  check_kernel("crc32.s", false);
}

TEST(FastPathSystem, QuicksortSnapshotAndFlightRingIdentical) {
  check_kernel("quicksort.s", true);
}

TEST(FastPathSystem, StreamSnapshotAndFlightRingIdentical) {
  check_kernel("stream.s", false);
}

// SDRAM behind the adapter, and a store every few instructions: the write
// buffer stalls.
TEST(FastPathSystem, MemtestSnapshotAndFlightRingIdentical) {
  check_kernel("memtest.s", false);
}

// Fig 7's smallest point: the stride misses the 1 KB D-cache on every
// load.
TEST(FastPathSystem, Fig7OneKbSnapshotAndFlightRingIdentical) {
  ASSERT_EQ(config_for(true).pipeline.dcache.size_bytes, 1024u);
  check_kernel("fig7.s", false);
}

// --- Every branch of the line tier's memory handlers ----------------------

/// A load/store edge-case walk, run in passes so the first meets a cold
/// D-cache and the rest hit, under a periodic timer interrupt armed by an
/// APB store and first awaited by a poll loop that runs wholly in the
/// line tier.  Each pass makes a misaligned ld and st, ldsb/ldsh of
/// negative values, a load into %g0, ldd/std and an odd-rd ldd, sub-word
/// stores, a timer read in the middle of an I-cache line (an APB access
/// ends the node's run window), and a load and a store with no AHB slave
/// behind them.  The five trapping ops go to `skip`, which counts them and
/// returns past them.
std::string memory_edges_program() {
  std::string prog = R"(
      .org 0x40000100
  _start:
      call rt_init
      nop
      set 300, %l2           ! outlast the START exchange, whose short
  settle:                    ! pumps end run windows anyway
      subcc %l2, 1, %l2
      bne settle
      nop
      set data, %l0
      set 0x80000200, %l5    ! APB timer
      set 0x20000000, %l4    ! no AHB slave here
      mov 0, %l7             ! checksum of what the loads saw
      mov 24, %l6            ! passes
      set 300, %l1
      st %l1, [%l5]          ! counter
      st %l1, [%l5 + 4]      ! reload
      mov 7, %l1             ! enable | auto-reload | irq-enable
      ba arm
      nop
      .align 32
  arm:                       ! (a line's first op takes its I-cache miss
      set ticks, %o0         ! off the line tier; the store is the third)
      st %l1, [%l5 + 8]      ! the first interrupt is due in 300 cycles
  wait:                      ! inline ops only until it lands: the store
      ld [%o0], %o1          ! above must end the run window, or the
      cmp %o1, 0             ! interrupt would wait for the next one
      be wait
      add %l7, 1, %l7        ! counts the polls
  pass:
      ld [%l0 + 2], %o1      ! misaligned: trap 0x07
      st %l7, [%l0 + 6]      ! misaligned: trap 0x07
      ldsb [%l0 + 8], %o2    ! 0x80 -> -128
      ldsh [%l0 + 10], %o3   ! 0x8001 -> -32767
      ldub [%l0 + 8], %o4
      lduh [%l0 + 10], %o5
      add %o2, %o3, %o2
      add %o4, %o5, %o4
      add %l7, %o2, %l7
      add %l7, %o4, %l7
      ld [%l0 + 12], %g0     ! %g0 stays zero
      add %l7, %g0, %l7
      ldd [%l0 + 16], %o2
      add %o2, %o3, %o2
      add %l7, %o2, %l7
      std %o2, [%l0 + 24]
      ldd [%l0 + 24], %o4
      add %l7, %o5, %l7
      ldd [%l0 + 16], %o3    ! odd rd: trap 0x02
      stb %l7, [%l0 + 33]
      sth %l7, [%l0 + 34]
      ldub [%l0 + 33], %o1
      lduh [%l0 + 34], %o2
      add %l7, %o1, %l7
      add %l7, %o2, %l7
      ba apb
      nop
      .align 32
  apb:
      add %l7, 1, %l7
      ld [%l5], %o4          ! timer counter, second op of its line
      add %l7, %o4, %l7
      st %l7, [%l4]          ! no slave: trap 0x09
      ld [%l4], %o1          ! no slave: trap 0x09
      subcc %l6, 1, %l6
      bne pass
      nop
      st %g0, [%l5 + 8]      ! stop the timer
      set sum, %o0
      st %l7, [%o0]
      jmp 0x40
      nop

  skip:                      ! count the trap, return past the op
      set traps, %l3
      ld [%l3], %l4
      add %l4, 1, %l4
      st %l4, [%l3]
      jmp %l2
      rett %l2 + 4

  tick:                      ! timer interrupt (level 8)
      set ticks, %l3
      ld [%l3], %l4
      add %l4, 1, %l4
      st %l4, [%l3]
      set 0x8000030c, %l3    ! irq controller: clear level 8
      set 0x100, %l4
      st %l4, [%l3]
      jmp %l1
      rett %l2

      .align 8
  data:
      .word 0x01020304, 0x05060708, 0x80ff8001, 0x11111111
      .word 0xfedcba98, 0x76543210, 0, 0
      .word 0, 0
  sum:
      .word 0
  traps:
      .word 0
  ticks:
      .word 0
  )";
  sasm::rt::RuntimeOptions opt;
  opt.custom_handlers[0x02] = "skip";
  opt.custom_handlers[0x07] = "skip";
  opt.custom_handlers[0x09] = "skip";
  opt.custom_handlers[0x18] = "tick";
  return prog + sasm::rt::runtime_source(opt);
}

TEST(FastPathSystem, MemoryEdgeCasesIdentical) {
  const auto img = sasm::assemble_or_throw(memory_edges_program());
  check_image(img);

  // The walk did what it says: five traps a pass, interrupts taken.
  sim::LiquidSystem node(config_for(true));
  node.run(300);
  ctrl::LiquidClient client(node);
  ASSERT_TRUE(client.run_program(img, 50'000'000));
  const auto words = client.read_memory(img.symbol("sum"), 3);
  ASSERT_TRUE(words.has_value());
  EXPECT_NE((*words)[0], 0u);
  EXPECT_EQ((*words)[1], 5u * 24u);
  EXPECT_GT((*words)[2], 1u);
}

}  // namespace
}  // namespace la::test
