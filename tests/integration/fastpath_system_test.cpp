// Full-node fast-path equivalence: the window-driven run loop, the line
// tier, and the CPU fast paths must be unobservable through the control
// protocol — identical cycle counts on the Fig 8 cache sweep, identical
// cycles, snapshot bytes and flight-recorder rings after the progs/
// kernels, after a program built to walk every branch of the line tier's
// load/store handlers, and after the runs that must keep the direct SRAM
// path off or exact (an injected AHB error pulse, a parity-damaged line,
// the disconnect switch open, the post-return poll in a 2-way random and
// a write-back D-cache, SDRAM byte lanes), and a program LOADed
// over a previously running one (restart → reload at the same addresses)
// must execute the new bytes, not a stale predecoded mirror.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
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

/// How a check drives its program once the node has booted: by default
/// LOAD + START + await over the control protocol.
using Drive = std::function<void(sim::LiquidSystem&, ctrl::LiquidClient&,
                                 const sasm::Image&)>;

void run_to_done(sim::LiquidSystem& node, ctrl::LiquidClient& client,
                 const sasm::Image& img) {
  EXPECT_TRUE(client.run_program(img, 50'000'000));
  EXPECT_EQ(node.controller().state(), net::LeonState::kDone);
}

/// Boot, drive one program, then capture the whole node and (when armed)
/// its flight ring.
KernelRun drive_kernel(const sasm::Image& img, bool fast, bool recorder,
                       const Drive& drive = run_to_done,
                       sim::SystemConfig cfg = {}) {
  cfg.pipeline.host_fast_paths = fast;
  cfg.flight_recorder = recorder;
  sim::LiquidSystem node(cfg);
  node.run(300);
  ctrl::LiquidClient client(node);
  drive(node, client, img);
  KernelRun out;
  out.snapshot = node.snapshot().serialize();
  out.flight = node.take_flight_dump("fastpath_check");
  out.cycles = node.cpu().stats().cycles;
  return out;
}

/// Fast vs slow, recorder off and on: all four nodes snapshot identically.
void check_image(const sasm::Image& img, const Drive& drive = run_to_done,
                 const sim::SystemConfig& cfg = {}) {
  const KernelRun fast = drive_kernel(img, true, false, drive, cfg);
  const KernelRun slow = drive_kernel(img, false, false, drive, cfg);
  const KernelRun fast_rec = drive_kernel(img, true, true, drive, cfg);
  const KernelRun slow_rec = drive_kernel(img, false, true, drive, cfg);

  EXPECT_EQ(fast.cycles, slow.cycles);
  EXPECT_EQ(fast_rec.cycles, fast.cycles);
  EXPECT_TRUE(fast.snapshot == slow.snapshot);
  EXPECT_TRUE(fast_rec.snapshot == slow_rec.snapshot);
  // The recorder is host-side too.
  EXPECT_TRUE(fast_rec.snapshot == fast.snapshot);
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

// --- The direct SRAM path's exits -----------------------------------------
// With the fast paths on, CPU stores and line fills inside the SRAM skip
// the bus.  Each program below reaches a case that path must hand back to
// the full bus path (a pending AHB error pulse, a parity-damaged word), or
// must reproduce exactly (the disconnect switch open, SDRAM beside it).
// Snapshot bytes cover the SRAM pages, its parity set, the switch's
// blocked counters, the AHB counters and the SDRAM sections.

/// A data_access handler that counts its traps at `traps:` and returns
/// past the faulting op, appended with the runtime.
std::string with_skip_handler(std::string prog) {
  sasm::rt::RuntimeOptions opt;
  opt.custom_handlers[0x09] = "skip";
  prog += R"(
  skip:
      set traps, %l3
      ld [%l3], %l4
      add %l4, 1, %l4
      st %l4, [%l3]
      jmp %l2
      rett %l2 + 4
  )";
  return prog + sasm::rt::runtime_source(opt);
}

/// Loops whose only bus traffic, once their code is in the I-cache, is
/// word stores into the SRAM (`fills` false) or D-cache line fills from it
/// (`fills` true: a 32-byte stride over 4 KB misses the 1 KB D-cache on
/// every load).
std::string bus_loop_program(bool fills) {
  const std::string op = fills ? "ld [%l0 + %l1], %o1\n      add %l7, %o1, %l7"
                               : "st %l7, [%l0 + %l1]\n      add %l7, 3, %l7";
  return with_skip_handler(R"(
      .org 0x40000100
  _start:
      call rt_init
      nop
      set data, %l0
      mov 0, %l1
      mov 0, %l7
      set 6000, %l6
  loop:
      )" + op + R"(
      add %l1, 32, %l1
      and %l1, 4095, %l1
      subcc %l6, 1, %l6
      bne loop
      nop
      set sum, %o0
      st %l7, [%o0]
      jmp 0x40
      nop
      .align 4
  sum:
      .word 0
  traps:
      .word 0
      .align 32
  data:
      .skip 4096
  )");
}

/// LOAD + START, let the loop run, arm one AHB error pulse for the next
/// bus transfer, and await completion.
void pulse_mid_loop(sim::LiquidSystem& node, ctrl::LiquidClient& client,
                    const sasm::Image& img) {
  ASSERT_TRUE(client.load_program(img));
  ASSERT_TRUE(client.start(img.entry));
  node.run(5000);
  ASSERT_EQ(node.controller().state(), net::LeonState::kRunning);
  node.ahb().inject_error_pulse(1);
  EXPECT_TRUE(client.await_done(50'000'000));
  EXPECT_EQ(node.ahb().pending_error_pulses(), 0u);
}

void check_pulse(bool fills) {
  const auto img = sasm::assemble_or_throw(bus_loop_program(fills));
  check_image(img, pulse_mid_loop);

  // The pulse failed the access it met: one data_access trap.
  sim::LiquidSystem node(config_for(true));
  node.run(300);
  ctrl::LiquidClient client(node);
  pulse_mid_loop(node, client, img);
  const auto words = client.read_memory(img.symbol("traps"), 1);
  ASSERT_TRUE(words.has_value());
  EXPECT_EQ((*words)[0], 1u);
  EXPECT_EQ(node.ahb().stats().injected_errors, 1u);
}

TEST(FastPathSystem, ErrorPulseBeforeStoreIdentical) { check_pulse(false); }

TEST(FastPathSystem, ErrorPulseBeforeFillIdentical) { check_pulse(true); }

// A word with bad parity in a line the program then loads: the fill
// answers ERROR (data_access) until a store to the word scrubs it.
TEST(FastPathSystem, ParityDamagedLineIdentical) {
  const auto img = sasm::assemble_or_throw(with_skip_handler(R"(
      .org 0x40000100
  _start:
      call rt_init
      nop
      set data, %l0
      ld [%l0], %o1          ! the line holds the damaged word: trap
      ld [%l0 + 12], %o2     ! still damaged: trap
      st %g0, [%l0 + 16]     ! a store beside it does not scrub it
      ld [%l0 + 8], %o3      ! trap
      mov 5, %o4
      st %o4, [%l0 + 4]      ! scrubs the damaged word
      ld [%l0], %o1          ! now fills
      ld [%l0 + 4], %o2
      add %o1, %o2, %o1
      set sum, %o0
      st %o1, [%o0]
      jmp 0x40
      nop
      .align 4
  sum:
      .word 0
  traps:
      .word 0
      .align 32
  data:
      .word 7, 1, 2, 3, 4, 5, 6, 8
  )"));
  const Drive damaged = [](sim::LiquidSystem& node,
                           ctrl::LiquidClient& client,
                           const sasm::Image& im) {
    ASSERT_TRUE(client.load_program(im));
    ASSERT_TRUE(node.sram().corrupt_word(im.symbol("data") + 4, 0x10));
    ASSERT_TRUE(client.start(im.entry));
    EXPECT_TRUE(client.await_done(50'000'000));
  };
  check_image(img, damaged);

  sim::LiquidSystem node(config_for(true));
  node.run(300);
  ctrl::LiquidClient client(node);
  damaged(node, client, img);
  const auto words = client.read_memory(img.symbol("sum"), 2);
  ASSERT_TRUE(words.has_value());
  EXPECT_EQ((*words)[0], 12u);
  EXPECT_EQ((*words)[1], 3u);
  EXPECT_EQ(node.sram().stats().parity_errors, 3u);
}

// The disconnect switch open under a running program: a spinner that
// stores and misses trips the watchdog, so leon_ctrl unplugs the
// processor while the spinner keeps running: its stores are dropped and
// its fills read zeros, through a LOAD that the node refuses until a
// RESTART.  Then the RESTART, a LOAD of the new program while the boot
// ROM polls the mailbox through the open switch, the run, and the
// post-return poll, which reads the mailbox through the open switch too.
TEST(FastPathSystem, SwitchOpenStoresAndFillsIdentical) {
  const auto spinner = sasm::assemble_or_throw(R"(
      .org 0x40000100
  _start:
      set data, %l0
      mov 0, %l1
  spin:
      st %l1, [%l0 + %l1]
      ld [%l0 + %l1], %o1
      add %l7, %o1, %l7
      add %l1, 32, %l1
      and %l1, 4095, %l1
      ba spin
      nop
      .align 32
  data:
      .skip 4096
  )");
  const Drive unplugged = [&spinner](sim::LiquidSystem& node,
                                     ctrl::LiquidClient& client,
                                     const sasm::Image& im) {
    ASSERT_TRUE(client.load_program(spinner));
    ASSERT_TRUE(client.start(spinner.entry));
    node.run(60'000);  // past the watchdog budget
    ASSERT_EQ(node.controller().state(), net::LeonState::kError);
    ASSERT_FALSE(node.disconnect().connected());
    EXPECT_FALSE(client.load_program(im));  // refused: RESTART first
    ASSERT_TRUE(client.restart());
    EXPECT_TRUE(client.run_program(im, 50'000'000));
    node.run(20'000);  // the post-return poll, switch open
    EXPECT_EQ(node.controller().state(), net::LeonState::kDone);
  };
  sim::SystemConfig cfg;
  cfg.watchdog_budget = 30'000;
  const auto img = sasm::assemble_or_throw(store_and_finish(0xc0ffee));
  check_image(img, unplugged, cfg);

  cfg.pipeline.host_fast_paths = true;
  sim::LiquidSystem node(cfg);
  node.run(300);
  ctrl::LiquidClient client(node);
  unplugged(node, client, img);
  EXPECT_GT(node.disconnect().stats().blocked_writes, 100u);
  EXPECT_GT(node.disconnect().stats().blocked_reads, 100u);
  const auto words = client.read_memory(img.symbol("result"), 1);
  ASSERT_TRUE(words.has_value());
  EXPECT_EQ((*words)[0], 0xc0ffeeu);
}

// The post-return ROM poll, a flush of the mailbox line and a load that
// misses and reads zeros through the open switch, kept running after the
// program returns: in a 2-way random-replacement D-cache (the fill picks
// its victim from the cache's generator) and in a write-back one (the
// flush of a clean line stays inline).
TEST(FastPathSystem, PostReturnPollIdentical) {
  const Drive poll = [](sim::LiquidSystem& node, ctrl::LiquidClient& client,
                        const sasm::Image& im) {
    EXPECT_TRUE(client.run_program(im, 50'000'000));
    node.run(20'000);
    EXPECT_EQ(node.controller().state(), net::LeonState::kDone);
    EXPECT_FALSE(node.disconnect().connected());
  };
  const auto img = sasm::assemble_or_throw(store_and_finish(0xabcd));
  sim::SystemConfig cfg;
  cfg.pipeline.dcache.ways = 2;
  cfg.pipeline.dcache.replacement = cache::Replacement::kRandom;
  check_image(img, poll, cfg);
  cfg.pipeline.dcache = {};
  cfg.pipeline.dcache.write_policy = cache::WritePolicy::kWriteBackAllocate;
  check_image(img, poll, cfg);
}

// SDRAM keeps the bus path (its adapter is stateful): stb into every byte
// lane of a 64-bit word, sth into every halfword lane, st, std and ldd,
// each read back.
TEST(FastPathSystem, SdramLanesIdentical) {
  const auto img = sasm::assemble_or_throw(R"(
      .org 0x40000100
  _start:
      set 0x60001000, %l0
      mov 0x11, %o0
      mov 0, %l1
  bytes:                     ! stb 0x11..0x88 into lanes 0..7
      stb %o0, [%l0 + %l1]
      add %o0, 0x11, %o0
      add %l1, 1, %l1
      cmp %l1, 8
      bl bytes
      nop
      ldd [%l0], %o2         ! 0x11223344 0x55667788
      set 0x0102, %o0
      sth %o0, [%l0 + 8]
      add %o0, 0x202, %o0
      sth %o0, [%l0 + 10]
      add %o0, 0x202, %o0
      sth %o0, [%l0 + 12]
      add %o0, 0x202, %o0
      sth %o0, [%l0 + 14]
      ldd [%l0 + 8], %o4     ! 0x01020304 0x05060708
      std %o2, [%l0 + 16]
      st %o5, [%l0 + 28]
      ldub [%l0 + 3], %g1
      lduh [%l0 + 6], %g2
      ld [%l0 + 20], %g3
      ld [%l0 + 28], %g4
      set sum, %l2
      std %o2, [%l2]
      std %o4, [%l2 + 8]
      st %g1, [%l2 + 16]
      st %g2, [%l2 + 20]
      st %g3, [%l2 + 24]
      st %g4, [%l2 + 28]
      jmp 0x40
      nop
      .align 8
  sum:
      .skip 32
  )");
  check_image(img);

  sim::LiquidSystem node(config_for(true));
  node.run(300);
  ctrl::LiquidClient client(node);
  ASSERT_TRUE(client.run_program(img, 50'000'000));
  const auto words = client.read_memory(img.symbol("sum"), 8);
  ASSERT_TRUE(words.has_value());
  EXPECT_EQ(*words, (std::vector<u32>{0x11223344, 0x55667788, 0x01020304,
                                      0x05060708, 0x44, 0x7788, 0x55667788,
                                      0x05060708}));
}

}  // namespace
}  // namespace la::test
