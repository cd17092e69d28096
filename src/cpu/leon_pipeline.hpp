// LEON2-style timed processor model.
//
// This is the CPU the Liquid system actually runs: a single-issue in-order
// integer pipeline with LEON2 instruction latencies, configurable I/D
// caches, a write-through store path with a small write buffer, and all
// memory traffic routed over the AMBA AHB (so SDRAM handshakes, burst
// behaviour, and peripheral access costs all land in the cycle count the
// paper's hardware counter measures).
//
// The instruction semantics are the shared SPARC V8 core
// (cpu/sparc_core.hpp), the same code cpu::IntegerUnit runs; this class is
// its timed skin: the fetch path, the timed data hooks, the LEON FLUSH and
// ASI 2 cache control, and the cycle and instruction-mix accounting.
// tests/property/cpu_equivalence_test.cpp runs random programs through
// both models and requires identical architectural state, which holds the
// timed memory path, the line tier, and step/trap sequencing to the
// reference.  The line tier's inline ALU and load/store bodies
// (cpu/alu_ops.hpp) are held to the core by the fast-vs-slow equivalence
// grid, the pipe-run conformance leg and the full-node fast-path tests.
#pragma once

#include <vector>

#include "bus/ahb.hpp"
#include "cache/cache.hpp"
#include "common/types.hpp"
#include "cpu/config.hpp"
#include "cpu/integer_unit.hpp"  // StepResult
#include "cpu/state.hpp"
#include "mem/disconnect.hpp"
#include "mem/memory_map.hpp"

namespace la::cpu {

struct PipelineConfig {
  CpuConfig cpu;
  cache::CacheConfig icache{.size_bytes = 1024, .line_bytes = 32, .ways = 1};
  cache::CacheConfig dcache{.size_bytes = 1024, .line_bytes = 32, .ways = 1};
  bool icache_enabled = true;
  bool dcache_enabled = true;
  /// Write buffer entries for the write-through store path; 0 makes every
  /// store wait for its bus write synchronously.
  unsigned write_buffer_depth = 1;

  /// Host-performance switch (no effect on simulated cycles or state).
  /// On, the pipeline takes its fast paths: the predecoded I-cache mirror,
  /// the cache-hit fast paths, the direct SRAM path and the line tier, and
  /// LiquidSystem its window-driven run loop (docs/PERFORMANCE.md).  Off
  /// is the reference: isa::decode() on every fetch, every memory access
  /// over the full bus path, and plain per-step loops.  The conformance
  /// legs, the equivalence grids and the differential fuzzer run both
  /// settings against each other.
  bool host_fast_paths = true;
};

struct PipelineStats {
  u64 instructions = 0;
  u64 annulled = 0;
  u64 traps = 0;
  Cycles cycles = 0;
  Cycles icache_stall = 0;   // cycles waiting on instruction line fills
  Cycles dcache_stall = 0;   // cycles waiting on data fills / uncached data
  Cycles store_stall = 0;    // cycles waiting on the write buffer

  // Instruction mix (retired instructions only).
  u64 loads = 0;
  u64 stores = 0;
  u64 branches = 0;        // Bicc (+FB/CB) encountered
  u64 taken_branches = 0;  // control actually transferred
  u64 calls = 0;           // call + jmpl
  u64 muldiv = 0;
};

/// One window of LeonPipeline::run(): the step budget, an optional halt
/// PC, and the events that end the window early.  The budget and halt PC
/// are checked before each step, the early-stop events after it, so a
/// window steps at least once unless the core is in error mode, sits on
/// `halt_pc`, or has no budget.
struct RunWindow {
  u64 max_steps = 0;
  /// Stop before stepping the instruction at this PC.
  Addr halt_pc = 0xffffffff;
  /// Stop once the clock has reached this cycle.
  Cycles deadline = ~Cycles{0};
  /// Stop once this flag is set (null = never); an instruction's bus
  /// access may raise it mid-step.
  const bool* stop_flag = nullptr;
  /// Stop after stepping an instruction whose PC is below this.
  Addr pc_fence = 0;
};

/// Which addresses the caches may hold: the node's memory map
/// (mem::map::cacheable: the boot ROM and the two RAMs, never the APB
/// peripherals), or everything (bare rigs with no peripherals to protect).
/// Either rule is uniform within a cache line, since device ranges are
/// vastly larger than a line.  The fill path relies on this (a whole line
/// is filled by one access), and so do the hit probes: a resident line
/// implies its addresses are cacheable, so a hit needs no cacheability
/// test.
enum class Cacheable : u8 { kMemoryMap, kEverything };

class LeonPipeline {
 public:
  /// `clock` is the global cycle counter the pipeline advances; sharing it
  /// with the SDRAM adapter and peripherals keeps one timebase.  `sram`,
  /// when given, is the disconnect switch `bus` maps over exactly its
  /// SRAM's range: with the host fast paths on, stores and line fills
  /// inside that range take the direct SRAM path (docs/PERFORMANCE.md §3)
  /// while no AHB error pulse is pending.
  LeonPipeline(const PipelineConfig& cfg, bus::AhbBus& bus, Cycles* clock,
               Cacheable cacheable, mem::DisconnectSwitch* sram = nullptr);

  void reset(Addr entry);
  StepResult step();
  /// Step through one window (see RunWindow); returns the steps taken.
  /// Bit-identical to calling step() in a loop with the same checks.
  u64 run(const RunWindow& window);
  u64 run(u64 max_steps, Addr halt_pc = 0xffffffff);
  /// PC of the last instruction the most recent run() stepped (meaningful
  /// when that run took at least one step).
  Addr last_run_pc() const { return last_run_pc_; }

  CpuState& state() { return st_; }
  const CpuState& state() const { return st_; }

  cache::Cache& icache() { return icache_; }
  cache::Cache& dcache() { return dcache_; }
  const PipelineStats& stats() const { return stats_; }
  void reset_stats() { stats_ = PipelineStats{}; }

  void set_irq(u8 level) { irq_level_ = level; }

  /// Fault injection: a wedged CPU burns cycles without fetching or
  /// retiring anything (clock-gating glitch / livelock).  The wedge holds
  /// until cleared or the pipeline is reset; only an external watchdog can
  /// notice.
  void set_wedged(bool wedged) { wedged_ = wedged; }
  bool wedged() const { return wedged_; }

  /// Invalidate both caches (reconfiguration, leon_ctrl restart).
  void flush_caches();

  Cycles now() const { return *clock_; }

  /// LEON cache control register (ASI 2 at address 0).
  u32 cache_control() const;

  const PipelineConfig& config() const { return cfg_; }

  /// Snapshot support: full architectural state (all windows, PSR/WIM/Y,
  /// ASRs, error/wedge flags), the inter-step pipeline latches, both caches,
  /// and the stats.  load_state requires the same architectural
  /// configuration (window count, cache geometry) and invalidates every
  /// host-side fast-path memo; host knobs may differ freely between the
  /// capturing and restoring pipeline.
  void save_state(SnapWriter& w) const;
  bool load_state(SnapReader& r);

 private:
  friend struct SparcCore<LeonPipeline>;

  // --- timed memory paths ---------------------------------------------------
  /// Fetch the word at `pc`.  When the predecoded mirror has the decoded
  /// form, `predecoded` is pointed at it (valid until the next I-cache
  /// fill); otherwise it is left untouched (caller pre-nulls it).
  /// ifetch_hot() below handles the hit paths; this handles the rest.
  MemResult ifetch(Addr pc, u32& word, const isa::Instruction*& predecoded);

  /// Inline zero-stall fetch: ordinary I-cache hit, served from the
  /// predecoded mirror.  Returns false without touching anything
  /// observable when the fetch needs the full ifetch() path — fast paths
  /// off, uncacheable address, or a miss/poisoned line (lookup_hit touches
  /// nothing on those).  No cacheable_() call here: a hit means the line
  /// was filled, which required a cacheable address, and cacheability is
  /// line-uniform (see CacheableFn) — an uncacheable pc can never hit, so
  /// the probe itself is the cacheability check.
  ///
  /// The streak memo (last_iline_/last_islot_/last_igen_) skips even the
  /// tag probe while fetching within one line: it is valid exactly while
  /// the I-cache's content generation is unchanged (no fill, flush,
  /// invalidate, or poison since the memoized hit — see Cache::gen()),
  /// and touch_read_hit applies the identical LRU/stats update the full
  /// probe would have.  (The line tier keeps its own copy of the memo in
  /// locals and batches those updates; see run_lines.)
  inline bool ifetch_hot(Addr pc, u32& word,
                         const isa::Instruction*& predecoded);
  /// The line-change half of a mirror fetch: probe the I-cache for `pc`
  /// (lookup_hit's LRU/stats update on a hit, nothing otherwise),
  /// re-digest the slot's mirror when it is stale, and point the streak
  /// memo at it.  False on a miss or a poisoned line.  Forced inline: the
  /// line tier changes lines with no call.  (These two are defined in
  /// leon_pipeline.cpp, their only user.)
  [[gnu::always_inline]] inline bool enter_line(Addr pc);
  /// Timed data access (SparcCore hooks): .cycles are the stall cycles.
  MemResult data_read(Addr addr, unsigned size);
  MemResult data_write(Addr addr, unsigned size, u64 value);
  /// data_read() past its D-cache hit probe: an uncached access, a miss
  /// (fill, dirty victim) or a poisoned line.  The line tier calls it
  /// directly once its own inline probe and direct_read_miss() have
  /// declined.
  MemResult data_read_miss(Addr addr, unsigned size);
  /// data_read_miss()'s work for a D-cache read miss the direct SRAM path
  /// fills: the D-cache write-through (no victim to write back) and the
  /// line cacheable and direct_line().  Allocates and fills the line,
  /// adds `stall` to dcache_stall and returns the line; any other miss
  /// returns null, touching nothing.  It reads no clock and reaches no
  /// APB device, so the line tier calls it with its locals unsynced.
  u8* direct_read_miss(Addr addr, Cycles& stall);
  /// Timed burst write of a full line's bytes (dirty victim eviction).
  Cycles writeback_line(Addr addr, const u8* bytes);
  /// A line fill, over the direct SRAM path when direct_line() allows it,
  /// else as one bus burst.
  Cycles fill_line(bus::Master m, Addr line_addr, u32 line_bytes, u8* line,
                   bool& error);
  /// The direct SRAM path's line fill (direct_line() holds): the bytes,
  /// the blocked counters with the switch open, and the bus statistics;
  /// returns its cycles, the address phase included.
  Cycles direct_fill(bus::Master m, Addr line_addr, u32 line_bytes,
                     u8* line);
  /// A store's write on the bus, or on the direct SRAM path.
  Cycles store_bus(Addr addr, unsigned size, u64 value, bool& error);
  /// Decode an I-cache line's bytes into the mirror slot.
  void predecode_line(u32 slot, Addr line_addr, const u8* line);

  bool cacheable(Addr a) const {
    return cache_all_ || mem::map::cacheable(a);
  }
  /// The direct SRAM path serves the `len` bytes at `addr`: it exists
  /// (fast paths on, a switch given), the bytes lie inside the SRAM, and
  /// no injected error pulse waits for the next bus transfer.
  bool direct_sram(Addr addr, u32 len) const {
    return dsram_ != nullptr &&
           u64{addr - dsram_base_} + len <= dsram_size_ &&
           bus_.pending_error_pulses() == 0;
  }
  /// The direct SRAM path fills the line at `line_addr`: direct_sram(),
  /// and no parity-damaged word in it with the switch closed (the bus
  /// answers ERROR for one).
  bool direct_line(Addr line_addr, u32 line_bytes) const {
    return direct_sram(line_addr, line_bytes) &&
           dsram_->direct_fill_ok(line_addr, line_bytes);
  }

  // --- architectural execution ----------------------------------------------
  /// Shared step body; kCopyIns=false skips the `res.ins` copy (run loops
  /// with no consumer of the decoded form).
  template <bool kCopyIns>
  void step_impl(StepResult& res);
  /// The post-fetch half of a step: annulment, or execute + trap entry +
  /// retire, then the cycle charge.  Forced inline, so the line tier's
  /// execute path makes one call: the shared core's execute().
  template <bool kCopyIns>
  [[gnu::always_inline]] inline void finish_step(const isa::Instruction& ins,
                                                 Cycles fetch_stall,
                                                 StepResult& res);
  /// A step that ends in trap `tt` (the epilogue of every trapping step,
  /// the line tier's failed memory accesses included): trap entry, then
  /// the trap latency plus `stall` on the clock.
  template <bool kCopyIns>
  void trap_step(u8 tt, Cycles stall, StepResult& res);
  /// run() with the fast paths on: the line tier (see
  /// docs/PERFORMANCE.md; needs computed goto).  run_steps() is the
  /// per-step reference loop.
  u64 run_lines(const RunWindow& w);
  u64 run_steps(const RunWindow& w);
  /// An external interrupt is deliverable before the next instruction.
  bool irq_pending() const {
    return st_.psr.et && irq_level_ != 0 &&
           (irq_level_ == 15 || irq_level_ > st_.psr.pil);
  }

  // The other SparcCore hooks.
  const CpuConfig& cpu_cfg() const { return cfg_.cpu; }
  /// LEON FLUSH: invalidate the I- and D-cache lines holding `addr`,
  /// writing a dirty D-line back.
  void flush_line(Addr addr, StepResult& res);
  /// LEON ASI 2 at address 0, the cache control register: lda reads it,
  /// sta's FI/FD bits flush the caches.  False for any other access.
  bool asi_access(const isa::Instruction& ins, Addr ea, StepResult& res);
  void on_trap(u8) { ++stats_.traps; }
  void on_retire(Mix kind);

  PipelineConfig cfg_;
  bus::AhbBus& bus_;
  Cycles* clock_;
  bool cache_all_;  // Cacheable::kEverything
  /// The direct SRAM path's switch and range (null: no direct path).
  mem::DisconnectSwitch* dsram_;
  Addr dsram_base_ = 0;
  u32 dsram_size_ = 0;

  cache::Cache icache_;
  cache::Cache dcache_;
  CpuState st_;
  PipelineStats stats_;

  // --- host fast-path state (never affects simulated time/state) ------------
  /// Per-I-cache-slot mirror of the resident line's decoded instructions,
  /// (re)built whenever a line is filled, and on the first hit of a line
  /// whose mirror is stale (restored from a snapshot).
  /// `imirror_addr_[slot]` is the line address the mirror content belongs
  /// to (kNoMirrorLine = none); a fast-path fetch uses it only when the
  /// slot's resident line address matches, so replacement/flush/reload
  /// invalidation is implicit: any event that changes the bytes a fetch
  /// can hit goes through a fill, and the fill refreshes the mirror.
  static constexpr Addr kNoMirrorLine = ~Addr{0};
  std::vector<Addr> imirror_addr_;
  std::vector<isa::Instruction> imirror_ins_;  // num_lines * words_per_line
  /// Line-tier token of each mirrored word (parallel to imirror_ins_): an
  /// inline ALU or memory op with its operands predigested, an inline
  /// Bicc, or "execute" (everything else runs execute() on the mirrored
  /// decode).
  struct LineOp {
    u8 kind = 0;  // dispatch token, see leon_pipeline.cpp
    u8 a = 0;     // ALU/memory: rs1 | Bicc: cond
    u8 b = 0;     // ALU/memory register form: rs2 | Bicc: annul bit
    u8 d = 0;     // ALU/memory: rd
    u32 imm = 0;  // simm13 | sethi imm22 << 10 | Bicc disp22 << 2
  };
  std::vector<LineOp> imirror_ops_;
  /// Fetch-streak memo: the line/slot of the last mirror-served hit and
  /// the I-cache generation it was observed at (see ifetch_hot).
  /// kNoMirrorLine can never be a real line base (pc is word-aligned and
  /// lines are >= 8 bytes), so no separate valid flag is needed.
  Addr last_iline_ = kNoMirrorLine;
  u32 last_islot_ = 0;
  u64 last_igen_ = 0;
  /// Mirror base of the memoized slot (imirror_ins_ never reallocates
  /// after construction, so the pointer stays valid for the object's
  /// lifetime; the gen check governs whether its *contents* are current).
  const isa::Instruction* last_imirror_ = nullptr;
  const LineOp* last_iops_ = nullptr;  // same slot's line-tier tokens
  /// Line-tier register maps: rp_[r]/wp_[r] point into the register
  /// file's backing store for window regmap_cwp_, %g0 redirected to a
  /// constant-zero source and a write sink.  Kept across run() calls;
  /// sync_regmap() rebuilds them when CWP moved or the storage was
  /// replaced (reset, load_state).
  void sync_regmap() {
    if (st_.psr.cwp != regmap_cwp_ || st_.regs.data() != regmap_base_) {
      rebuild_regmap();
    }
  }
  void rebuild_regmap();
  u32* rp_[32] = {};
  u32* wp_[32] = {};
  unsigned regmap_cwp_ = 0;
  const u32* regmap_base_ = nullptr;
  u32 zero_src_ = 0;
  u32 g0_sink_ = 0;
  u32 iline_mask_ = 0;    // icache line_bytes - 1
  u32 iline_words_ = 0;   // icache line_bytes / 4
  u32 iline_words_shift_ = 0;  // log2(iline_words_): mirror slot stride
  u32 dline_mask_ = 0;    // dcache line_bytes - 1
  bool fast_ = false;     // cfg_.host_fast_paths (hoisted)
  bool hot_ifetch_ = false;  // fast_ && icache_enabled (hoisted)
  /// A direct SRAM path and an enabled write-through D-cache (hoisted):
  /// direct_read_miss() may serve a read miss.
  bool direct_dmiss_ = false;

  bool annul_next_ = false;
  bool wedged_ = false;
  u8 irq_level_ = 0;
  bool cti_taken_ = false;
  Addr cti_target_ = 0;
  Cycles wb_free_at_ = 0;  // when the write buffer can accept a new store
  Addr last_run_pc_ = 0;   // see last_run_pc()
};

}  // namespace la::cpu
