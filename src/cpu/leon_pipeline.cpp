#include "cpu/leon_pipeline.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <vector>

#include "cpu/alu_ops.hpp"
#include "cpu/sparc_core.hpp"
#include "isa/decode.hpp"
#include "isa/traps.hpp"

namespace la::cpu {

using isa::Cond;
using isa::Instruction;
using isa::Mnemonic;
using isa::Trap;

using Core = SparcCore<LeonPipeline>;

namespace {
// Line-tier dispatch tokens: the register forms of the inline ops (the
// ALU ops, then the loads and stores, in list order: the order run_lines()
// builds its label tables in, then flush), then the two structural tokens,
// then the immediate-form twins at kOpImmBase.
enum : u8 {
#define LA_LT_TOKEN(name, mn, ...) kOp_##name,
  LA_ALU_OPS(LA_LT_TOKEN)
  LA_MEM_OPS(LA_LT_TOKEN)
#undef LA_LT_TOKEN
  kOp_flush,
  kOpExecute,
  kOpBicc,
  kOpImmBase,
  kOpKinds = kOpImmBase + kOpExecute,
};

/// The register-form token of `mn`'s inline op, or kOpExecute.
u8 line_token(Mnemonic mn) {
  switch (mn) {
#define LA_LT_CASE(name, mn, ...) \
  case Mnemonic::mn:              \
    return kOp_##name;
    LA_ALU_OPS(LA_LT_CASE)
    LA_MEM_OPS(LA_LT_CASE)
#undef LA_LT_CASE
    case Mnemonic::kFlush:
      return kOp_flush;
    default:
      return kOpExecute;
  }
}

}  // namespace

LeonPipeline::LeonPipeline(const PipelineConfig& cfg, bus::AhbBus& bus,
                           Cycles* clock, Cacheable cacheable,
                           mem::DisconnectSwitch* sram)
    : cfg_(cfg),
      bus_(bus),
      clock_(clock),
      cache_all_(cacheable == Cacheable::kEverything),
      dsram_(cfg.host_fast_paths ? sram : nullptr),
      icache_(cfg.icache, /*seed=*/1),
      dcache_(cfg.dcache, /*seed=*/2),
      st_(cfg.cpu),
      imirror_addr_(cfg.icache.num_lines(), kNoMirrorLine),
      imirror_ins_(static_cast<std::size_t>(cfg.icache.num_lines()) *
                   cfg.icache.words_per_line()),
      imirror_ops_(imirror_ins_.size()),
      iline_mask_(cfg.icache.line_bytes - 1),
      iline_words_(cfg.icache.words_per_line()),
      iline_words_shift_(
          static_cast<u32>(std::countr_zero(cfg.icache.words_per_line()))),
      dline_mask_(cfg.dcache.line_bytes - 1),
      fast_(cfg.host_fast_paths),
      hot_ifetch_(cfg.host_fast_paths && cfg.icache_enabled),
      direct_dmiss_(dsram_ != nullptr && cfg.dcache_enabled &&
                    cfg.dcache.write_policy ==
                        cache::WritePolicy::kWriteThroughNoAllocate) {
  assert(cfg.cpu.valid() && cfg.icache.valid() && cfg.dcache.valid());
  assert(clock != nullptr);
  if (dsram_ != nullptr) {
    dsram_base_ = dsram_->user_port().base();
    dsram_size_ = dsram_->user_port().size();
  }
  // Doubleword accesses must never straddle a line.
  assert(cfg.icache.line_bytes >= 8 && cfg.dcache.line_bytes >= 8);
}

void LeonPipeline::reset(Addr entry) {
  st_ = CpuState(cfg_.cpu);
  st_.pc = entry;
  st_.npc = entry + 4;
  st_.psr.s = true;
  st_.psr.et = false;
  annul_next_ = false;
  wedged_ = false;
  irq_level_ = 0;
  wb_free_at_ = 0;
  flush_caches();
}

void LeonPipeline::flush_caches() {
  icache_.flush();
  // The mirror self-invalidates via the line-address check (nothing can
  // hit a flushed line without a refill, and the refill refreshes the
  // mirror); clearing it here is belt-and-braces hygiene off the hot path.
  std::fill(imirror_addr_.begin(), imirror_addr_.end(), kNoMirrorLine);
  // LEON's caches are write-through: dirty data cannot exist, so a plain
  // invalidate is a correct flush for the default policy.  For the
  // write-back extension the victims are pushed out over the bus.
  std::vector<cache::DirtyLine> dirty;
  dcache_.flush(&dirty);
  for (const cache::DirtyLine& d : dirty) {
    *clock_ += writeback_line(d.addr, d.data.data());
  }
}

Cycles LeonPipeline::writeback_line(Addr addr, const u8* bytes) {
  bool error = false;  // memory writeback errors are ignored, as before
  return bus_.write_line(bus::Master::kCpuData, addr, cfg_.dcache.line_bytes,
                         bytes, error);
}

u32 LeonPipeline::cache_control() const {
  u32 ccr = 0;
  if (cfg_.icache_enabled) ccr |= 0x3;        // ICS = enabled
  if (cfg_.dcache_enabled) ccr |= 0x3 << 2;   // DCS = enabled
  return ccr;
}

// ---------------------------------------------------------------------------
// Timed memory paths
// ---------------------------------------------------------------------------

void LeonPipeline::predecode_line(u32 slot, Addr line_addr, const u8* line) {
  imirror_addr_[slot] = line_addr;
  const std::size_t base = static_cast<std::size_t>(slot) * iline_words_;
  for (u32 w = 0; w < iline_words_; ++w) {
    const u32 word = static_cast<u32>(read_be(line + w * 4, 4));
    const isa::Instruction ins = isa::decode(word);
    imirror_ins_[base + w] = ins;
    // The line-tier token: the inline ALU and memory ops (immediate forms
    // resolved into their twin token, sethi's constant pre-shifted), Bicc
    // with cond/annul/displacement folded in, execute() for the rest.
    LineOp& o = imirror_ops_[base + w];
    o = LineOp{};
    if (ins.mn == Mnemonic::kBicc) {
      o.kind = kOpBicc;
      o.a = static_cast<u8>(ins.cond);
      o.b = ins.annul ? 1 : 0;
      o.imm = static_cast<u32>(ins.disp) << 2;
      continue;
    }
    o.kind = line_token(ins.mn);
    // An odd-rd ldd/std raises illegal_instruction: execute()'s business.
    if (o.kind == kOpExecute ||
        ((o.kind == kOp_ldd || o.kind == kOp_std) && (ins.rd & 1u))) {
      o.kind = kOpExecute;
      continue;
    }
    o.a = ins.rs1;
    o.b = ins.rs2;
    o.d = ins.rd;
    if (o.kind == kOp_sethi) {
      o.kind = static_cast<u8>(kOpImmBase + o.kind);
      o.imm = ins.imm22 << 10;
    } else if (ins.imm) {
      o.kind = static_cast<u8>(kOpImmBase + o.kind);
      o.imm = static_cast<u32>(ins.simm13);
    }
  }
}

void LeonPipeline::rebuild_regmap() {
  regmap_cwp_ = st_.psr.cwp;
  u32* base = st_.regs.data();
  regmap_base_ = base;
  rp_[0] = &zero_src_;
  wp_[0] = &g0_sink_;
  for (unsigned r = 1; r < 32; ++r) {
    u32* p = base + st_.regs.slot(regmap_cwp_, static_cast<u8>(r));
    rp_[r] = p;
    wp_[r] = p;
  }
}

inline bool LeonPipeline::enter_line(Addr pc) {
  const cache::HitRef h = icache_.lookup_hit(pc);
  if (h.data == nullptr) return false;
  const Addr line = pc & ~static_cast<Addr>(iline_mask_);
  // A stale slot (a line restored from a snapshot, whose mirror load_state
  // dropped) is re-digested from the resident bytes — exactly what its
  // fill decoded, since nothing writes instruction-side lines in place.
  if (imirror_addr_[h.slot] != line) predecode_line(h.slot, line, h.data);
  last_iline_ = line;
  last_islot_ = h.slot;
  last_igen_ = icache_.gen();
  const std::size_t base = static_cast<std::size_t>(h.slot)
                           << iline_words_shift_;
  last_imirror_ = &imirror_ins_[base];
  last_iops_ = &imirror_ops_[base];
  return true;
}

inline bool LeonPipeline::ifetch_hot(Addr pc, u32& word,
                                     const isa::Instruction*& predecoded) {
  if (!hot_ifetch_) return false;
  const Addr line = pc & ~static_cast<Addr>(iline_mask_);
  if (line == last_iline_ && icache_.gen() == last_igen_) [[likely]] {
    icache_.touch_read_hit(last_islot_);
  } else if (!enter_line(pc)) {
    return false;
  }
  predecoded = last_imirror_ + ((pc & iline_mask_) >> 2);
  word = predecoded->raw;
  return true;
}

MemResult LeonPipeline::ifetch(
    Addr pc, u32& word, const isa::Instruction*& /*predecoded*/) {
  // The predecoded pointer is never set here: a fill refreshes the mirror
  // and the *next* fetch of this pc hits ifetch_hot's mirror path, which
  // keeps this (cold) function free of the mirror-indexing arithmetic.
  MemResult r;
  const bool cached = cfg_.icache_enabled && cacheable(pc);
  if (!cached) {
    u32 v = 0;
    bus::AhbTransfer t;
    t.addr = pc;
    t.data = &v;
    r.cycles = bus_.transfer(bus::Master::kCpuInstr, t);
    r.ok = !t.error;
    word = v;
    return r;
  }
  // The hit paths (ordinary hit + fresh/stale mirror) live in ifetch_hot();
  // callers try that first, so by the time we are here the probe already
  // missed (and touched nothing) or the fast paths are off.
  const auto out = icache_.access(pc, /*is_write=*/false);
  if (!out.hit) {
    bool error = false;
    r.cycles = fill_line(bus::Master::kCpuInstr, out.line_addr,
                         cfg_.icache.line_bytes, out.data, error);
    stats_.icache_stall += r.cycles;
    if (error) {
      icache_.invalidate_line(pc);
      imirror_addr_[out.slot] = kNoMirrorLine;
      r.ok = false;
      return r;
    }
    if (fast_) predecode_line(out.slot, out.line_addr, out.data);
    word = static_cast<u32>(read_be(out.data + (pc - out.line_addr), 4));
    return r;
  }
  word = static_cast<u32>(read_be(out.data + (pc - out.line_addr), 4));
  return r;
}

Cycles LeonPipeline::fill_line(bus::Master m, Addr line_addr, u32 line_bytes,
                               u8* line, bool& error) {
  if (direct_line(line_addr, line_bytes)) {
    return direct_fill(m, line_addr, line_bytes, line);
  }
  return bus_.fill_line(m, line_addr, line_bytes, line, error);
}

Cycles LeonPipeline::direct_fill(bus::Master m, Addr line_addr,
                                 u32 line_bytes, u8* line) {
  const Cycles c = 1 + dsram_->direct_fill(line_addr, line_bytes, line);
  bus_.count_transfer(m, line_bytes / 4, c);
  return c;
}

MemResult LeonPipeline::data_read(Addr addr, unsigned size) {
  if (fast_ && cfg_.dcache_enabled) {
    // Hot path: ordinary read hit (LRU/stats updated inside, identically
    // to access()'s hit path).  Only a cacheable address can be resident,
    // so the hit needs no cacheability test.
    const cache::HitRef h = dcache_.lookup_hit(addr);
    if (h.data != nullptr) {
      MemResult r;
      r.value = read_be(h.data + (addr & dline_mask_), size);
      return r;
    }
  }
  return data_read_miss(addr, size);
}

MemResult LeonPipeline::data_read_miss(Addr addr, unsigned size) {
  MemResult r;
  const bool cached = cfg_.dcache_enabled && cacheable(addr);
  if (!cached) {
    if (size == 8) {
      u32 buf[2] = {};
      bus::AhbTransfer t;
      t.addr = addr;
      t.beats = 2;
      t.burst = bus::HBurst::kIncr;
      t.data = buf;
      r.cycles = bus_.transfer(bus::Master::kCpuData, t);
      r.ok = !t.error;
      r.value = (u64{buf[0]} << 32) | buf[1];
    } else {
      u32 v = 0;
      bus::AhbTransfer t;
      t.addr = addr;
      t.beat_bytes = size;
      t.data = &v;
      r.cycles = bus_.transfer(bus::Master::kCpuData, t);
      r.ok = !t.error;
      r.value = v;
    }
    stats_.dcache_stall += r.cycles;
    return r;
  }

  const auto out = dcache_.access(addr, /*is_write=*/false);
  if (out.parity_discard) {
    // A poisoned dirty line lost the only copy of its data; fault.
    r.ok = false;
    return r;
  }
  if (out.writeback) {
    // Dirty victim (write-back extension): push its bytes out before the
    // fill overwrites the slot.
    r.cycles += writeback_line(out.victim_addr, out.data);
  }
  if (out.fill) {
    bool error = false;
    r.cycles += fill_line(bus::Master::kCpuData, out.line_addr,
                          cfg_.dcache.line_bytes, out.data, error);
    stats_.dcache_stall += r.cycles;
    if (error) {
      dcache_.invalidate_line(addr);
      r.ok = false;
      return r;
    }
  }
  r.value = read_be(out.data + (addr - out.line_addr), size);
  return r;
}

u8* LeonPipeline::direct_read_miss(Addr addr, Cycles& stall) {
  const u32 line_bytes = dline_mask_ + 1;
  const Addr line_addr = addr & ~static_cast<Addr>(dline_mask_);
  if (!direct_dmiss_ || !cacheable(addr) ||
      !direct_line(line_addr, line_bytes)) {
    return nullptr;
  }
  // data_read_miss()'s cached path: a write-through read miss allocates
  // with no victim writeback (no line is ever dirty) and no parity
  // discard (only a dirty line can lose its data).
  const cache::AccessOutcome out = dcache_.access(addr, /*is_write=*/false);
  stall = direct_fill(bus::Master::kCpuData, line_addr, line_bytes, out.data);
  stats_.dcache_stall += stall;
  return out.data;
}

MemResult LeonPipeline::data_write(Addr addr, unsigned size,
                                                 u64 value) {
  MemResult r;
  const bool cached = cfg_.dcache_enabled && cacheable(addr);
  const bool write_back =
      cfg_.dcache.write_policy == cache::WritePolicy::kWriteBackAllocate;

  if (cached && write_back) {
    const auto out = dcache_.access(addr, /*is_write=*/true);
    if (out.parity_discard) {
      r.ok = false;
      return r;
    }
    if (out.writeback) {
      r.cycles += writeback_line(out.victim_addr, out.data);
    }
    if (out.fill) {
      // Write-allocate: fetch the line, then merge the store into it.
      bool error = false;
      r.cycles += fill_line(bus::Master::kCpuData, out.line_addr,
                            cfg_.dcache.line_bytes, out.data, error);
      if (error) {
        dcache_.invalidate_line(addr);
        r.ok = false;
        return r;
      }
    }
    write_be(out.data + (addr - out.line_addr), size, value);
    stats_.dcache_stall += r.cycles;
    return r;
  }

  // Write-through (or uncached): the store goes on the bus.
  if (cached) {
    // The fast paths probe inline; a poisoned line (and the reference)
    // takes access(), whose write-through hit exposes the line.
    u8* line = nullptr;
    if (!fast_ || !dcache_.write_through(addr, line)) {
      line = dcache_.access(addr, /*is_write=*/true).data;
    }
    if (line != nullptr) {
      // Keep the resident line coherent with the memory write below.
      write_be(line + (addr & dline_mask_), size, value);
    }
  }

  bool error = false;
  const Cycles bus_cost = store_bus(addr, size, value, error);
  if (error) {
    r.ok = false;
    r.cycles = bus_cost;
    return r;
  }

  const bool buffered = cached && cfg_.write_buffer_depth > 0;
  if (!buffered) {
    r.cycles = bus_cost;
    stats_.dcache_stall += bus_cost;
    return r;
  }
  // Write buffer: the store retires immediately unless the buffer is still
  // draining a previous store (single-entry drain model).
  const Cycles now = *clock_;
  const Cycles start = std::max(now, wb_free_at_);
  const Cycles stall = start - now;
  wb_free_at_ = start + bus_cost;
  r.cycles = stall;
  stats_.store_stall += stall;
  return r;
}

Cycles LeonPipeline::store_bus(Addr addr, unsigned size, u64 value,
                               bool& error) {
  if (direct_sram(addr, size)) {
    const Cycles c = 1 + dsram_->direct_store(addr, size, value);
    bus_.count_transfer(bus::Master::kCpuData, size == 8 ? 2 : 1, c);
    return c;
  }
  Cycles bus_cost = 0;
  if (size == 8) {
    u32 buf[2] = {static_cast<u32>(value >> 32), static_cast<u32>(value)};
    bus::AhbTransfer t;
    t.addr = addr;
    t.write = true;
    t.beats = 2;
    t.burst = bus::HBurst::kIncr;
    t.data = buf;
    bus_cost = bus_.transfer(bus::Master::kCpuData, t);
    error = t.error;
  } else {
    u32 v = static_cast<u32>(value);
    bus::AhbTransfer t;
    t.addr = addr;
    t.write = true;
    t.beat_bytes = size;
    t.data = &v;
    bus_cost = bus_.transfer(bus::Master::kCpuData, t);
    error = t.error;
  }
  return bus_cost;
}

// ---------------------------------------------------------------------------
// The other SparcCore hooks
// ---------------------------------------------------------------------------

void LeonPipeline::flush_line(Addr addr, StepResult& res) {
  icache_.invalidate_line(addr);
  cache::DirtyLine d;
  if (dcache_.invalidate_line(addr, &d) && !d.data.empty()) {
    res.cycles += writeback_line(d.addr, d.data.data());
  }
}

bool LeonPipeline::asi_access(const Instruction& ins, Addr ea,
                              StepResult& res) {
  if (ins.asi != 2 || ea != 0) return false;
  if (ins.mn == Mnemonic::kLda) {
    st_.set_reg(ins.rd, cache_control());
    res.cycles += cfg_.cpu.load_extra;
    return true;
  }
  if (ins.mn == Mnemonic::kSta) {
    const u32 v = st_.reg(ins.rd);
    if (v & (1u << 21)) icache_.flush();  // FI
    if (v & (1u << 22)) {                 // FD
      std::vector<cache::DirtyLine> dirty;
      dcache_.flush(&dirty);
      for (const cache::DirtyLine& d : dirty) {
        res.cycles += writeback_line(d.addr, d.data.data());
      }
    }
    res.cycles += cfg_.cpu.store_extra;
    return true;
  }
  return false;
}

void LeonPipeline::on_retire(Mix kind) {
  switch (kind) {
    case Mix::kLoad: ++stats_.loads; break;
    case Mix::kStore: ++stats_.stores; break;
    case Mix::kBranch: ++stats_.branches; break;
    case Mix::kTakenBranch: ++stats_.taken_branches; break;
    case Mix::kCall: ++stats_.calls; break;
    case Mix::kMulDiv: ++stats_.muldiv; break;
  }
}

// ---------------------------------------------------------------------------
// Stepping
// ---------------------------------------------------------------------------

StepResult LeonPipeline::step() {
  StepResult res;
  step_impl<true>(res);
  return res;
}

template <bool kCopyIns>
void LeonPipeline::step_impl(StepResult& res) {
  // kCopyIns=false is the run-loop body: nothing outside this call reads
  // `res` (the caller reuses one instance and never looks at it), so the
  // per-step result materialization is compiled out.  kCopyIns=true keeps
  // the full step() contract: a completely populated result.
  if constexpr (kCopyIns) {
    res.pc = st_.pc;
    res.raw = 0;
    res.annulled = false;
    res.trapped = false;
    res.tt = 0;
    res.mem_access = false;
    res.mem_write = false;
    res.mem_addr = 0;
    res.mem_size = 0;
  }
  res.cycles = 1;
  if (st_.error_mode) return;

  if (wedged_) {
    // A wedged CPU holds its architectural state and burns a cycle: the
    // clock (and everything hanging off it — timers, the watchdog) keeps
    // running while no instruction retires.
    res.cycles = 1;
    *clock_ += 1;
    stats_.cycles += 1;
    return;
  }

  if (irq_pending()) {
    trap_step<kCopyIns>(static_cast<u8>(0x10 + (irq_level_ & 0xf)), 0, res);
    return;
  }

  u32 word = 0;
  const isa::Instruction* pins = nullptr;
  Cycles fetch_stall = 0;  // stall cycles beyond the base instruction cost
  if (!ifetch_hot(st_.pc, word, pins)) [[unlikely]] {
    const MemResult f = ifetch(st_.pc, word, pins);
    if (!f.ok) {
      trap_step<kCopyIns>(Core::tt_of(Trap::kInstructionAccess), f.cycles,
                          res);
      return;
    }
    fetch_stall = f.cycles;
  }
  if constexpr (kCopyIns) res.raw = word;
  isa::Instruction local;
  if (pins == nullptr) {
    local = isa::decode(word);
    pins = &local;
  }
  if constexpr (kCopyIns) res.ins = *pins;
  finish_step<kCopyIns>(*pins, fetch_stall, res);
}

template <bool kCopyIns>
void LeonPipeline::trap_step(u8 tt, Cycles stall, StepResult& res) {
  Core::take_trap(*this, tt);
  res.trapped = true;
  res.tt = tt;
  res.cycles = cfg_.cpu.trap_latency + stall;
  *clock_ += res.cycles;
  stats_.cycles += res.cycles;
}

template <bool kCopyIns>
void LeonPipeline::finish_step(const Instruction& ins, Cycles fetch_stall,
                               StepResult& res) {
  if (annul_next_) {
    annul_next_ = false;
    res.annulled = true;
    st_.pc = st_.npc;
    st_.npc += 4;
    res.cycles = 1 + fetch_stall;
    ++stats_.annulled;
    *clock_ += res.cycles;
    stats_.cycles += res.cycles;
    return;
  }

  cti_taken_ = false;
  res.cycles = 1;
  const u8 tt = Core::execute(*this, ins, res);
  if (tt != Core::kNoTrap) [[unlikely]] {
    trap_step<kCopyIns>(tt, fetch_stall, res);
    return;
  }
  res.cycles += fetch_stall;
  const Addr new_pc = st_.npc;
  const Addr new_npc = cti_taken_ ? cti_target_ : st_.npc + 4;
  st_.pc = new_pc;
  st_.npc = new_npc;
  ++stats_.instructions;
  *clock_ += res.cycles;
  stats_.cycles += res.cycles;
}

u64 LeonPipeline::run(u64 max_steps, Addr halt_pc) {
  RunWindow w;
  w.max_steps = max_steps;
  w.halt_pc = halt_pc;
  return run(w);
}

u64 LeonPipeline::run(const RunWindow& w) {
  // The line tier needs the mirror (host fast paths) and computed goto.
#if defined(__GNUC__) || defined(__clang__)
  if (fast_) return run_lines(w);
#endif
  return run_steps(w);
}

namespace {
constexpr bool kNeverStop = false;
}  // namespace

u64 LeonPipeline::run_steps(const RunWindow& w) {
  const bool* const stop =
      w.stop_flag != nullptr ? w.stop_flag : &kNeverStop;
  u64 n = 0;
  while (n < w.max_steps && !st_.error_mode && st_.pc != w.halt_pc) {
    last_run_pc_ = st_.pc;
    step();
    ++n;
    if (*clock_ >= w.deadline || *stop || last_run_pc_ < w.pc_fence) break;
  }
  return n;
}

#if defined(__GNUC__) || defined(__clang__)
// The line tier: run_steps() with the fetch and the hot instructions
// threaded over the predecoded I-cache mirror.  Per step it does exactly
// what step() does, in the same order:
//  - fetch: within the current line the streak re-hit, counted in a local
//    and applied as one touch_read_hits() before the next line change and
//    before anything else runs (LA_LT_SYNC_OUT), so the I-cache's tick,
//    LRU and stats are per-fetch accounting's whenever they can be read;
//    on a line change the lookup_hit probe (enter_line, forced inline); a
//    miss, poisoned line, or uncacheable PC takes the whole step through
//    step_impl();
//  - annulled slot, inline ALU/sethi op, inline Bicc, inline flush, or
//    inline load or store: the same state, latch, retire-counter, and
//    cycle updates execute() and finish_step() make, with the ALU and
//    memory bodies from cpu/alu_ops.hpp.  A load that hits the D-cache
//    reads the line in place, and so does one whose miss the direct SRAM
//    path fills (direct_read_miss()); any other miss calls
//    data_read_miss() (data_read() past its probe) and a store
//    data_write(), each with the clock synced, and a failed access traps
//    through trap_step(), the epilogue finish_step() uses.  A flush of a
//    dirty D-line takes execute();
//  - every other instruction: finish_step() -> execute() on the mirrored
//    decode, with the members synced first (the bus and write buffer read
//    the clock);
//  - wedge, deliverable interrupt: step_impl().
// The ALU ops, D-cache read hits and direct SRAM fills cannot change CWP,
// error mode, the wedge, the interrupt inputs, or the stop flag, and only
// a flush changes the I-cache, so those are re-checked only after the
// steps that can: a flush that drops an I-line sends the next fetch
// through enter:, a bus access can raise the stop flag, the wedge or an
// interrupt (after_bus re-checks them), and execute() and trap entry can
// move anything (after_step).  Only lines wholly at or above the PC fence
// and not holding the halt PC run inline, so neither needs a per-op test
// either.
// The mirror is valid exactly while the line is resident: every fill
// re-digests its slot, so the I-cache's own fill, flush, and invalidate
// events are the only invalidation there is.
u64 LeonPipeline::run_lines(const RunWindow& w) {
  const bool* const stop =
      w.stop_flag != nullptr ? w.stop_flag : &kNeverStop;
  const u64 max_steps = w.max_steps;
  const Cycles deadline = w.deadline;
  const Addr halt_pc = w.halt_pc;
  const Addr fence = w.pc_fence;
  const u32 line_mask = iline_mask_;
  const Addr halt_line = halt_pc & ~static_cast<Addr>(line_mask);
  CpuState& st = st_;
  StepResult res;
  u64 n = 0;
  Addr stepped = last_run_pc_;

  // pc/npc, the clock, the annul latch, and the retire count run in
  // locals while ops execute inline; SYNC_OUT writes them back before
  // anything that reads the members and SYNC_IN reloads them after.
  // stats_.cycles moves in lockstep with the clock here, so it folds in
  // as the clock's delta.
  Addr pc = st.pc;
  Addr npc = st.npc;
  Cycles clk = *clock_;
  u64 retired = 0;
  bool annul = annul_next_;
  u64 ihits = 0;  // streak re-hits of `slot` not yet applied to the I-cache

  // An inline step runs while n < max_steps and clk < stop_clk, the
  // deadline moved one cycle past the start when the window opens at or
  // past it: a window's first step always runs.
  const Cycles stop_clk = std::max(deadline, clk + 1);

  // The current line: the streak memo's slot while its generation holds
  // and the line may run inline.
  Addr cur_line = kNoMirrorLine;
  u32 slot = 0;
  const LineOp* ops = nullptr;
  const isa::Instruction* insns = nullptr;
  const LineOp* op = nullptr;
  const auto inline_line = [&](Addr line) {
    return line >= fence && line != halt_line;
  };
  const auto load_line = [&] {
    cur_line = hot_ifetch_ && last_igen_ == icache_.gen() &&
                       inline_line(last_iline_)
                   ? last_iline_
                   : kNoMirrorLine;
    slot = last_islot_;
    ops = last_iops_;
    insns = last_imirror_;
  };
  load_line();

  // Branch-free operand access for the inline handlers.
  sync_regmap();
  u32* const* const rp = rp_;
  u32* const* const wp = wp_;

#define LA_LT_FLUSH_HITS()                  \
  do {                                      \
    if (ihits != 0) {                       \
      icache_.touch_read_hits(slot, ihits); \
      ihits = 0;                            \
    }                                       \
  } while (0)
#define LA_LT_SYNC_OUT()            \
  do {                              \
    LA_LT_FLUSH_HITS();             \
    st.pc = pc;                     \
    st.npc = npc;                   \
    stats_.cycles += clk - *clock_; \
    *clock_ = clk;                  \
    stats_.instructions += retired; \
    retired = 0;                    \
    annul_next_ = annul;            \
  } while (0)
#define LA_LT_SYNC_IN()  \
  do {                   \
    pc = st.pc;          \
    npc = st.npc;        \
    clk = *clock_;       \
    annul = annul_next_; \
  } while (0)

  // Token-threaded dispatch.  Every token has two entry points: the
  // handler proper (window check and fetch accounting first) and its
  // body, entered from `enter`, whose lookup_hit probe already did the
  // fetch accounting.  Table order is the token numbering.
#define LA_LT_LABEL_REG(name, mn, ...) &&lab_##name,
#define LA_LT_LABEL_IMM(name, mn, ...) &&lab_##name##_i,
#define LA_LT_BODY_REG(name, mn, ...) &&lab_##name##_body,
#define LA_LT_BODY_IMM(name, mn, ...) &&lab_##name##_i_body,
  static const void* const kLabels[] = {
      LA_ALU_OPS(LA_LT_LABEL_REG)
      LA_MEM_OPS(LA_LT_LABEL_REG)
      &&lab_flush, &&lab_execute, &&lab_bicc,
      LA_ALU_OPS(LA_LT_LABEL_IMM)
      LA_MEM_OPS(LA_LT_LABEL_IMM)
      &&lab_flush_i,
  };
  static const void* const kBodies[] = {
      LA_ALU_OPS(LA_LT_BODY_REG)
      LA_MEM_OPS(LA_LT_BODY_REG)
      &&lab_flush_body, &&lab_execute_body, &&lab_bicc_body,
      LA_ALU_OPS(LA_LT_BODY_IMM)
      LA_MEM_OPS(LA_LT_BODY_IMM)
      &&lab_flush_i_body,
  };
#undef LA_LT_BODY_IMM
#undef LA_LT_BODY_REG
#undef LA_LT_LABEL_IMM
#undef LA_LT_LABEL_REG
  static_assert(sizeof(kLabels) / sizeof(kLabels[0]) == kOpKinds);
  static_assert(sizeof(kBodies) / sizeof(kBodies[0]) == kOpKinds);
#define LA_LT_JUMP() goto* kLabels[op->kind]
#define LA_LT_JUMP_BODY() goto* kBodies[op->kind]

// Dispatch the instruction at pc (after a step that cannot leave an
// annulment pending).
#define LA_LT_DISPATCH()                           \
  do {                                             \
    if ((pc & ~line_mask) != cur_line) goto enter; \
    op = ops + ((pc & line_mask) >> 2);            \
    LA_LT_JUMP();                                  \
  } while (0)
// Dispatch after a step that may have set the annul latch.
#define LA_LT_DISPATCH_ANNUL()                     \
  do {                                             \
    if ((pc & ~line_mask) != cur_line) goto enter; \
    op = ops + ((pc & line_mask) >> 2);            \
    if (annul) goto annulled;                      \
    LA_LT_JUMP();                                  \
  } while (0)
// A handler's entry: the window checks, then the streak re-hit.
#define LA_LT_ENTRY(label)                               \
  label:                                                 \
  if (n >= max_steps || clk >= stop_clk) goto out_sync; \
  ++ihits;

#define LA_ALU_RD(v) (*wp[op->d] = (v))
#define LA_ALU_PSR st.psr
#define LA_ALU_SUBX_NO_CARRY cfg_.cpu.quirk_subx_no_carry
#define LA_LT_ALU(label, BEXPR, ...) \
  LA_LT_ENTRY(label)                 \
  label##_body : {                   \
    stepped = pc;                    \
    const u32 A = *rp[op->a];        \
    const u32 B = (BEXPR);           \
    (void)A;                         \
    (void)B;                         \
    __VA_ARGS__;                     \
    cti_taken_ = false;              \
    pc = npc;                        \
    npc += 4;                        \
    ++n;                             \
    ++clk;                           \
    ++retired;                       \
    LA_LT_DISPATCH();                \
  }
#define LA_LT_ALU_REG(name, mn, ...) \
  LA_LT_ALU(lab_##name, *rp[op->b], __VA_ARGS__)
#define LA_LT_ALU_IMM(name, mn, ...) \
  LA_LT_ALU(lab_##name##_i, op->imm, __VA_ARGS__)

// The memory ops: execute()'s load/store tail for an aligned address (a
// misaligned one takes lab_execute for its trap).  A D-cache read hit is
// served from the line, and a read miss the direct SRAM path fills
// (direct_read_miss) from the line it returns: neither reads the clock or
// reaches a device, so neither syncs.  Every other access makes the
// timed call with the members synced (the bus, the write buffer and the
// peripherals read the clock; syncing the rest too keeps the locals dead
// across the call, as on the execute path, so they stay in registers), a
// failure trapping through data_fault and a success re-checking what the
// access may have changed at after_bus.
#define LA_MEM_RD(v) (*wp[op->d] = (v))
#define LA_MEM_RD1(v) (*wp[op->d | 1] = (v))
#define LA_MEM_RS (*rp[op->d])
#define LA_MEM_RS1 (*rp[op->d | 1])
#define LA_LT_MEM_EA(BEXPR, size)                \
  const Addr ea = *rp[op->a] + (BEXPR);          \
  if (ea & ((size) - 1)) goto lab_execute_body;  \
  stepped = pc;
#define LA_LT_MEM_RETIRE(counter) \
  ++stats_.counter;               \
  cti_taken_ = false;             \
  pc = npc;                       \
  npc += 4;                       \
  ++n;                            \
  ++retired;
#define LA_LT_LOAD(label, BEXPR, size, extra, ...)                      \
  LA_LT_ENTRY(label)                                                    \
  label##_body : {                                                      \
    LA_LT_MEM_EA(BEXPR, size)                                           \
    const cache::HitRef h = cfg_.dcache_enabled ? dcache_.lookup_hit(ea) \
                                                : cache::HitRef{};      \
    if (h.data != nullptr) [[likely]] {                                 \
      const u64 V = read_be(h.data + (ea & dline_mask_), size);         \
      __VA_ARGS__;                                                      \
      clk += 1 + cfg_.cpu.extra;                                        \
      LA_LT_MEM_RETIRE(loads)                                           \
      LA_LT_DISPATCH();                                                 \
    }                                                                   \
    Cycles stall = 0;                                                   \
    if (const u8* line = direct_read_miss(ea, stall)) {                 \
      const u64 V = read_be(line + (ea & dline_mask_), size);           \
      __VA_ARGS__;                                                      \
      clk += 1 + cfg_.cpu.extra + stall;                                \
      LA_LT_MEM_RETIRE(loads)                                           \
      LA_LT_DISPATCH();                                                 \
    }                                                                   \
    LA_LT_SYNC_OUT();                                                   \
    const MemResult r = data_read_miss(ea, size);                       \
    LA_LT_SYNC_IN();                                                    \
    if (!r.ok) goto data_fault;                                         \
    op = ops + ((pc & line_mask) >> 2); /* not kept across the call */  \
    const u64 V = r.value;                                              \
    __VA_ARGS__;                                                        \
    clk += 1 + cfg_.cpu.extra + r.cycles;                               \
    LA_LT_MEM_RETIRE(loads)                                             \
    goto after_bus;                                                     \
  }
#define LA_LT_STORE(label, BEXPR, size, extra, ...)                     \
  LA_LT_ENTRY(label)                                                    \
  label##_body : {                                                      \
    LA_LT_MEM_EA(BEXPR, size)                                           \
    const u64 v = (__VA_ARGS__);                                        \
    LA_LT_SYNC_OUT();                                                   \
    const MemResult w = data_write(ea, size, v);                        \
    LA_LT_SYNC_IN();                                                    \
    if (!w.ok) goto data_fault;                                         \
    clk += 1 + cfg_.cpu.extra + w.cycles;                               \
    LA_LT_MEM_RETIRE(stores)                                            \
    goto after_bus;                                                     \
  }
// FLUSH: execute()'s kFlush, flush_line()'s invalidates in its order.
// The streak's re-hits reach the I-cache first, since the invalidate may
// drop their line, and an I-side hit sends the next fetch through enter:
// (the flushed line may be this one).  A dirty D-line (write-back only)
// takes lab_execute: its writeback takes the bus and reads the clock.
#define LA_LT_FLUSH(label, BEXPR)                                   \
  LA_LT_ENTRY(label)                                                \
  label##_body : {                                                  \
    const Addr ea = *rp[op->a] + (BEXPR);                           \
    if (cfg_.dcache.write_policy ==                                 \
            cache::WritePolicy::kWriteBackAllocate &&               \
        dcache_.dirty(ea)) {                                        \
      goto lab_execute_body;                                        \
    }                                                               \
    stepped = pc;                                                   \
    LA_LT_FLUSH_HITS();                                             \
    if (icache_.invalidate_line(ea)) cur_line = kNoMirrorLine;      \
    dcache_.invalidate_line(ea);                                    \
    cti_taken_ = false;                                             \
    pc = npc;                                                       \
    npc += 4;                                                       \
    ++n;                                                            \
    ++clk;                                                          \
    ++retired;                                                      \
    LA_LT_DISPATCH();                                               \
  }
#define LA_LT_MEM_REG(name, mn, kind, extra, ...)                        \
  LA_LT_##kind(lab_##name, *rp[op->b], isa::access_size(Mnemonic::mn),    \
               extra, __VA_ARGS__)
#define LA_LT_MEM_IMM(name, mn, kind, extra, ...)                        \
  LA_LT_##kind(lab_##name##_i, op->imm, isa::access_size(Mnemonic::mn),  \
               extra, __VA_ARGS__)

  if (max_steps == 0 || st.error_mode || pc == halt_pc) goto out;
  if (wedged_ || irq_pending()) goto slow;
  LA_LT_DISPATCH_ANNUL();

  LA_ALU_OPS(LA_LT_ALU_REG)
  LA_ALU_OPS(LA_LT_ALU_IMM)
  LA_MEM_OPS(LA_LT_MEM_REG)
  LA_MEM_OPS(LA_LT_MEM_IMM)
  LA_LT_FLUSH(lab_flush, *rp[op->b])
  LA_LT_FLUSH(lab_flush_i, op->imm)

  LA_LT_ENTRY(lab_bicc)
lab_bicc_body : {
  // execute()'s kBicc case; a = cond, b = annul bit, imm = disp << 2.
  stepped = pc;
  ++stats_.branches;
  const auto cond = static_cast<Cond>(op->a);
  bool taken = true;
  if (cond == Cond::kA) {
    annul = op->b != 0;
  } else if (!isa::eval_cond(cond, st.psr.n, st.psr.z, st.psr.v,
                             st.psr.c)) {
    taken = false;
    annul = op->b != 0;
  }
  cti_taken_ = taken;
  Addr next = npc + 4;
  if (taken) {
    next = pc + op->imm;
    cti_target_ = next;
    clk += cfg_.cpu.cti_extra;
    ++stats_.taken_branches;
  }
  pc = npc;
  npc = next;
  ++n;
  ++clk;
  ++retired;
  LA_LT_DISPATCH_ANNUL();
}

  LA_LT_ENTRY(annulled)
annulled_body:
  // finish_step()'s annul path: the fetch is charged, nothing executes.
  stepped = pc;
  annul = false;
  pc = npc;
  npc += 4;
  ++n;
  ++clk;
  ++stats_.annulled;
  LA_LT_DISPATCH();

enter:
  // Line change: window check, apply the old line's streak, then the line
  // entry (enter_line, forced inline: probe, re-digest a stale slot, point
  // the memo at it) and the locals from the memo.  Lines that may not run
  // inline, and misses, take the whole step through the per-step path.
  if (n >= max_steps || clk >= stop_clk) goto out_sync;
  LA_LT_FLUSH_HITS();
  if (!hot_ifetch_ || !inline_line(pc & ~static_cast<Addr>(line_mask)) ||
      !enter_line(pc)) {
    if (pc == halt_pc) goto out_sync;
    goto slow;
  }
  cur_line = last_iline_;  // the memo enter_line just set, fresh
  slot = last_islot_;
  ops = last_iops_;
  insns = last_imirror_;
  op = ops + ((pc & line_mask) >> 2);
  if (annul) goto annulled_body;
  LA_LT_JUMP_BODY();

  LA_LT_ENTRY(lab_execute)
lab_execute_body:
  stepped = pc;
  LA_LT_SYNC_OUT();
  finish_step<false>(insns[op - ops], 0, res);
  LA_LT_SYNC_IN();
  goto after_step;

data_fault:
  // A memory op's failed access (the members are synced, pc is still the
  // op's): data_access through finish_step()'s trap epilogue.
  cti_taken_ = false;
  trap_step<false>(Core::tt_of(Trap::kDataAccess), 0, res);
  LA_LT_SYNC_IN();
  goto after_step;

after_bus:
  // A memory op's bus access may have raised the stop flag, the wedge or
  // an interrupt (an APB access drains the timers): after_step's checks,
  // in its order.  The rest cannot have moved: the op's line runs inline,
  // so it is above the fence, and only trap entry sets error mode.
  if (n >= max_steps || clk >= deadline || *stop || pc == halt_pc) {
    goto out_sync;
  }
  if (wedged_ || irq_pending()) goto slow;
  LA_LT_DISPATCH();

slow:
  stepped = pc;
  LA_LT_SYNC_OUT();
  step_impl<false>(res);
  LA_LT_SYNC_IN();

after_step:
  // A non-inline step may have moved anything: re-derive what the inline
  // handlers assume, then the window checks the per-step loop makes.
  ++n;
  sync_regmap();
  load_line();
  if (n >= max_steps || clk >= deadline || *stop || stepped < fence ||
      st.error_mode || pc == halt_pc) {
    goto out;
  }
  if (wedged_ || irq_pending()) goto slow;
  LA_LT_DISPATCH_ANNUL();

out_sync:
  LA_LT_SYNC_OUT();
out:
  last_run_pc_ = stepped;
  return n;

#undef LA_LT_MEM_IMM
#undef LA_LT_MEM_REG
#undef LA_LT_FLUSH
#undef LA_LT_STORE
#undef LA_LT_LOAD
#undef LA_LT_MEM_RETIRE
#undef LA_LT_MEM_EA
#undef LA_MEM_RS1
#undef LA_MEM_RS
#undef LA_MEM_RD1
#undef LA_MEM_RD
#undef LA_LT_ALU_IMM
#undef LA_LT_ALU_REG
#undef LA_LT_ALU
#undef LA_ALU_SUBX_NO_CARRY
#undef LA_ALU_PSR
#undef LA_ALU_RD
#undef LA_LT_ENTRY
#undef LA_LT_DISPATCH_ANNUL
#undef LA_LT_DISPATCH
#undef LA_LT_JUMP_BODY
#undef LA_LT_JUMP
#undef LA_LT_SYNC_IN
#undef LA_LT_SYNC_OUT
#undef LA_LT_FLUSH_HITS
}
#endif  // computed goto

namespace {
constexpr u32 kPipeTag = snap_tag("PIPE");
}  // namespace

void LeonPipeline::save_state(SnapWriter& w) const {
  w.tag(kPipeTag);
  // Architectural CPU state.
  w.vec_u32(st_.regs.raw());
  w.u64v(st_.pc);
  w.u64v(st_.npc);
  w.u32v(st_.psr.pack());
  w.u32v(st_.wim);
  w.u32v(st_.tbr);
  w.u32v(st_.y);
  for (u32 a : st_.asr) w.u32v(a);
  w.b(st_.error_mode);
  // Inter-step pipeline latches.
  w.b(annul_next_);
  w.b(wedged_);
  w.u8v(irq_level_);
  w.b(cti_taken_);
  w.u64v(cti_target_);
  w.u64v(static_cast<u64>(wb_free_at_));
  // Stats.
  w.u64v(stats_.instructions);
  w.u64v(stats_.annulled);
  w.u64v(stats_.traps);
  w.u64v(static_cast<u64>(stats_.cycles));
  w.u64v(static_cast<u64>(stats_.icache_stall));
  w.u64v(static_cast<u64>(stats_.dcache_stall));
  w.u64v(static_cast<u64>(stats_.store_stall));
  w.u64v(stats_.loads);
  w.u64v(stats_.stores);
  w.u64v(stats_.branches);
  w.u64v(stats_.taken_branches);
  w.u64v(stats_.calls);
  w.u64v(stats_.muldiv);
  // Caches (tags, LRU, parity, line data, replacement RNG).
  icache_.save_state(w);
  dcache_.save_state(w);
}

bool LeonPipeline::load_state(SnapReader& r) {
  if (!r.expect(kPipeTag)) return false;
  if (!st_.regs.set_raw(r.vec_u32())) return false;
  st_.pc = r.u64v();
  st_.npc = r.u64v();
  st_.psr.unpack(r.u32v());
  st_.wim = r.u32v();
  st_.tbr = r.u32v();
  st_.y = r.u32v();
  for (u32& a : st_.asr) a = r.u32v();
  st_.error_mode = r.b();
  annul_next_ = r.b();
  wedged_ = r.b();
  irq_level_ = r.u8v();
  cti_taken_ = r.b();
  cti_target_ = r.u64v();
  wb_free_at_ = static_cast<Cycles>(r.u64v());
  stats_.instructions = r.u64v();
  stats_.annulled = r.u64v();
  stats_.traps = r.u64v();
  stats_.cycles = static_cast<Cycles>(r.u64v());
  stats_.icache_stall = static_cast<Cycles>(r.u64v());
  stats_.dcache_stall = static_cast<Cycles>(r.u64v());
  stats_.store_stall = static_cast<Cycles>(r.u64v());
  stats_.loads = r.u64v();
  stats_.stores = r.u64v();
  stats_.branches = r.u64v();
  stats_.taken_branches = r.u64v();
  stats_.calls = r.u64v();
  stats_.muldiv = r.u64v();
  if (!icache_.load_state(r) || !dcache_.load_state(r)) return false;
  // Every host-side memo is now stale: the mirror's decoded lines belong to
  // the pre-restore contents.  Invalidate; fills rebuild them on demand.
  std::fill(imirror_addr_.begin(), imirror_addr_.end(), kNoMirrorLine);
  last_iline_ = kNoMirrorLine;
  return r.ok();
}

}  // namespace la::cpu
