// Basic-block translation engine for the functional integer unit.
//
// IntegerUnit::run() decodes each basic block once into a trace of
// predecoded {handler, operands} entries keyed by start PC, then executes
// the trace through a threaded dispatcher (computed goto under GCC/Clang,
// a jump-table switch elsewhere) with hot-block chaining, so straight-line
// and loop-heavy code never re-touches the decoder or the per-step
// dispatch path.  See docs/PERFORMANCE.md ("Block engine").
//
// Equivalence contract (enforced by the iu-block conformance leg, the
// slow/fast/block property grid, and the fuzzer's iu-block differential
// leg): executing through the engine is bit-identical to the per-step
// interpreter across registers, memory, traps, and cycle counts.  The
// engine only ever re-implements the per-step loop's *sequencing*; every
// instruction either runs through a one-line inline handler mirroring the
// shared core's execute() (cpu/sparc_core.hpp) or through execute() itself.  Before each entry
// the dispatcher re-checks exactly what the per-step loop would check
// (budget, halt PC, pending interrupt) and bails to the interpreter for
// every irregular situation: delay-slot entry, annulment, pending traps,
// unfetchable code.
//
// Self-modifying code: any store the core executes into a translated page
// (1 KiB granules) discards that page's blocks and severs all chain links
// (generation counter), and the whole cache is dropped at every run()
// entry so memory rewritten between calls — loaders, test harnesses, DMA
// — is always re-read.  Invalidated blocks are parked in a graveyard
// until the trace that triggered the invalidation has fully unwound.
#pragma once

#include <array>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "isa/handler_table.hpp"
#include "isa/isa.hpp"

namespace la::cpu {

class IntegerUnit;
struct StepResult;

class BlockEngine {
 public:
  /// Drive `iu` exactly like IntegerUnit::run()'s per-step loop: until
  /// `max_steps` steps, error mode, or PC == `halt_pc`.  Returns the
  /// number of steps executed.  Only called observerless (the run() gate
  /// in IntegerUnit checks); the per-step interpreter remains the slow
  /// path for everything irregular.
  u64 run(IntegerUnit& iu, u64 max_steps, Addr halt_pc);

  // Engine counters, for tests and reports (host-side only; never part
  // of architectural state).
  u64 blocks_translated() const { return stat_translated_; }
  u64 block_instructions() const { return stat_instructions_; }
  u64 invalidations() const { return stat_invalidations_; }
  u64 chain_links() const { return stat_chains_; }

 private:
  // Dispatch token of one trace entry.  The first HandlerKind::kCount
  // values mirror isa::HandlerKind; the tail tokens are structural,
  // emitted by the translator rather than per-mnemonic.
  enum : u8 {
    kOpGeneric = static_cast<u8>(isa::HandlerKind::kGeneric),
    kOpBicc = static_cast<u8>(isa::HandlerKind::kCount),
    kOpCti,       // call/jmpl/rett/fbfcc/cbccc via execute()
    kOpSlotGate,  // annul check ahead of the delay-slot entry
    kOpEnd,       // sentinel: try to chain into the successor block
    // Immediate-operand twins of the inline ALU handlers: the translator
    // resolves the i-bit once, so the dispatcher's imm handlers read
    // simm13 directly instead of selecting between it and rs2 per op.
    kOpAluImmBase,
    kOpKinds = kOpAluImmBase + static_cast<u8>(isa::HandlerKind::kGeneric),
  };

  // One 8-byte trace entry.  The operand fields are predigested per token:
  //  - inline ALU: a/b/d are register-map indices, bimm the resolved
  //    immediate (simm13 sign-extended, or sethi's imm22 pre-shifted);
  //  - kOpBicc: a = cond, b = annul bit, bimm = word displacement << 2;
  //  - kOpGeneric/kOpCti: bimm indexes the block's `insns` side table
  //    holding the full decoded instruction for execute().
  struct BlockOp {
    u8 kind = kOpGeneric;
    u8 a = 0;
    u8 b = 0;
    u8 d = 0;
    u32 bimm = 0;
  };
  static_assert(sizeof(BlockOp) == 8);

  struct Block {
    Addr start = 0;
    Addr end = 0;  // one past the last translated word
    std::vector<BlockOp> ops;  // real ops followed by one kOpEnd sentinel
    std::vector<isa::Instruction> insns;  // kOpGeneric/kOpCti operands
    // Hot-block chaining: the last two successors, validated against the
    // engine generation so invalidation severs stale links before any
    // pointer is dereferenced.
    std::array<Addr, 2> chain_addr{{~0u, ~0u}};
    std::array<Block*, 2> chain_blk{{nullptr, nullptr}};
    std::array<u64, 2> chain_gen{{0, 0}};
    u8 chain_victim = 0;  // round-robin replacement cursor
  };

  static constexpr unsigned kMaxBlockOps = 64;  // body cap per block
  static constexpr unsigned kPageShift = 10;    // invalidation granule
  static constexpr std::size_t kL1Size = 512;   // direct-mapped front cache

  static std::size_t l1_index(Addr pc) { return (pc >> 2) & (kL1Size - 1); }

  Block* lookup(Addr pc);
  // `halt_pc` is constant for the cache's lifetime (the cache is flushed
  // at every run() entry), so the translator simply never emits the op at
  // halt_pc; the dispatcher then only needs to test halt at block
  // boundaries instead of before every op.
  Block* translate(IntegerUnit& iu, Addr pc, Addr halt_pc);
  u64 exec(IntegerUnit& iu, Block* blk, u64 steps_left, Addr halt_pc,
           StepResult& res);

  bool store_hits_code(Addr addr, unsigned size) const {
    return addr < code_hi_ && addr + size > code_lo_;
  }
  void invalidate_store(Addr addr, unsigned size);
  void erase_block(Block* b);
  void flush();

  std::unordered_map<Addr, std::unique_ptr<Block>> blocks_;
  std::array<Block*, kL1Size> l1_{};
  std::unordered_map<u32, std::vector<Block*>> pages_;  // page -> blocks
  Addr code_lo_ = ~0u;  // [code_lo_, code_hi_): union of translated spans
  Addr code_hi_ = 0;
  u64 gen_ = 1;  // bumped on every invalidation/flush; chains re-validate
  std::vector<std::unique_ptr<Block>> graveyard_;  // deferred frees

  u64 stat_translated_ = 0;
  u64 stat_instructions_ = 0;
  u64 stat_invalidations_ = 0;
  u64 stat_chains_ = 0;
};

}  // namespace la::cpu
