// Deterministic conformance-vector generation.
//
// For every mnemonic the ISS implements, generate_corpus() emits seeded
// random cases plus a hand-written edge-case table (trap boundaries,
// overflow clamps, the fuzzer-minimized PR repros, deliberate-fault config
// twins).  Generation is pure in (mnemonic, seed, cases): regenerating with
// the committed parameters must reproduce the committed corpus byte for
// byte — that is the drift gate `lvec verify` enforces.
//
// The reference executor is cpu::IntegerUnit on a FlatMemory wrapped in a
// recording port, so a vector's memory set is exactly the data words the
// instruction touched (instruction fetches are not recorded; the code
// words travel in the vector's `code` list instead).
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "conform/vector.hpp"

namespace la::conform {

// Memory geometry shared by the generator and every replay leg.  One
// megabyte of RAM at the FPX SRAM base; code, data, and the trap table
// live in disjoint regions so no vector self-modifies its code and no
// trap handler is ever fetched (handler words are zero == UNIMP, and all
// trap vectors end after the trapping step).
inline constexpr Addr kVecMemBase = 0x40000000;
inline constexpr u32 kVecMemSize = 1u << 20;
inline constexpr Addr kVecCodeBase = kVecMemBase + 0x100;
inline constexpr Addr kVecDataBase = kVecMemBase + 0x800;
inline constexpr Addr kVecTrapBase = kVecMemBase + 0x10000;

/// Default generator parameters (recorded in each corpus file header).
inline constexpr u64 kDefaultSeed = 0x11901d;
inline constexpr int kDefaultCases = 10;

/// Every mnemonic the ISS implements (== everything decode() can produce
/// except kInvalid).  This is the coverage universe `lvec coverage`
/// checks the committed corpus against.
std::vector<isa::Mnemonic> corpus_mnemonics();

/// Unique lower-case corpus key for a mnemonic, its LA_SPARC_OPS key
/// column (mnemonic_name() collides for the rd/wr state-register group
/// and the branch/trap families, so those get their full names: "rdy",
/// "wrpsr", "bicc", "ticc", ...).
std::string corpus_key(isa::Mnemonic mn);

/// Inverse of corpus_key(); kInvalid for an unknown key.
isa::Mnemonic mnemonic_from_key(const std::string& key);

/// Flat serialization index for window-relative register `r` (0..31) seen
/// from window `cwp` — the generator's bridge between "set %o3 of the
/// current window" and the vector's flat register map.
u32 flat_index(unsigned nwindows, unsigned cwp, u8 r);

/// Generate the full corpus file for one mnemonic: `cases` seeded random
/// vectors named "<key>/r<i>" plus the mnemonic's fixed edge cases named
/// "<key>/edge_<what>".
CorpusFile generate_corpus(isa::Mnemonic mn, u64 seed = kDefaultSeed,
                           int cases = kDefaultCases);

}  // namespace la::conform
