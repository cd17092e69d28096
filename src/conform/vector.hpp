// Harte-style single-step SPARC V8 conformance test vectors.
//
// A TestVector is one self-contained architectural experiment: a full
// pre-state (registers, PSR/WIM/Y/TBR, the touched memory words), the
// instruction word(s) under test, and the post-state the reference model
// (cpu::IntegerUnit) produced.  Vectors serialize to JSON — one case per
// line, one file per mnemonic — so a behaviour change in any CPU model
// fails with a *named* minimal case instead of a fuzzer timeout.
//
// Register file encoding: the windowed file is flattened to indices
//   0..7                 globals (%g0 never serialized — hardwired zero)
//   8 + w*16 + k         window w: k 0..7 = outs %o0-%o7,
//                                  k 8..15 = locals %l0-%l7
// (the ins of window w alias the outs of window w+1, so outs + locals of
// every window cover the whole file).  Pre and post register lists are
// sparse: absent index == zero.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "cpu/config.hpp"
#include "cpu/state.hpp"
#include "isa/isa.hpp"

namespace la::conform {

/// The CPU configuration axes a vector pins (everything else is the
/// default CpuConfig).  quirk_subx is the deliberate SUBX fault knob:
/// quirk-on vectors prove the corpus distinguishes the config axes.
struct VecConfig {
  unsigned nwindows = 8;
  bool has_mul = true;
  bool has_div = true;
  bool quirk_subx = false;

  cpu::CpuConfig cpu_config() const {
    cpu::CpuConfig c;
    c.nwindows = nwindows;
    c.has_mul = has_mul;
    c.has_div = has_div;
    c.quirk_subx_no_carry = quirk_subx;
    return c;
  }
};

/// Serializable architectural state (sparse registers / ASRs / memory).
struct ArchState {
  u32 pc = 0;
  u32 npc = 0;
  u32 psr = 0;  // packed form (cpu::Psr::pack / unpack)
  u32 y = 0;
  u32 wim = 0;
  u32 tbr = 0;
  bool error_mode = false;
  std::map<u32, u32> regs;  // flat index -> value, nonzero only
  std::map<u32, u32> asr;   // asr index (1..31) -> value, nonzero only
  std::map<u32, u32> mem;   // word address -> word value
};

/// Reference-model observations (informational for the pipeline legs;
/// enforced on the IntegerUnit legs, whose nominal timing is part of the
/// architectural contract the corpus pins).
struct RefInfo {
  bool trapped = false;
  u8 tt = 0;       // last trap taken, if any
  u64 cycles = 0;  // total nominal cycles over all steps
};

struct TestVector {
  std::string name;  // "<mnemonic>/<case>", unique within the corpus
  VecConfig cfg;
  int steps = 1;  // 1, or 2 for delayed control transfers (CTI + slot)
  std::vector<std::pair<u32, u32>> code;  // (address, instruction word)
  ArchState pre;
  ArchState post;
  RefInfo ref;
};

/// One per-mnemonic corpus file: the cases plus the generator parameters
/// that reproduce them (the drift gate regenerates with these).
struct CorpusFile {
  std::string mnemonic;
  u64 seed = 0;
  int cases = 0;  // seeded case count requested (edges come on top)
  std::vector<TestVector> vectors;
};

// --- register-file flattening ------------------------------------------

inline u32 flat_reg_count(unsigned nwindows) { return 8 + 16 * nwindows; }

/// CpuState accessors for a flat index (see file comment for the scheme).
u32 flat_reg_get(const cpu::CpuState& st, u32 idx);
void flat_reg_set(cpu::CpuState& st, u32 idx, u32 value);
/// Human name for a flat index, e.g. "g3" or "w2.l5".
std::string flat_reg_name(u32 idx);

/// Overwrite `st` (freshly constructed from the vector's config) with the
/// sparse ArchState.  Unlisted registers/ASRs become zero.
void apply_state(const ArchState& a, cpu::CpuState& st);

/// Capture the scalar state + nonzero registers/ASRs of `st`.  Memory is
/// the caller's concern (only the generator knows the touched set).
ArchState capture_state(const cpu::CpuState& st);

// --- JSON --------------------------------------------------------------

/// One vector as a single-line JSON object.
std::string to_json(const TestVector& v);
/// Whole corpus file (header + one case per line).
std::string to_json(const CorpusFile& f);

/// Parse a corpus file.  Returns false and fills `err` on malformed input.
bool parse_corpus_file(const std::string& text, CorpusFile& out,
                       std::string& err);

/// First difference between two ArchStates ("" when identical), reported
/// as "field: <a> vs <b>" — the replay harness passes (got, want).
std::string diff_states(const ArchState& a, const ArchState& b);

/// First difference between two vectors ("" when identical) — drives
/// `lvec diff` and the round-trip tests.
std::string diff_vectors(const TestVector& a, const TestVector& b);

}  // namespace la::conform
