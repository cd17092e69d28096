// Four-leg conformance replay.
//
// Every vector is run against the functional reference model, and against
// the timed pipeline with its host fast-path switch
// (PipelineConfig::host_fast_paths) off and on, stepping, plus its run()
// loop tier:
//
//   iu         cpu::IntegerUnit (the reference; one execution path)
//   pipe-slow  cpu::LeonPipeline, fast paths off
//   pipe-fast  cpu::LeonPipeline, fast paths on, via step()
//   pipe-run   cpu::LeonPipeline, fast paths on, via run() with the code
//              lines resident in the I-cache (the line tier)
//
// A leg passes when the full architectural post-state (pc/npc, PSR, Y,
// WIM, TBR, error mode, every register and ASR, the touched memory words)
// and the trap outcome match the vector.  The iu leg must also reproduce
// the reference's nominal cycle count — the functional model's timing is
// part of the contract the corpus pins; the pipeline's cycles depend on
// caches and the bus and are deliberately not checked.
#pragma once

#include <string>

#include "conform/vector.hpp"

namespace la::conform {

enum class Leg : u8 {
  kIu = 0,
  kPipeSlow,
  kPipeFast,
  kPipeRun,
};

inline constexpr Leg kAllLegs[] = {Leg::kIu, Leg::kPipeSlow, Leg::kPipeFast,
                                   Leg::kPipeRun};

/// Stable leg name ("iu", ...), used in reports and `lvec --leg`.
const char* leg_name(Leg leg);

/// Parse a leg name; false on unknown.
bool leg_from_name(const std::string& name, Leg& out);

/// Replay one vector on one leg.  "" on success, else the first
/// divergence: "<case> [<leg>] <field>: <got> vs <want>".
std::string replay_vector(const TestVector& v, Leg leg);

/// Replay on all four legs; first failing leg's report wins.
std::string replay_vector_all(const TestVector& v);

}  // namespace la::conform
