// Configuration knobs of the LEON-style integer unit.
//
// These are exactly the "liquid" degrees of freedom the paper proposes to
// reconfigure (Section 1: modifiable pipeline depth, hardware for frequent
// instructions, new instructions) restricted to the ones that change
// observable cycle counts in our model.
#pragma once

#include <cassert>

#include "common/types.hpp"

namespace la::cpu {

struct CpuConfig {
  /// Number of register windows (SPARC V8 allows 2..32; LEON2 default 8).
  unsigned nwindows = 8;

  /// Hardware multiplier present?  Without it UMUL/SMUL raise
  /// illegal_instruction (software must emulate), as on a minimal LEON.
  bool has_mul = true;
  /// Hardware divider present?
  bool has_div = true;

  /// Latency of a hardware multiply in cycles (LEON2 offers 1/2/4/5-cycle
  /// multiplier variants; 5 is the smallest-area iterative one).
  Cycles mul_latency = 5;
  /// Latency of the iterative divider (LEON2: 35 cycles).
  Cycles div_latency = 35;

  /// Load / store extra cycles beyond the 1-cycle base (LEON2 pipeline:
  /// ld 2 total, ldd 3, st 3, std 4 when everything hits).
  Cycles load_extra = 1;
  Cycles load_double_extra = 2;
  Cycles store_extra = 2;
  Cycles store_double_extra = 3;

  /// Taken control transfers spend one extra cycle refilling fetch.
  Cycles cti_extra = 1;

  /// Cycles from trap detection to the first instruction of the handler
  /// (LEON2 trap latency is 4-5 cycles).
  Cycles trap_latency = 4;

  /// Deliberate semantic fault: SUBX ignores the carry-in.  Exists solely
  /// so the differential fuzzer can prove, end to end, that it detects and
  /// minimizes a real divergence (lfuzz --inject-bug; see docs/TESTING.md).
  /// Never set in production configurations.
  bool quirk_subx_no_carry = false;

  bool valid() const { return nwindows >= 2 && nwindows <= 32; }
};

}  // namespace la::cpu
