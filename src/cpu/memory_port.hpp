// The memory interface the functional integer unit executes against.
//
// IntegerUnit's SparcCore hooks (cpu/sparc_core.hpp) reach memory through
// this port, typically a FlatMemory.  The timed LeonPipeline runs the same
// core but wires its data hooks straight to its cache/AHB/SDRAM stack,
// which also returns the stall cycles, so it needs no port.  Access
// failure (bus error, unmapped address) becomes a data/instruction access
// exception in the CPU.
#pragma once

#include "common/types.hpp"

namespace la::cpu {

class MemoryPort {
 public:
  virtual ~MemoryPort() = default;

  /// Read `size` bytes (1, 2, 4, or 8) at an already-aligned address.
  /// Returns false on access error (unmapped / bus error).
  virtual bool read(Addr addr, unsigned size, u64& out) = 0;

  /// Write `size` bytes at an already-aligned address.
  virtual bool write(Addr addr, unsigned size, u64 value) = 0;

  /// Instruction fetch (word-aligned).  Split from read() so caches can
  /// route it to the I-side.
  virtual bool fetch(Addr addr, u32& insn) {
    u64 v = 0;
    if (!read(addr, 4, v)) return false;
    insn = static_cast<u32>(v);
    return true;
  }
};

}  // namespace la::cpu
