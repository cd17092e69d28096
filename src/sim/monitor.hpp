// Debug monitor for the Liquid system: breakpoints, data watchpoints,
// single-step, execution history, and human-readable inspection.  The
// paper's debugging story is error-state packets (§4.1); this is the
// interactive complement a developer wants when a program dies on the
// remote node — and what the examples use to show what the CPU is doing.
#pragma once

#include <deque>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "sim/liquid_system.hpp"

namespace la::sim {

class Monitor {
 public:
  explicit Monitor(LiquidSystem& sys) : sys_(sys) {}

  // ---- breakpoints ----
  void add_breakpoint(Addr pc) { breakpoints_.insert(pc); }
  void remove_breakpoint(Addr pc) { breakpoints_.erase(pc); }

  // ---- watchpoints ----
  enum class Watch : u8 { kRead, kWrite, kAccess };
  struct Watchpoint {
    Addr lo;
    Addr hi;  // inclusive
    Watch kind;
  };
  void add_watchpoint(Addr lo, Addr hi, Watch kind) {
    watchpoints_.push_back({lo, hi, kind});
  }

  // ---- run control ----
  enum class StopReason : u8 {
    kBreakpoint,   // about to execute a breakpointed instruction
    kWatchpoint,   // the last step touched a watched range
    kStepLimit,    // max_steps elapsed
    kErrorMode,    // the CPU halted in error mode
  };
  struct Stop {
    StopReason reason;
    Addr pc = 0;         // where execution is stopped (next instruction)
    Addr access = 0;     // faulting/watched data address if relevant
    u64 steps = 0;       // instructions executed during this cont()
  };

  /// Execute one instruction regardless of breakpoints.
  cpu::StepResult step_one();

  /// Run until a breakpoint/watchpoint/error or `max_steps`.
  Stop cont(u64 max_steps = 1'000'000);

  // ---- inspection ----
  /// "40000100: 82102007  or %g0, 7, %g1" lines around `pc`.
  std::string disassemble_around(Addr pc, unsigned before = 2,
                                 unsigned after = 4) const;
  /// Formatted dump of the current window's registers and control state.
  std::string registers() const;
  /// Word read through the debug port (no timing side effects).
  std::optional<u32> read_word(Addr addr) const;

  /// The last `n` executed (pc, disassembly) pairs, oldest first.
  std::vector<std::pair<Addr, std::string>> history(std::size_t n = 16) const;

 private:
  void record(const cpu::StepResult& r);
  bool watches_hit(const cpu::StepResult& r, Addr& which) const;

  static constexpr std::size_t kHistory = 64;

  LiquidSystem& sys_;
  std::set<Addr> breakpoints_;
  std::vector<Watchpoint> watchpoints_;
  std::deque<cpu::StepResult> trail_;
};

}  // namespace la::sim
