// Black-box flight recorder: the node's last moments, post-mortem.
//
// The paper's §4.1 error path tells the operator *that* a node died (the
// 0xff/0x50 watchdog packet) but not *what it was doing*.  This recorder
// keeps a fixed-size ring of compact events — sampled PCs, leon_ctrl
// state transitions, watchdog trips, injected-fault firings — written
// with a handful of stores per event and no allocation, so it can stay on
// while the node runs at full speed.  When something trips (watchdog, a
// fault campaign classifying a detection, the fuzzer finding a
// divergence), the ring is frozen into a JSON dump whose tail shows the
// wedge PC and the error transition.
//
// Retired-PC events are sampled (every Nth step, default 64) so a ring
// of a few thousand entries still covers hundreds of thousands of cycles
// of history; errors and state changes always record.
//
// Threading: single-writer, same contract as the metrics registry — only
// the thread stepping the node may record; dumps happen after the node is
// quiescent.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace la::sim {

enum class FlightEventKind : u8 {
  kRetire = 0,     // a = PC, b = instruction word (sampled; the node
                   // records 0)
  kTrap = 1,       // a = PC, b = trap type
  kBusError = 2,   // a = address, b = 0
  kCtrlState = 3,  // a = old state, b = new state
  kWatchdog = 4,   // a = PC at trip, b = budget
  kFaultFired = 5, // a = site, b = detail (address / bit)
  kNote = 6,       // a, b free-form (markers from tools/tests)
};

const char* flight_event_kind_name(FlightEventKind k);

struct FlightEvent {
  u64 cycle = 0;
  FlightEventKind kind = FlightEventKind::kRetire;
  u64 a = 0;
  u64 b = 0;
};

class FlightRecorder {
 public:
  /// `capacity` rounds up to a power of two (minimum 16).  `pc_sample`
  /// records every Nth retired instruction (0 disables retire sampling
  /// entirely; traps and errors still record).
  explicit FlightRecorder(std::size_t capacity = 4096, u32 pc_sample = 64);

  void record(u64 cycle, FlightEventKind kind, u64 a, u64 b) {
    FlightEvent& e = ring_[head_ & mask_];
    e.cycle = cycle;
    e.kind = kind;
    e.a = a;
    e.b = b;
    ++head_;
  }

  /// The retire fast path: counts every call, records every `pc_sample`th.
  /// One decrement and a predictable branch when not sampling.
  void record_retire(u64 cycle, u64 pc, u64 insn) {
    if (pc_sample_ == 0) return;
    if (--retire_countdown_ != 0) return;
    retire_countdown_ = pc_sample_;
    record(cycle, FlightEventKind::kRetire, pc, insn);
  }

  /// Retirements until the next one is sampled (0 = sampling disabled).
  /// Run loops use it as a step budget so only a run's last step can be
  /// the sampled one.
  u32 retires_until_sample() const {
    return pc_sample_ == 0 ? 0 : retire_countdown_;
  }

  /// Count a run of `n` retirements, the last at `cycle`/`pc`, with
  /// n <= retires_until_sample(): the same ring as n record_retire calls
  /// with a zero instruction word.
  void record_retires(u64 n, u64 cycle, u64 pc) {
    if (pc_sample_ == 0 || n == 0) return;
    retire_countdown_ -= static_cast<u32>(n - 1);
    record_retire(cycle, pc, 0);
  }

  std::size_t capacity() const { return ring_.size(); }
  u64 total_recorded() const { return head_; }
  u32 pc_sample() const { return pc_sample_; }

  /// Events oldest-first (at most `capacity()` of them).
  std::vector<FlightEvent> events() const;

  /// JSON dump: {"reason": ..., "cycle": N, "dropped": N, "events": [...]}
  /// with each event {"cycle","kind","a","b"} (kind by name, a/b hex).
  /// `reason` names the trigger (watchdog, divergence, detection, manual).
  std::string to_json(const std::string& reason, u64 cycle,
                      int indent = 2) const;

  void clear();

 private:
  std::vector<FlightEvent> ring_;
  std::size_t mask_ = 0;
  u64 head_ = 0;  // total events ever recorded; ring index = head_ & mask_
  u32 pc_sample_ = 64;
  u32 retire_countdown_ = 64;
};

}  // namespace la::sim
