// Trace analyzer (Fig 1, left loop).
//
// "Execution traces are analyzed to identify candidate portions of an
// application whose performance could be improved through
// reconfigurability."  The analyzer ingests trace records — streamed from
// the node as datagrams, or built from the node's step hook — accumulates
// an instruction/memory profile, and recommends a configuration from the
// pre-generated space: data working set drives the D-cache size, code
// footprint the I-cache, and multiply density the multiplier variant.
#pragma once

#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "liquid/arch_config.hpp"
#include "net/trace_stream.hpp"

namespace la::liquid {

struct TraceReport {
  u64 instructions = 0;
  u64 annulled = 0;
  u64 loads = 0;
  u64 stores = 0;
  u64 multiplies = 0;
  u64 divides = 0;
  u64 traps = 0;

  /// Unique 32-byte-granule footprints.
  u64 data_working_set_bytes = 0;
  u64 code_footprint_bytes = 0;

  /// Most common load/store stride (bytes between successive accesses
  /// from the same PC); 0 if no repeated-PC accesses were seen.
  i64 dominant_stride = 0;

  /// Hottest program counters (descending by execution count).
  std::vector<std::pair<Addr, u64>> hot_pcs;
};

class TraceAnalyzer {
 public:
  /// One instruction step's record: off the wire (the paper streams
  /// instrumented traces over the network to the Trace Analyzer), or
  /// TraceRecord::from_step() of a node step, fed directly.
  void ingest(const net::TraceRecord& t);

  /// Restrict profiling to PCs in [lo, hi] — the application, not the boot
  /// ROM's polling spin.  Default: everything.
  void set_focus(Addr lo, Addr hi) {
    focus_lo_ = lo;
    focus_hi_ = hi;
  }

  void reset();
  TraceReport report(std::size_t top_pcs = 8) const;

  /// Pick the best configuration from `space` for the observed behaviour.
  /// The D-cache choice replays the recorded line set against each
  /// candidate geometry and counts per-set conflicts — capacity alone is
  /// not enough: the paper's own kernel touches only 1 KB of distinct
  /// lines but needs a 4 KB direct-mapped cache because the lines are
  /// spread 128 B apart and alias in anything smaller.
  ArchConfig recommend(const ConfigSpace& space) const;

  /// Lines that cannot co-reside for a candidate config (approximate
  /// conflict count when replaying the trace's unique line set).
  u64 conflict_pressure(const ArchConfig& c) const;

 private:
  static constexpr u32 kGranule = 32;

  Addr focus_lo_ = 0;
  Addr focus_hi_ = 0xffffffff;
  u64 instructions_ = 0;
  u64 annulled_ = 0;
  u64 loads_ = 0;
  u64 stores_ = 0;
  u64 multiplies_ = 0;
  u64 divides_ = 0;
  u64 traps_ = 0;
  std::unordered_set<Addr> data_lines_;
  std::unordered_set<Addr> code_lines_;
  /// The granule code_lines_ took last: straight-line code stays in it,
  /// so only a change of granule needs the insert.
  Addr last_code_line_ = ~Addr{0};
  std::unordered_map<Addr, Addr> last_addr_by_pc_;
  /// Ordered: dominant_stride is the lowest of the most frequent strides.
  std::map<i64, u64> stride_histogram_;
  std::unordered_map<Addr, u64> pc_counts_;  // report() sorts them
};

}  // namespace la::liquid
