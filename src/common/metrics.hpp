// Node-wide metrics registry (the observability core).
//
// The paper's methodology is built on *observing* the node: a hardware
// cycle counter (§5), instrumented traces streamed to the Trace Analyzer
// (Fig 1), and error-state packets (§4.1).  Every subsystem of this
// reproduction keeps counters; this registry gives them one hierarchical
// namespace (`cache.d.read_misses`, `sdram.wait_cycles`, ...), one
// snapshot operation stamped with the node clock, and one machine-readable
// JSON form — so reports, benches and the STATS_SNAPSHOT control command
// all read the same numbers.
//
// Two ways to put a metric in the registry:
//   * owned primitives — counter()/gauge()/histogram() return references
//     the caller bumps directly;
//   * bridged samples  — register_fn() wires an existing counter (the
//     components' own stats structs) in by callback, read at snapshot
//     time.  Zero cost on the hot path, no component rewrites.
//
// Threading: a registry is **single-writer** by contract.  All mutation —
// metric registration, counter bumps, histogram observations, and the
// component state a bridged SampleFn reads — must come from the one thread
// that owns the registry (in the farm: the worker that owns the node).
// There is no internal locking; snapshot() and merge_from() may be called
// from another thread only after synchronizing with the owner (e.g. the
// farm reads node registries under its mutex once no job is in flight).
// Fleet-level aggregation copies data *out* with merge_from() rather than
// sharing primitives across threads.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/stats.hpp"
#include "common/types.hpp"

namespace la::metrics {

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(u64 n = 1) { v_ += n; }
  u64 value() const { return v_; }
  void reset() { v_ = 0; }

 private:
  u64 v_ = 0;
};

/// A value that goes up and down (queue depth, current config, ...).
class Gauge {
 public:
  void set(double v) { v_ = v; }
  void add(double d) { v_ += d; }
  double value() const { return v_; }

 private:
  double v_ = 0.0;
};

/// Log-scale distribution: power-of-two buckets plus streaming moments
/// (OnlineStats).  Bucket 0 holds [0,1); bucket i>0 holds [2^(i-1), 2^i);
/// the last bucket absorbs everything larger.  Negative observations
/// clamp into bucket 0 (durations and sizes are non-negative by nature).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 33;

  void observe(double x);

  /// Fold another histogram in: buckets add, moments merge exactly
  /// (OnlineStats::merge).
  void merge(const Histogram& o);

  const OnlineStats& stats() const { return stats_; }
  u64 count() const { return stats_.count(); }
  const std::array<u64, kBuckets>& buckets() const { return buckets_; }

  /// Inclusive upper bound of bucket `i` (last bucket: +inf).
  static double bucket_limit(std::size_t i);

 private:
  OnlineStats stats_;
  std::array<u64, kBuckets> buckets_{};
};

/// Frozen histogram state inside a snapshot.
struct HistogramSnapshot {
  u64 count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;  // NaN when count == 0
  double max = 0.0;  // NaN when count == 0
  std::array<u64, Histogram::kBuckets> buckets{};
};

/// Point-in-time view of every registered metric, stamped with the node
/// clock.  Scalar values (counters, gauges, bridged samples) live in one
/// sorted map so iteration — and therefore the JSON — is deterministic.
struct Snapshot {
  u64 cycle = 0;
  std::map<std::string, double> values;
  std::map<std::string, HistogramSnapshot> histograms;

  bool has(const std::string& name) const { return values.count(name) != 0; }
  double value_or(const std::string& name, double fallback = 0.0) const;
  u64 value_u64(const std::string& name) const;

  /// `*this - older`: scalar deltas (gauges subtract too — callers pick
  /// which names are rate-like), histogram count/bucket deltas with the
  /// delta mean derived from the sums.  The result's cycle is the delta
  /// between the two stamps.  Names present only in `*this` pass through.
  Snapshot diff_since(const Snapshot& older) const;

  /// JSON object {"cycle": N, "metrics": {...}, "histograms": {...}}.
  /// `indent` 0 emits one line (wire form); histograms with count 0 are
  /// omitted entirely (empty stats are noise, see OnlineStats::min()).
  /// Non-finite scalars (NaN/inf) serialize as null.
  std::string to_json(int indent = 2) const;
};

/// Hierarchical, name-keyed registry.  Names are dotted paths; the
/// registry itself is flat — hierarchy is a naming convention, which keeps
/// lookup and serialization trivial.
class MetricsRegistry {
 public:
  using SampleFn = std::function<double()>;

  /// Get-or-create.  Requesting an existing name with a different kind
  /// throws std::logic_error (one name, one meaning).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Bridge an external counter in by callback; re-registering a name
  /// replaces the previous callback (idempotent component setup).
  void register_fn(const std::string& name, SampleFn fn);

  /// Drop one metric / every metric whose name starts with `prefix`.
  /// Components with a shorter lifetime than the registry (e.g. a
  /// ReconfigurationServer attached to a node) must unregister on death.
  bool unregister(const std::string& name);
  std::size_t unregister_prefix(const std::string& prefix);

  std::size_t size() const { return entries_.size(); }
  bool contains(const std::string& name) const {
    return entries_.count(name) != 0;
  }

  /// Sample everything.  `cycle` stamps the snapshot with the node clock.
  Snapshot snapshot(u64 cycle = 0) const;

  /// Fold another registry's current values into this one, name by name:
  /// counters add, gauges add, histograms merge, and bridged SampleFns are
  /// sampled now and accumulated into a gauge of the same name (a fleet
  /// aggregate has no live component to re-sample).  Kinds must agree with
  /// whatever the name already is here (fn -> gauge), or std::logic_error
  /// is thrown — merging identically-constructed per-node registries is
  /// always safe.  The caller must hold both sides quiescent (see the
  /// single-writer contract above).
  void merge_from(const MetricsRegistry& other);

 private:
  struct Entry {
    // Exactly one of these is set.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    SampleFn fn;
  };

  std::map<std::string, Entry> entries_;
};

/// Append a JSON-escaped copy of `s` (quotes included) to `out`.
void append_json_string(std::string& out, const std::string& s);

/// Append a JSON number: integral doubles in [0, 2^53] print without a
/// decimal point (counters stay exact and diff-able by eye); non-finite
/// values print as null.
void append_json_number(std::string& out, double v);

}  // namespace la::metrics
