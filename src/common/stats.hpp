// Lightweight statistics accumulators used by caches, buses, and benches.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace la {

/// Streaming mean/variance/min/max (Welford's algorithm).
class OnlineStats {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  /// Fold another accumulator in (Chan et al.'s parallel update): the
  /// result is exactly what add()-ing both streams into one accumulator
  /// would have produced.  Used when per-thread stats are combined after
  /// the threads quiesce (e.g. per-node registries into a fleet report).
  void merge(const OnlineStats& o) {
    if (o.n_ == 0) return;
    if (n_ == 0) {
      *this = o;
      return;
    }
    const u64 n = n_ + o.n_;
    const double delta = o.mean_ - mean_;
    mean_ += delta * static_cast<double>(o.n_) / static_cast<double>(n);
    m2_ += o.m2_ + delta * delta * static_cast<double>(n_) *
                       static_cast<double>(o.n_) / static_cast<double>(n);
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
    n_ = n;
  }

  u64 count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }
  /// NaN when nothing was accumulated: an empty extremum is unknown, and
  /// a fabricated 0.0 reads as a real observation in reports.  JSON
  /// emitters render the NaN as null / omit the stat.
  double min() const {
    return n_ ? min_ : std::numeric_limits<double>::quiet_NaN();
  }
  double max() const {
    return n_ ? max_ : std::numeric_limits<double>::quiet_NaN();
  }

 private:
  u64 n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Nearest-rank percentile of an already-sorted sample vector: the
/// smallest sample with at least a fraction `q` of the set at or below it.
/// 0 for an empty set.
inline double nearest_rank_percentile(const std::vector<double>& sorted,
                                      double q) {
  if (sorted.empty()) return 0.0;
  std::size_t i = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  if (i > 0) --i;
  return sorted[std::min(i, sorted.size() - 1)];
}

/// Ratio helper that reads as 0 when the denominator is 0.
inline double safe_ratio(u64 num, u64 den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace la
