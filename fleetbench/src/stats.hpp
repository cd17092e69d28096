// Sample sets and nearest-rank percentiles for the fleet benchmark.
//
// Every timing the benchmark reports is a nearest-rank percentile over the
// raw samples of one run (no bucketing, no interpolation), together with
// the sample count, so a reader can tell how many samples lie beyond a
// tail percentile.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace fleetbench {

/// 1-based nearest rank of quantile q in [0, 1] over n samples:
/// ceil(q * n), at least 1.
inline std::size_t nearest_rank(std::size_t n, double q) {
  const auto r = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(r, 1, n == 0 ? 1 : n);
}

/// Samples strictly beyond the nearest-rank q percentile.
inline std::size_t beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

class Samples {
 public:
  void add(double x) { v_.push_back(x); }
  std::size_t count() const { return v_.size(); }

  /// Nearest-rank percentile; 0 for an empty set.
  double pct(double q) const {
    if (v_.empty()) return 0.0;
    std::vector<double> s = v_;
    const std::size_t k = nearest_rank(s.size(), q) - 1;
    std::nth_element(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(k), s.end());
    return s[k];
  }
  double median() const { return pct(0.5); }

 private:
  std::vector<double> v_;
};

}  // namespace fleetbench
