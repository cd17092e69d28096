// Coverage feedback for the differential fuzzer.
//
// Two feature families:
//   * architectural bitmaps — which mnemonics retired, which trap types
//     were taken, whether an annulled delay slot was observed.  Folded in
//     step by step (add_step_features) as leg A steps the functional model.
//   * metric buckets — every counter of a PR-1 MetricsRegistry snapshot,
//     bucketed by power of two (the Histogram convention).  A program
//     that pushes `cache.d.write_misses` from the 8-bucket into the
//     64-bucket found new machine behaviour even if it retired the same
//     instruction set.
//
// CoverageMap accumulates features across the whole campaign; merge()
// returns how many features an input contributed, which is the corpus
// admission signal.
#pragma once

#include <bitset>
#include <cstddef>
#include <map>
#include <string>

#include "common/metrics.hpp"
#include "cpu/integer_unit.hpp"
#include "isa/isa.hpp"

namespace la::fuzz {

/// Features observed during one differential execution.
struct CoverageSample {
  std::bitset<static_cast<std::size_t>(isa::Mnemonic::kCount)> mnemonics;
  std::bitset<256> traps;
  bool annulled_seen = false;
  /// Metric name -> bitmask of log2 buckets the value landed in.
  std::map<std::string, u32> metric_buckets;
};

/// Log2 bucket of a sampled counter value; 0 values carry no signal and
/// return 0 (no bit).  Value v > 0 maps to bit (1 + floor(log2(v))),
/// clamped to bit 31.
u32 metric_bucket_bit(double value);

/// Fold every scalar of a registry snapshot into the sample, with `prefix`
/// namespacing the source (bare pipeline vs. full system runs count as
/// different feature spaces).
void add_metric_features(CoverageSample& sample, const std::string& prefix,
                         const metrics::Snapshot& snap);

/// Fold one step's architectural features (retired mnemonic, trap type,
/// annulled slot) into the sample's bitmaps.
void add_step_features(CoverageSample& sample, const cpu::StepResult& r);

/// Campaign-wide accumulated coverage.
class CoverageMap {
 public:
  /// Fold a sample in; returns the number of features not seen before.
  std::size_t merge(const CoverageSample& sample);
  /// Would merge() report anything new, without folding it in?
  std::size_t novelty(const CoverageSample& sample) const;

  std::size_t feature_count() const { return features_; }
  std::size_t trap_count() const { return seen_.traps.count(); }

  /// One-line human summary for fuzzer progress output.
  std::string summary() const;

 private:
  std::size_t count_new(const CoverageSample& sample, bool commit);

  CoverageSample seen_;
  std::size_t features_ = 0;
};

}  // namespace la::fuzz
