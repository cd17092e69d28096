#include "fuzz/coverage.hpp"

#include <bit>
#include <cmath>
#include <sstream>

namespace la::fuzz {

u32 metric_bucket_bit(double value) {
  if (!(value > 0.0)) return 0;  // zero/negative/NaN: no signal
  const int b = 1 + static_cast<int>(std::floor(std::log2(value)));
  return 1u << (b > 31 ? 31 : b);
}

void add_metric_features(CoverageSample& sample, const std::string& prefix,
                         const metrics::Snapshot& snap) {
  for (const auto& [name, value] : snap.values) {
    const u32 bit = metric_bucket_bit(value);
    if (bit) sample.metric_buckets[prefix + name] |= bit;
  }
}

void add_step_features(CoverageSample& sample, const cpu::StepResult& r) {
  if (r.annulled) {
    sample.annulled_seen = true;
    return;
  }
  if (r.trapped) sample.traps.set(r.tt);
  if (r.ins.valid()) {
    sample.mnemonics.set(static_cast<std::size_t>(r.ins.mn));
  }
}

std::size_t CoverageMap::count_new(const CoverageSample& sample,
                                   bool commit) {
  std::size_t fresh = 0;
  fresh += (sample.mnemonics & ~seen_.mnemonics).count();
  fresh += (sample.traps & ~seen_.traps).count();
  if (sample.annulled_seen && !seen_.annulled_seen) ++fresh;
  for (const auto& [name, mask] : sample.metric_buckets) {
    const auto it = seen_.metric_buckets.find(name);
    const u32 old = it == seen_.metric_buckets.end() ? 0u : it->second;
    fresh += static_cast<std::size_t>(std::popcount(mask & ~old));
  }
  if (commit) {
    seen_.mnemonics |= sample.mnemonics;
    seen_.traps |= sample.traps;
    seen_.annulled_seen = seen_.annulled_seen || sample.annulled_seen;
    for (const auto& [name, mask] : sample.metric_buckets) {
      seen_.metric_buckets[name] |= mask;
    }
    features_ += fresh;
  }
  return fresh;
}

std::size_t CoverageMap::merge(const CoverageSample& sample) {
  return count_new(sample, true);
}

std::size_t CoverageMap::novelty(const CoverageSample& sample) const {
  // count_new(commit=false) does not mutate; cast away const locally.
  return const_cast<CoverageMap*>(this)->count_new(sample, false);
}

std::string CoverageMap::summary() const {
  std::ostringstream os;
  os << features_ << " features (" << seen_.mnemonics.count()
     << " mnemonics, " << seen_.traps.count() << " trap types, "
     << seen_.metric_buckets.size() << " metrics)";
  return os.str();
}

}  // namespace la::fuzz
