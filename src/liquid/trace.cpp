#include "liquid/trace.hpp"

#include <algorithm>

#include "common/bits.hpp"

namespace la::liquid {

void TraceAnalyzer::ingest(const net::TraceRecord& t) {
  if (t.pc < focus_lo_ || t.pc > focus_hi_) return;
  if (t.annulled) {
    ++annulled_;
    return;
  }
  if (t.trapped) {
    ++traps_;
    return;
  }
  ++instructions_;
  const Addr code_line = static_cast<Addr>(align_down(t.pc, kGranule));
  if (code_line != last_code_line_) {
    code_lines_.insert(code_line);
    last_code_line_ = code_line;
  }
  ++pc_counts_[t.pc];

  if (t.is_mul) ++multiplies_;
  if (t.is_div) ++divides_;

  if (t.mem_access) {
    if (t.mem_write) ++stores_;
    if (t.is_load) ++loads_;
    data_lines_.insert(static_cast<Addr>(align_down(t.mem_addr, kGranule)));
    const auto [it, first] = last_addr_by_pc_.try_emplace(t.pc, t.mem_addr);
    if (!first) {
      const i64 stride =
          static_cast<i64>(t.mem_addr) - static_cast<i64>(it->second);
      if (stride != 0) ++stride_histogram_[stride];
      it->second = t.mem_addr;
    }
  }
}

void TraceAnalyzer::reset() {
  const Addr lo = focus_lo_, hi = focus_hi_;
  *this = TraceAnalyzer();
  focus_lo_ = lo;
  focus_hi_ = hi;
}

TraceReport TraceAnalyzer::report(std::size_t top_pcs) const {
  TraceReport t;
  t.instructions = instructions_;
  t.annulled = annulled_;
  t.loads = loads_;
  t.stores = stores_;
  t.multiplies = multiplies_;
  t.divides = divides_;
  t.traps = traps_;
  t.data_working_set_bytes = data_lines_.size() * kGranule;
  t.code_footprint_bytes = code_lines_.size() * kGranule;

  if (!stride_histogram_.empty()) {
    const auto best = std::max_element(
        stride_histogram_.begin(), stride_histogram_.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    t.dominant_stride = best->first;
  }

  std::vector<std::pair<Addr, u64>> pcs(pc_counts_.begin(),
                                        pc_counts_.end());
  // Tie-break equal counts on the address so the ranking (and everything
  // downstream: reports, goldens, truncation at top_pcs) is deterministic.
  std::sort(pcs.begin(), pcs.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  if (pcs.size() > top_pcs) pcs.resize(top_pcs);
  t.hot_pcs = std::move(pcs);
  return t;
}

u64 TraceAnalyzer::conflict_pressure(const ArchConfig& c) const {
  // Re-map the recorded 32-byte granules onto the candidate's sets.  The
  // granule floor slightly under-counts for lines narrower than 32 B,
  // which only makes the analyzer conservative.
  const u32 line = std::max(c.dcache_line, kGranule);
  const u32 sets =
      std::max<u32>(1, c.dcache_bytes / line / c.dcache_ways);
  std::map<u64, u32> per_set;
  std::unordered_set<u64> lines;
  for (const Addr a : data_lines_) lines.insert(a / line);
  for (const u64 l : lines) ++per_set[l % sets];
  u64 over = 0;
  for (const auto& [set, count] : per_set) {
    if (count > c.dcache_ways) over += count - c.dcache_ways;
  }
  return over;
}

ArchConfig TraceAnalyzer::recommend(const ConfigSpace& space) const {
  const TraceReport t = report();
  const auto points = space.enumerate();
  if (points.empty()) return ArchConfig::paper_baseline();

  // Score: zero conflicts first, then the smallest area (smaller caches
  // synthesize faster and clock higher).
  const auto score = [&](const ArchConfig& c) -> double {
    double s = 1e6 * static_cast<double>(conflict_pressure(c));
    if (c.icache_bytes < t.code_footprint_bytes) {
      s += 1e5 * (1.0 - static_cast<double>(c.icache_bytes) /
                            static_cast<double>(t.code_footprint_bytes));
    }
    s += c.dcache_bytes / 64.0 + c.icache_bytes / 256.0;  // area pressure
    // Multiplier choice: dense multiply streams want a faster unit.
    const double mul_density =
        instructions_ ? static_cast<double>(multiplies_) / instructions_
                      : 0.0;
    if (mul_density > 0.05) {
      s += static_cast<double>(c.mul_latency) * mul_density * 5000.0;
    }
    return s;
  };

  const ArchConfig* best = &points.front();
  double best_score = score(*best);
  for (const ArchConfig& c : points) {
    const double sc = score(c);
    if (sc < best_score) {
      best = &c;
      best_score = sc;
    }
  }
  return *best;
}

}  // namespace la::liquid
