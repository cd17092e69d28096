#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sasm/assembler.hpp"
#include "sasm/runtime.hpp"

namespace fleetbench {

namespace {

// Kernel sizes.  A node_progs job restores a 6 MB post-LOAD snapshot
// (about 20 ms of host time) before it runs, so each kernel runs 0.8-1.9M
// simulated instructions for the CPU simulation to dominate the job.
constexpr u32 kFig7Bound = 8'000'000;   // 250k iterations of the walk
constexpr u32 kStreamWords = 16384;     // 3 x 64 KB arrays, 193 LOAD chunks
constexpr u32 kMemtestWords = 40960;    // 160 KB SDRAM window, 3 patterns
constexpr u32 kCrcBlocks = 96;          // 24 KB of input
constexpr u32 kSortWords = 8192;        // quicksort input
constexpr u32 kReadbackCap = 256;       // READ_MEMORY's per-command cap

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Replace the one occurrence of `from` in `src`; throws when absent so a
/// changed progs/ source fails loudly instead of running at the old size.
std::string replace_once(std::string src, const std::string& from,
                         const std::string& to) {
  const std::size_t at = src.find(from);
  if (at == std::string::npos) {
    throw std::runtime_error("kernel rewrite: '" + from + "' not found");
  }
  src.replace(at, from.size(), to);
  return src;
}

/// Rewrite a `.equ name, value` line (the progs/ sizing convention).
std::string with_equ(std::string src, const std::string& name, u32 value) {
  const std::string key = ".equ " + name + ",";
  const std::size_t at = src.find(key);
  if (at == std::string::npos) {
    throw std::runtime_error("kernel rewrite: no .equ " + name);
  }
  const std::size_t eol = src.find('\n', at);
  src.replace(at, eol - at, key + " " + std::to_string(value));
  return src;
}

/// The words after the `data:` label (through end of file).
std::size_t data_block_start(const std::string& src) {
  const std::size_t label = src.find("\ndata:");
  if (label == std::string::npos) {
    throw std::runtime_error("kernel rewrite: no data: label");
  }
  return src.find(".word", label);
}

/// Fixed pseudo-random sort input (the kernel is the same on every run;
/// only the job order depends on the seed).
std::vector<u32> sort_input() {
  std::vector<u32> v(kSortWords);
  u32 x = 0x2545f491u;
  for (u32& w : v) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    w = x;
  }
  return v;
}

std::vector<double> zipf_cdf(u32 n, double s) {
  std::vector<double> cdf(n);
  double total = 0;
  for (u32 i = 0; i < n; ++i) total += 1.0 / std::pow(i + 1.0, s);
  double acc = 0;
  for (u32 i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(i + 1.0, s) / total;
    cdf[i] = acc;
  }
  cdf[n - 1] = 1.0;
  return cdf;
}

}  // namespace

std::optional<Workload> workload_by_name(std::string_view name) {
  if (name == "farm_distinct") return Workload::kFarmDistinct;
  if (name == "node_progs") return Workload::kNodeProgs;
  if (name == "gate_open") return Workload::kGateOpen;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kFarmDistinct:
      return "farm_distinct";
    case Workload::kNodeProgs:
      return "node_progs";
    case Workload::kGateOpen:
      return "gate_open";
  }
  return "?";
}

// ---- farm_distinct -------------------------------------------------------

DistinctSource::DistinctSource(u64 seed, unsigned configs)
    : gen_([seed, configs] {
        la::farm::WorkloadConfig wc;
        wc.seed = seed;
        wc.configs = configs;
        return wc;
      }()) {}

BenchJob DistinctSource::next() {
  la::farm::GeneratedJob g = gen_.next();
  return {std::move(g.job), {g.expected}, count_++};
}

// ---- node_progs ----------------------------------------------------------

u32 stream_sum(u32 words) {
  u32 sum = 0;
  for (u32 i = 0; i < words; ++i) {
    const u32 a = 7 + 3 * i;
    const u32 b = 3 * a;
    const u32 c = a + b;
    sum += b + 3 * c;
  }
  return sum;
}

u32 crc32_of_ramp(u32 blocks) {
  u32 crc = 0xffffffffu;
  for (u32 n = 0; n < blocks * 256; ++n) {
    crc ^= n & 0xffu;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0xedb88320u : crc >> 1;
    }
  }
  return ~crc;
}

std::vector<Kernel> node_progs_kernels(const std::string& progs_dir) {
  const auto path = [&](const char* f) { return progs_dir + "/" + f; };
  std::vector<Kernel> ks;

  // fig7: the Fig 7 strided walk with its loop bound raised.  It reads
  // back only its own cycle count, so the audit pins it (see BenchJob).
  ks.push_back({replace_once(slurp(path("fig7.s")), "set 1000000, %o2",
                             "set " + std::to_string(kFig7Bound) + ", %o2"),
                "cycles", 1, {}});

  // stream: copy/scale/add/triad over three kStreamWords arrays.
  ks.push_back({with_equ(slurp(path("stream.s")), "STREAM_WORDS", kStreamWords),
                "done_flag", 2, {1u, stream_sum(kStreamWords)}});

  // memtest: three walking patterns over a wider SDRAM window.
  ks.push_back({replace_once(slurp(path("memtest.s")), "WORDS = 4096",
                             "WORDS = " + std::to_string(kMemtestWords)),
                "errors", 2, {0u, 3 * kMemtestWords}});

  // crc32: the 256-byte ramp repeated kCrcBlocks times.
  {
    std::string src = slurp(path("crc32.s"));
    const std::string ramp = "    " + src.substr(data_block_start(src));
    for (u32 b = 1; b < kCrcBlocks; ++b) src += ramp;
    src = replace_once(src, "set 256, %o1",
                       "set " + std::to_string(256 * kCrcBlocks) + ", %o1");
    ks.push_back({src, "crc", 1, {crc32_of_ramp(kCrcBlocks)}});
  }

  // quicksort: kSortWords pseudo-random words instead of the 64-word
  // table; deep recursion keeps the window overflow/underflow traps busy.
  // The readback window is done_flag plus the smallest 255 sorted words.
  {
    std::string src = slurp(path("quicksort.s"));
    src = replace_once(src, "set data + 252, %o1",
                       "set data + " + std::to_string(4 * (kSortWords - 1)) +
                           ", %o1");
    src.erase(data_block_start(src));
    const std::vector<u32> input = sort_input();
    for (std::size_t i = 0; i < input.size(); ++i) {
      src += i % 8 == 0 ? "\n    .word " : ", ";
      src += std::to_string(input[i]);
    }
    src += '\n';
    src += la::sasm::rt::runtime_source();
    std::vector<u32> sorted = input;
    std::sort(sorted.begin(), sorted.end());
    std::vector<u32> expect = {1u};
    expect.insert(expect.end(), sorted.begin(),
                  sorted.begin() + (kReadbackCap - 1));
    ks.push_back({src, "done_flag",
                  static_cast<la::u16>(kReadbackCap), expect});
  }
  return ks;
}

std::vector<la::liquid::ArchConfig> node_progs_configs() {
  std::vector<la::liquid::ArchConfig> cs;
  for (const u32 d : {1024u, 4096u}) {
    la::liquid::ArchConfig c;
    c.dcache_bytes = d;
    cs.push_back(c);
  }
  return cs;
}

std::vector<BenchJob> assemble_pairs(const std::vector<Kernel>& kernels,
                                     Samples& assemble_ms) {
  std::vector<BenchJob> pairs;
  for (const Kernel& k : kernels) {
    const auto t0 = std::chrono::steady_clock::now();
    const la::sasm::Image img = la::sasm::assemble_or_throw(k.source);
    assemble_ms.add(std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
    for (const la::liquid::ArchConfig& c : node_progs_configs()) {
      BenchJob b;
      b.job.config = c;
      b.job.program = img;
      b.job.result_addr = img.symbol(k.result_symbol);
      b.job.result_words = k.result_words;
      b.expect = k.expect;
      b.program = pairs.size();
      pairs.push_back(std::move(b));
    }
  }
  return pairs;
}

PairSource::PairSource(u64 seed, std::size_t pairs)
    : pairs_(pairs), rng_(seed ^ 0x9f0c5a11e5ull) {}

PairPick PairSource::next() {
  PairPick p;
  p.pair = rng_.below(static_cast<u32>(pairs_));
  p.owner = "user" + std::to_string(rng_.below(8));
  return p;
}

// ---- gate_open -----------------------------------------------------------

std::vector<Arrival> poisson_arrivals(u64 seed, double rate_per_s,
                                      double window_s, u32 tenants,
                                      double zipf_s, std::size_t pool) {
  la::Rng rng(seed ^ 0x10ad10adull);
  const std::vector<double> cdf = zipf_cdf(tenants, zipf_s);
  std::vector<Arrival> out(static_cast<std::size_t>(std::llround(rate_per_s * window_s)));
  for (Arrival& a : out) a.due_ms = rng.unit() * window_s * 1000.0;
  std::sort(out.begin(), out.end(),
            [](const Arrival& x, const Arrival& y) { return x.due_ms < y.due_ms; });
  for (Arrival& a : out) {
    a.tenant = static_cast<u32>(
        std::lower_bound(cdf.begin(), cdf.end(), rng.unit()) - cdf.begin());
    a.program = rng.below(static_cast<u32>(pool));
  }
  return out;
}

}  // namespace fleetbench
