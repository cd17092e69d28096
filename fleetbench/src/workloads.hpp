// The benchmark's job sets: everything a workload submits is generated
// here, before any timing starts, together with what the audit expects
// each job to read back.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "farm/workload.hpp"
#include "stats.hpp"

namespace fleetbench {

using la::u32;
using la::u64;

enum class Workload { kFarmDistinct, kNodeProgs, kGateOpen };

/// Each round draws its jobs from its own stream, so a round's inputs do
/// not depend on how many jobs earlier rounds got through.
inline u64 round_seed(u64 seed, std::size_t round) {
  return seed * 0x9e3779b97f4a7c15ull + round;
}

std::optional<Workload> workload_by_name(std::string_view name);
const char* workload_name(Workload w);

/// One job plus its audit.  `expect` holds the host-predicted readback;
/// when it is empty the job's result cannot be predicted on the host (the
/// fig7 kernel reads back only its own cycle count), and the audit instead
/// pins the first readback of `program` and requires every later run of
/// it to match.
struct BenchJob {
  la::farm::FarmJob job;
  std::vector<u32> expect;
  std::size_t program = 0;  // index into the workload's distinct programs
};

// ---- farm_distinct -------------------------------------------------------

/// The seeded farm::WorkloadGenerator stream: every job a distinct
/// store, checksum or strided-walk program over `configs` Zipf-popular
/// configurations.  next() assembles the program.
class DistinctSource {
 public:
  explicit DistinctSource(u64 seed, unsigned configs = 8);
  BenchJob next();
  const std::vector<la::liquid::ArchConfig>& catalog() const {
    return gen_.catalog();
  }

 private:
  la::farm::WorkloadGenerator gen_;
  std::size_t count_ = 0;
};

// ---- node_progs ----------------------------------------------------------

/// One progs/ kernel resized for the benchmark, with its readback window
/// and host-side expected result (empty = pinned, see BenchJob).
struct Kernel {
  std::string source;  // rewritten assembly, runtime appended when needed
  std::string result_symbol;
  la::u16 result_words = 0;
  std::vector<u32> expect;
};

/// fig7, stream, memtest, crc32 and quicksort from `progs_dir`, with their
/// constants and loop bounds rewritten so each runs 0.8-1.9M simulated
/// instructions, stays under the 255-chunk LOAD limit, and finishes well
/// inside the server's 10M-step budget.
std::vector<Kernel> node_progs_kernels(const std::string& progs_dir);

/// The two architectures node_progs runs under: 1 KB and 4 KB D-cache.
std::vector<la::liquid::ArchConfig> node_progs_configs();

/// Assemble every (kernel, configuration) pair, numbered in order as
/// BenchJob::program; each kernel's assembly time lands in `assemble_ms`.
std::vector<BenchJob> assemble_pairs(const std::vector<Kernel>& kernels,
                                     Samples& assemble_ms);

/// One node_progs job: which pair runs, for which owner.
struct PairPick {
  std::size_t pair = 0;
  std::string owner;
};

/// Seeded picks over `pairs` (kernel, configuration) pairs: uniform pair,
/// one of 8 owners.
class PairSource {
 public:
  PairSource(u64 seed, std::size_t pairs);
  PairPick next();

 private:
  std::size_t pairs_;
  la::Rng rng_;
};

// ---- gate_open -----------------------------------------------------------

struct Arrival {
  double due_ms = 0;  // offset from the start of the arrival window
  u32 tenant = 0;     // Zipf-popular tenant index
  u32 program = 0;    // pool index
};

/// A Poisson process at `rate_per_s` over `window_s`, conditioned on its
/// mean count: rate x window arrivals at sorted uniform times, each
/// assigned a Zipf(`zipf_s`) tenant and a uniformly drawn pool program.
/// Fixing the count keeps the offered load equal across seeds.
std::vector<Arrival> poisson_arrivals(u64 seed, double rate_per_s,
                                      double window_s, u32 tenants,
                                      double zipf_s, std::size_t pool);

/// Host model of progs/stream.s: the mod-2^32 sum of a[] after triad.
u32 stream_sum(u32 words);
/// CRC-32 (IEEE, reflected) of the bytes 0..255 repeated `blocks` times.
u32 crc32_of_ramp(u32 blocks);

}  // namespace fleetbench
