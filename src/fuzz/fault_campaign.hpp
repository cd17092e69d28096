// The fault-injection campaign behind `lfuzz --faults`.
//
// Each iteration: generate a clean-completing kSystem program, compute its
// expected data region on the functional reference, then boot-load-run it
// on a full node over lossy channels while a seeded FaultPlan damages the
// node mid-flight.  Every injected fault must end the run in one of three
// defensible states:
//
//   masked    the run completed, the data region matches, and no injected
//             damage survives (overwritten, refetched, or absorbed by a
//             protocol retry)
//   detected  the client failed *loudly* — a structured ClientError
//             (watchdog trip, parity refusal, deadline) — or the readback
//             refused parity-bad words
//   latent    the run completed correctly but damage is still sitting in
//             memory with bad parity (injected, never consumed; any future
//             read traps)
//
// Anything else — the run "succeeded" yet the data region silently
// disagrees with the reference — is a SILENT divergence: the campaign's
// exit-1 condition, recorded and delta-minimized like a fuzz divergence.
#pragma once

#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "fuzz/minimizer.hpp"
#include "fuzz/program_generator.hpp"

namespace la::fuzz {

struct FaultCampaignConfig {
  u64 seed = 1;
  /// Stop conditions; 0 disables each.  At least one must be set.
  int budget_secs = 0;
  u64 max_iterations = 0;
  bool stop_on_silent = true;
  bool minimize_failures = true;
  /// Watchdog cycle budget granted to each started program; must exceed
  /// any honest program's runtime so only wedges/traps trip it.
  u64 watchdog_budget = 2'000'000;
  /// Node step deadline per client command and per run.
  u64 run_max_steps = 3'000'000;
  /// Events per generated plan are drawn from [1, max_faults_per_run].
  unsigned max_faults_per_run = 3;
  /// Background channel loss under the injected faults (the client must
  /// survive both at once).  Probabilities, 0..1.
  double channel_drop = 0.05;
  double channel_corrupt = 0.03;
  int program_chunks = 60;
  std::string out_dir = "lfuzz-faults-out";
  bool verbose = false;
};

enum class FaultVerdict : u8 {
  kSkipped = 0,   // program unusable for the campaign (no clean baseline)
  kMasked = 1,
  kDetected = 2,
  kLatent = 3,
  kSilent = 4,    // the failure the campaign exists to find
};

const char* verdict_name(FaultVerdict v);

struct FaultRunResult {
  FaultVerdict verdict = FaultVerdict::kSkipped;
  std::string detail;
  u64 faults_fired = 0;
  u64 faults_landed = 0;
  /// Flight-recorder JSON captured for detected/silent verdicts; empty
  /// otherwise.
  std::string flight_dump;
};

struct FaultCampaignStats {
  u64 iterations = 0;
  u64 executions = 0;  // injection runs, minimization probes included
  u64 skipped = 0;
  u64 masked = 0;
  u64 detected = 0;
  u64 latent = 0;
  u64 silent = 0;
  u64 faults_injected = 0;
};

struct FaultFailure {
  ProgramSpec spec;
  ProgramSpec minimized;
  fault::FaultPlan plan;
  std::string detail;
  std::string flight_dump;  // node post-mortem at the silent divergence
  MinimizeStats min_stats;
  std::string repro_path;      // written .s (+ .plan.txt alongside)
  std::string minimized_path;
};

class FaultCampaign {
 public:
  explicit FaultCampaign(const FaultCampaignConfig& cfg);

  /// Run the campaign.  Returns 0 when every fault was masked, detected,
  /// or latent; 1 when any run diverged silently (the lfuzz exit code).
  int run();

  /// One injection run of `spec` under `plan`.  Exposed for tests and the
  /// minimizer predicate.
  FaultRunResult run_one(const ProgramSpec& spec,
                         const fault::FaultPlan& plan);

  /// A random plan targeting the footprint of `spec`'s assembled image.
  /// Deterministic in `seed`.  Campaign-safe sites only: register flips
  /// are inherently silent at the hardware level (no parity) and belong
  /// to the unit tests, not the detected-or-masked guarantee.
  fault::FaultPlan random_plan(u64 seed, Addr img_base, Addr img_end);

  const FaultCampaignStats& stats() const { return stats_; }
  const std::vector<FaultFailure>& failures() const { return failures_; }

 private:
  void handle_silent(const ProgramSpec& spec, const fault::FaultPlan& plan,
                     const std::string& detail,
                     const std::string& flight_dump);
  std::string finish_line() const;
  void note(const std::string& line) const;

  FaultCampaignConfig cfg_;
  Rng rng_;
  FaultCampaignStats stats_;
  std::vector<FaultFailure> failures_;
  u64 fresh_seed_state_ = 0;
};

}  // namespace la::fuzz
