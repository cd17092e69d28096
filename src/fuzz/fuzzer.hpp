// The coverage-guided differential fuzzing loop behind the lfuzz CLI.
//
// Each iteration: pick a pipeline configuration from a rotation, pick an
// input (fresh generation, corpus mutation, or corpus crossover), run the
// three-way differential, and either (a) record + minimize a divergence,
// or (b) admit the input to the corpus when it contributed coverage.
//
// Deterministic for a given (seed, budget in iterations); wall-clock
// budgets trade that determinism for steady CI smoke runs.
#pragma once

#include <string>
#include <vector>

#include "fuzz/corpus.hpp"
#include "fuzz/differential.hpp"
#include "fuzz/minimizer.hpp"
#include "fuzz/mutator.hpp"

namespace la::fuzz {

struct FuzzConfig {
  u64 seed = 1;
  /// Stop conditions; 0 disables each.  At least one must be set.
  int budget_secs = 0;
  u64 max_iterations = 0;
  /// Stop at the first divergence (lfuzz default; a soak run may prefer
  /// to keep going and collect several).
  bool stop_on_divergence = true;
  bool minimize_failures = true;
  bool with_system = true;
  /// Generate a kSystem-mode program every Nth iteration (the full-node
  /// leg costs ~10x a bare run); 0 disables system-mode programs.
  unsigned system_every = 4;
  int program_chunks = 120;
  /// Load/save corpus here when non-empty.
  std::string corpus_dir;
  /// Failing repros (original + minimized .s) land here.
  std::string out_dir = "lfuzz-out";
  /// Self-check fault injection (see DiffOptions::inject_subx_bug).
  bool inject_subx_bug = false;
  /// Force every rotation entry to run with the pipeline's host fast
  /// paths off (I-cache mirror and line tier, cache-hit probes, direct
  /// SRAM path, batched system run loop).  The default rotation already
  /// includes one fast-off configuration; this turns the whole campaign
  /// into a slow-path baseline for A/B runs.
  bool disable_fast_paths = false;
  /// Progress lines to stderr.
  bool verbose = false;
};

struct FuzzFailure {
  ProgramSpec spec;       // as found
  ProgramSpec minimized;  // == spec when minimization is off
  DiffOutcome outcome;
  MinimizeStats min_stats;
  std::string repro_path;      // written .s, empty if out_dir disabled
  std::string minimized_path;
};

struct FuzzStats {
  u64 iterations = 0;
  u64 executions = 0;        // differential runs, minimization included
  u64 fresh_inputs = 0;
  u64 mutated_inputs = 0;
  u64 rejected_mutants = 0;  // did not assemble
  u64 incomplete_runs = 0;   // step-budget exhaustion (not divergence)
  u64 corpus_admitted = 0;
  u64 divergences = 0;
};

class Fuzzer {
 public:
  explicit Fuzzer(const FuzzConfig& cfg);

  /// Run the campaign.  Returns 0 when no divergence was found, 1
  /// otherwise (the lfuzz exit code).
  int run();

  const FuzzStats& stats() const { return stats_; }
  const CoverageMap& coverage() const { return coverage_; }
  const Corpus& corpus() const { return corpus_; }
  const std::vector<FuzzFailure>& failures() const { return failures_; }

  /// The pipeline-configuration rotation every campaign cycles through
  /// (the equivalence property test's cache/window configurations, plus
  /// a host-fast-paths-off entry).
  static std::vector<cpu::PipelineConfig> config_rotation();

 private:
  ProgramSpec next_input(const cpu::PipelineConfig& pcfg, ProgramMode mode);
  void handle_divergence(const ProgramSpec& spec, DiffOutcome outcome,
                         const DiffOptions& opt);
  int finish();
  void note(const std::string& line) const;

  FuzzConfig cfg_;
  Rng rng_;
  Mutator mutator_;
  Corpus corpus_;
  CoverageMap coverage_;
  FuzzStats stats_;
  std::vector<FuzzFailure> failures_;
  u64 fresh_seed_state_ = 0;  // initialized from cfg_.seed in the ctor
  bool last_was_mutant_ = false;
};

}  // namespace la::fuzz
