// Statistical fault-injection campaigns over the instrumented kernels —
// the expensive baseline methodology (§VI) that DVF approximates
// analytically. A campaign estimates, per data structure, the probability
// that one random bit flip corrupts the application's output; comparing
// those probabilities against the structures' DVFs demonstrates (and
// stress-tests) the metric's claim to rank vulnerability correctly.
//
// The runner is fault-tolerant (docs/resilience.md): every trial is
// sandboxed and classified into the masked / SDC / DUE taxonomy instead of
// aborting the campaign, runs can journal completed trials to survive
// kills (checkpoint/resume), and per-structure Wilson confidence intervals
// can stop a structure early once its SDC rate is pinned down.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dvf/kernels/suite.hpp"

namespace dvf::kernels {

/// Per-structure campaign outcome: the classified trial counts plus the
/// derived rates. Every trial lands in exactly one outcome class, so
/// masked + sdc + due_exception + due_hang + due_invalid == trials.
struct StructureInjectionStats {
  std::string structure;
  std::uint64_t trials = 0;
  std::uint64_t injected = 0;  ///< trigger fired before the run ended

  // Outcome classes. `masked` includes trials whose trigger never fired
  // (the flip landed after the run's last reference — nothing to corrupt);
  // the other classes imply an injection.
  std::uint64_t masked = 0;
  std::uint64_t sdc = 0;            ///< finite output, deviates
  std::uint64_t due_exception = 0;  ///< kernel threw; contained per-trial
  std::uint64_t due_hang = 0;       ///< reference budget exceeded
  std::uint64_t due_invalid = 0;    ///< NaN/Inf in the output signature

  std::uint64_t corrupted = 0;  ///< any non-masked class (== trials - masked)

  /// True when the adaptive stopper ended this structure before
  /// trials_per_structure (its Wilson CI converged).
  bool early_stopped = false;

  /// Corruption rate conditioned on the fault actually landing,
  /// corrupted / injected — the per-flip vulnerability the taxonomy papers
  /// (and the DVF comparison) care about.
  [[nodiscard]] double corruption_rate_injected() const noexcept {
    return injected == 0 ? 0.0
                         : static_cast<double>(corrupted) /
                               static_cast<double>(injected);
  }
  /// SDC rate conditioned on injection, sdc / injected — the quantity the
  /// adaptive stopper tracks.
  [[nodiscard]] double sdc_rate_injected() const noexcept {
    return injected == 0 ? 0.0
                         : static_cast<double>(sdc) /
                               static_cast<double>(injected);
  }
  /// Wilson 95% half-width of sdc_rate_injected() (1.0 when nothing
  /// injected yet).
  [[nodiscard]] double sdc_ci_half_width() const noexcept;
};

struct CampaignConfig {
  std::uint64_t trials_per_structure = 100;
  std::uint64_t seed = 2014;  ///< the paper's vintage
  /// Worker threads for the campaign; 0 = DVF_THREADS env var / hardware
  /// default, 1 = serial. Results are bit-identical for every value.
  unsigned threads = 0;
  /// Hang detector: a trial's reference budget is
  /// ceil(hang_factor × golden-run references); a run that exceeds it is
  /// classified due_hang. 0 disables the budget (a trial may then run as
  /// long as the kernel's own control flow allows).
  double hang_factor = 8.0;
  /// Adaptive early stopping: stop a structure once the Wilson 95% CI
  /// half-width of its injected-SDC rate drops below this. 0 disables
  /// (every structure runs all trials_per_structure trials). Decisions are
  /// taken at deterministic batch boundaries, so results stay bit-identical
  /// across thread counts.
  double ci_width = 0.0;
  /// Trials per structure scheduled between adaptive-stopping decisions.
  /// Only the trial *schedule* depends on it (smaller batches stop closer
  /// to the CI target but synchronize more often); individual trial
  /// outcomes never do. Ignored (single batch) when ci_width == 0.
  std::uint64_t batch_trials = 50;
  /// When non-empty, journal every completed trial to this file so an
  /// interrupted campaign can be resumed.
  std::string journal_path;
  /// Replay an existing journal at journal_path and run only the missing
  /// trials — bit-identical to an uninterrupted run. The journal header
  /// must match this config (kernel, seed, trials, hang_factor, ci_width,
  /// batch, targets) or the campaign throws.
  bool resume = false;
};

/// Runs the campaign over every structure in the kernel's model. Fault
/// sites are uniform over the structure's bytes and bits; fault times are
/// uniform over the run's references (the §VI "random fault injection into
/// application states").
///
/// Determinism: trial (s, t) — structure index s in the model spec, trial
/// index t — draws its trigger reference, byte offset and bit from the
/// dedicated counter-derived stream `stream_rng(seed, s, t)`, in that
/// order. The serial reference order is the nested loop `for s { for t }`;
/// because every trial's randomness is a pure function of (seed, s, t) and
/// the per-structure tallies are order-independent integer sums, any thread
/// count reproduces that reference bit for bit. Adaptive stopping and
/// journal resume preserve the guarantee: stopping decisions read only
/// merged tallies at batch boundaries, and a journaled outcome equals the
/// outcome re-running the trial would produce. Worker threads run trials
/// on clones of `kernel` (KernelCase::clone), so the kernel must clone into
/// an instance with the same reference stream and registry layout.
///
/// Fault tolerance: trials that throw, exceed the reference budget, or
/// produce non-finite output are classified (due_*) and counted — a
/// misbehaving trial never aborts the campaign.
[[nodiscard]] std::vector<StructureInjectionStats> run_injection_campaign(
    KernelCase& kernel, const CampaignConfig& config = {});

/// Spearman rank correlation between two vectors (used to compare the DVF
/// ranking against the injection-derived ranking; 1 = identical order).
[[nodiscard]] double rank_correlation(const std::vector<double>& a,
                                      const std::vector<double>& b);

}  // namespace dvf::kernels
