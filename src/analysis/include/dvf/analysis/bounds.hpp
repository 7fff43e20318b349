// Sound transfer functions and the bounds driver.
//
// pattern_bounds() maps one access-pattern spec × one cache geometry to a
// PatternFacts record: an interval containing every value the evaluator's
// try_estimate_accesses can return for that (spec, cache), plus the
// dataflow facts the lint rules and DVF-A3xx diagnostics consume. The
// rejection and share facts are the estimator's own facts step's
// (try_<family>_facts, run before any budget check). The interval is a
// *point* whenever the estimator is provably cheap — the transfer function
// then runs it (deterministic, budget-independent on success). Otherwise a
// coarse interval is derived from facts that hold in floating point, not
// just over the reals (see docs/analysis.md for the soundness argument per
// family).
//
// analyze() drives the transfer functions over the IR bottom-up (patterns →
// structures → models), composing with interval sums widened for the
// evaluator's Kahan summation, and derives per-structure verdicts:
// deadness, share-overflow on every machine, provable evaluator rejection,
// and monotonicity of the N_ha upper bound in cache capacity.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dvf/analysis/interval.hpp"
#include "dvf/analysis/ir.hpp"
#include "dvf/common/result.hpp"
#include "dvf/dvf/model_spec.hpp"
#include "dvf/machine/machine.hpp"
#include "dvf/patterns/facts.hpp"

namespace dvf::analysis {

/// What the analysis can prove about one pattern phase on one cache, with
/// the facts step's share facts (zero when it rejects).
struct PatternFacts : ShareFacts {
  /// Sound bounds on try_estimate_accesses(spec, cache) when it succeeds.
  Interval n_ha = Interval::top();
  /// The interval is a point obtained from the closed form itself.
  bool exact = false;
  /// The evaluator rejects this spec on this cache for *every* budget: the
  /// facts step failed, with `reject_kind`. Budget- or deadline-dependent
  /// failures never set this.
  bool provably_rejects = false;
  ErrorKind reject_kind = ErrorKind::kDomainError;
  /// The declaration requests zero repeated work (iterations/visits/rounds/
  /// repetitions of zero, or an empty reference string).
  bool zero_steady_work = false;
};

/// Transfer function: facts for one phase on one cache. Total — never
/// throws, never returns NaN endpoints. `refine_exact` additionally runs
/// the evaluator's estimator when its cost is provably small, tightening
/// the interval to a point; pass false for fact-only (lint) queries.
[[nodiscard]] PatternFacts pattern_bounds(const PatternSpec& spec,
                                          const CacheConfig& cache,
                                          bool refine_exact = true);

/// Machine-independent part of the zero-steady-work fact.
[[nodiscard]] bool zero_steady_work(const PatternSpec& spec) noexcept;

/// Per-structure result of the bounds driver.
struct StructureBounds {
  std::string name;
  std::uint64_t size_bytes = 0;

  struct PerMachine {
    Interval n_ha;  ///< contains the evaluator's N_ha on this machine
    Interval dvf;   ///< contains the evaluator's DVF_d (top when T unknown)
    bool exact = false;          ///< every phase bound is a point
    bool eval_rejects = false;   ///< the evaluator provably rejects it here
    ErrorKind reject_kind = ErrorKind::kDomainError;
  };
  /// Parallel to AnalysisReport::machines (input order).
  std::vector<PerMachine> per_machine;

  Interval n_ha = Interval::top();  ///< hull across machines
  Interval dvf = Interval::top();   ///< hull across machines

  /// No phases at all: N_ha = 0, DVF contribution exactly 0.
  bool dead = false;
  /// Some phase's working set exceeds its cache share on every machine.
  bool exceeds_all_shares = false;
  /// The N_ha upper bound never increases with capacity across machines of
  /// equal line size (trivially true with < 2 comparable machines).
  bool monotone_in_capacity = true;
  /// Some phase provably rejects on every machine.
  bool rejects_everywhere = false;
};

struct ModelBounds {
  std::string name;
  std::optional<double> exec_time_seconds;
  std::vector<StructureBounds> structures;

  struct PerMachine {
    Interval dvf;  ///< contains the evaluator's total DVF_a (Eq. 2)
    bool eval_rejects = false;
  };
  std::vector<PerMachine> per_machine;
  Interval dvf = Interval::top();  ///< hull across machines
};

struct AnalysisOptions {
  /// Run cheap closed forms for point intervals (see pattern_bounds).
  bool refine_exact = true;
};

struct AnalysisReport {
  std::vector<std::string> machines;  ///< names, input order
  std::vector<ModelBounds> models;    ///< input order
  std::uint64_t canonical_hash = 0;

  [[nodiscard]] const ModelBounds* find_model(const std::string& name) const;
};

/// The bounds driver. Total: any (machines, models) pair yields a report
/// with valid intervals; specs the evaluator would reject come back flagged,
/// not thrown. With no machines every bound is top() but the deadness
/// verdicts and the canonical hash still compute.
[[nodiscard]] AnalysisReport analyze(std::span<const Machine> machines,
                                     std::span<const ModelSpec> models,
                                     const AnalysisOptions& options = {});

}  // namespace dvf::analysis
