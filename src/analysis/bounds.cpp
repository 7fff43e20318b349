#include "dvf/analysis/bounds.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <variant>

#include "dvf/common/budget.hpp"
#include "dvf/common/math.hpp"
#include "dvf/common/units.hpp"
#include "dvf/obs/obs.hpp"
#include "dvf/patterns/estimate.hpp"
#include "dvf/patterns/template_access.hpp"

namespace dvf::analysis {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Cost ceilings under which the estimators are provably cheap enough to
// run outright (yielding point intervals). Above them the transfer
// functions fall back to coarse — but still sound — interval arithmetic.
constexpr std::size_t kExactIrmEntries = std::size_t{1} << 16;
constexpr std::uint64_t kExactTemplateRefs = std::uint64_t{1} << 20;
constexpr std::uint32_t kExactReuseAssoc = 128;
/// Block strings longer than this skip the exact distinct-block count
/// (a range union) and use a cheap lower bound instead.
constexpr std::uint64_t kTemplateSortCap = std::uint64_t{1} << 21;

/// Budget for the analysis' own estimator runs: generous finite caps, no
/// deadline. Success under it implies the evaluator computes the same value
/// under any budget that does not cut the run short.
EvalLimits quiet_limits() {
  EvalLimits limits;
  limits.max_references = std::uint64_t{1} << 26;
  limits.max_expansion = std::uint64_t{1} << 25;
  limits.wall_seconds = 0.0;
  return limits;
}

/// The facts step's rejection: it precedes every budget check in the
/// estimator, so the evaluator fails with this kind under every budget.
template <typename Facts>
bool rejected(PatternFacts& facts, const Result<Facts>& step) {
  if (step.ok()) {
    return false;
  }
  facts.provably_rejects = true;
  facts.reject_kind = step.error().kind;
  return true;
}

void set_point(PatternFacts& facts, double value) {
  facts.n_ha = Interval::point(value);
  facts.exact = true;
}

/// One phase on one cache, as the transfer functions see it.
struct Phase {
  const PatternSpec& spec;
  const CacheConfig& cache;

  /// Runs the evaluator's own estimator under the quiet budget. On success
  /// the returned value is what any successful evaluation computes
  /// (estimators are deterministic; budgets only select error-vs-ok), so
  /// the interval tightens to an exact point. Past the facts step only a
  /// budget can fail, and then the interval stands.
  bool refine(PatternFacts& facts) const {
    EvalBudget quiet(quiet_limits());
    const Result<double> r = try_estimate_accesses(spec, cache, &quiet);
    const bool point = r.ok() && std::isfinite(*r);
    if (point) {
      set_point(facts, *r);
    }
    return point;
  }
};

// ---- streaming (Eqs. 3-4) and tiled --------------------------------------
//
// Both closed forms are O(1), so the transfer function runs the estimator
// outright: every phase past the facts step is a point.
template <typename Facts>
void bounds_closed_form(PatternFacts& facts, const Phase& phase,
                        const Result<Facts>& step) {
  if (!rejected(facts, step)) {
    static_cast<ShareFacts&>(facts) = step->share;
    phase.refine(facts);
  }
}

// ---- random (Eqs. 5-7) ---------------------------------------------------
//
// A footprint that fits is its compulsory load, and Eq. 6 is a closed form,
// so both are points. IRM histogram: coarse interval. The estimator returns
//   footprint_blocks + min(B_elm, B_out) * iterations
// with B_elm >= 0 (up to Kahan slack) and min(B_elm, B_out) <= B_out exactly
// in floating point. IEEE rounding is monotone, so evaluating the same
// expression with the facts step's B_out in place of the min yields an upper
// endpoint that dominates every possible evaluator result; footprint_blocks
// (widened down a hair for the Kahan slack) is the lower endpoint.
void bounds_random(PatternFacts& facts, const RandomSpec& spec,
                   const Phase& phase, bool refine_exact) {
  const Result<RandomFacts> step = try_random_facts(spec, phase.cache);
  if (rejected(facts, step)) {
    return;
  }
  const RandomFacts& f = *step;
  static_cast<ShareFacts&>(facts) = f.share;
  if (f.regime == RandomCase::kFits || facts.zero_steady_work) {
    // The reload term is absent, or exactly zero (iterations = 0, or k = 0
    // without a histogram).
    return set_point(facts, f.footprint_blocks);
  }
  const bool cheap =
      f.regime == RandomCase::kUniform ||  // Eq. 6 is O(1)
      (refine_exact && spec.sorted_visit_fractions.size() <= kExactIrmEntries);
  if (cheap && phase.refine(facts)) {
    return;
  }
  const double hi =
      f.footprint_blocks + f.out_blocks * static_cast<double>(spec.iterations);
  facts.n_ha =
      Interval::bounds(f.footprint_blocks, std::isfinite(hi) ? hi : kInf)
          .widened(1e-12, 1e-9);
}

// ---- template ------------------------------------------------------------
//
// The estimator counts integer misses over the block string: every distinct
// block's first touch misses, and no replay can miss more than the string
// length times the repetitions. Both endpoints are integer facts about that
// counter, so u64 → double casts (monotone) carry the containment without
// widening.
void bounds_template(PatternFacts& facts, const TemplateSpec& spec,
                     const Phase& phase, bool refine_exact) {
  const Result<TemplateFacts> step = try_template_facts(spec, phase.cache);
  if (rejected(facts, step)) {
    return;
  }
  // The widest single reference is a distinct lower bound always; the exact
  // distinct count, a range union over up to one entry per block reference,
  // is taken while the worst-case block string (what the estimator charges
  // as expansion) stays under the sort cap.
  const std::uint32_t cl = phase.cache.line_bytes();
  const bool distinct_is_exact =
      math::saturating_mul(spec.length(), spec.element_bytes / cl + 1) <=
      kTemplateSortCap;
  const TemplateFootprint footprint =
      template_footprint(spec, cl, distinct_is_exact);
  const std::uint64_t distinct_lo =
      distinct_is_exact ? footprint.distinct : footprint.widest;
  const std::uint64_t capacity_blocks = step->capacity_blocks;
  const std::uint64_t total_refs =
      math::saturating_mul(footprint.references, spec.repetitions);
  const bool refs_saturated = total_refs == ~std::uint64_t{0};

  facts.working_set_blocks = distinct_lo;
  facts.capacity_blocks = capacity_blocks;
  facts.exceeds_share = distinct_lo > capacity_blocks;

  if (capacity_blocks == 0 && !refs_saturated) {
    // Stack mode: every distance >= 0 >= capacity. Raw mode: every gap > 0.
    // Either way all positions miss.
    return set_point(facts, static_cast<double>(total_refs));
  }
  const bool all_reuses_hit =
      spec.distance == DistanceKind::kStack
          ? distinct_lo <= capacity_blocks
          : !refs_saturated && total_refs - 1 <= capacity_blocks;
  if (distinct_is_exact && all_reuses_hit) {
    // No reuse distance can reach the capacity: only first touches miss.
    return set_point(facts, static_cast<double>(distinct_lo));
  }

  if (refine_exact && total_refs <= kExactTemplateRefs &&
      phase.refine(facts)) {
    return;
  }
  facts.n_ha = Interval::bounds(
      static_cast<double>(distinct_lo),
      refs_saturated ? kInf : static_cast<double>(total_refs));
}

// ---- reuse (Eqs. 8-15) ---------------------------------------------------
//
// The estimator returns F_a + (F_a - resident) * rounds with
// resident = min(NS * E[occupancy], F_a) <= F_a exactly, so the refetch
// term is non-negative in floating point and F_a is an exact lower bound.
// The upper endpoint assumes zero survivors; a small widening absorbs the
// (bounded-negative) Kahan slack of the occupancy expectation.
void bounds_reuse(PatternFacts& facts, const ReuseSpec& spec,
                  const Phase& phase, bool refine_exact) {
  const Result<ReuseFacts> step = try_reuse_facts(spec, phase.cache);
  if (rejected(facts, step)) {
    return;
  }
  static_cast<ShareFacts&>(facts) = step->share;
  const double fa = static_cast<double>(step->self_blocks);
  if (facts.zero_steady_work) {  // rounds = 0: the initial load alone
    return set_point(facts, fa);
  }
  if (refine_exact && phase.cache.associativity() <= kExactReuseAssoc &&
      phase.refine(facts)) {
    return;
  }
  const double hi = fa + fa * static_cast<double>(spec.reuse_rounds);
  facts.n_ha = Interval::bounds(fa, std::isfinite(hi) ? hi : kInf)
                   .widened(1e-9, 1e-9);
}

/// Kahan-sums interval endpoints phase-wise, mirroring the evaluator's
/// composition. When every summand is an exact point the sum reproduces the
/// evaluator's double bit-for-bit (same values, same order, same
/// algorithm); otherwise the endpoints are widened for summation slack.
Interval sum_intervals(const std::vector<Interval>& parts, bool all_exact) {
  math::KahanSum lo;
  math::KahanSum hi;
  bool hi_inf = false;
  for (const Interval& part : parts) {
    lo.add(part.lo);
    if (std::isinf(part.hi)) {
      hi_inf = true;
    } else {
      hi.add(part.hi);
    }
  }
  Interval sum =
      Interval::bounds(lo.value(), hi_inf ? kInf : hi.value());
  if (!all_exact) {
    sum = sum.widened(1e-11, 1e-12);
  }
  return sum;
}

/// Bounds for one structure across the whole machine matrix.
StructureBounds structure_bounds(const DataStructureSpec& ds,
                                 std::span<const Machine> machines,
                                 const std::optional<double>& exec_time,
                                 bool refine_exact) {
  StructureBounds out;
  out.name = ds.name;
  out.size_bytes = ds.size_bytes;
  out.dead = ds.patterns.empty();
  out.per_machine.resize(machines.size());

  // exceeds-everywhere is a per-phase verdict: one phase whose working set
  // overflows its share on every configured machine.
  std::vector<bool> phase_exceeds_everywhere(ds.patterns.size(),
                                             !machines.empty());
  const bool time_bad =
      exec_time && (!std::isfinite(*exec_time) || *exec_time < 0.0);

  for (std::size_t mi = 0; mi < machines.size(); ++mi) {
    const Machine& machine = machines[mi];
    StructureBounds::PerMachine& per = out.per_machine[mi];

    std::vector<Interval> parts;
    parts.reserve(ds.patterns.size());
    bool all_exact = true;
    for (std::size_t pi = 0; pi < ds.patterns.size(); ++pi) {
      const PatternFacts facts =
          pattern_bounds(ds.patterns[pi], machine.llc, refine_exact);
      parts.push_back(facts.n_ha);
      all_exact = all_exact && facts.exact;
      if (facts.provably_rejects && !per.eval_rejects) {
        per.eval_rejects = true;
        per.reject_kind = facts.reject_kind;
      }
      if (!facts.exceeds_share) {
        phase_exceeds_everywhere[pi] = false;
      }
    }
    if ((ds.size_bytes == 0 || time_bad) && !per.eval_rejects) {
      // The evaluator requires S_d > 0 and a valid T, under any budget.
      per.eval_rejects = true;
      per.reject_kind = ErrorKind::kDomainError;
    }

    per.n_ha = sum_intervals(parts, all_exact);
    per.exact = all_exact && per.n_ha.is_point();
    if (all_exact && !std::isfinite(per.n_ha.hi)) {
      // The exact composed sum is infinite: the evaluator's
      // finite_or_error rejects it deterministically.
      per.eval_rejects = true;
      per.reject_kind = ErrorKind::kNonFinite;
      per.n_ha = Interval::top();
      per.exact = false;
    }

    if (exec_time && !time_bad) {
      // Mirrors eval_structure: N_error = expected_errors(FIT, T, S_d).
      const double n_error =
          expected_errors(machine.memory.fit(), *exec_time,
                          static_cast<double>(ds.size_bytes));
      per.dvf = per.n_ha.scaled(n_error);
    } else {
      per.dvf = Interval::top();
    }
  }

  // Hulls across machines (top when there is no machine to bound against).
  if (!machines.empty()) {
    out.n_ha = out.per_machine.front().n_ha;
    out.dvf = out.per_machine.front().dvf;
    for (std::size_t mi = 1; mi < machines.size(); ++mi) {
      out.n_ha = Interval::hull(out.n_ha, out.per_machine[mi].n_ha);
      out.dvf = Interval::hull(out.dvf, out.per_machine[mi].dvf);
    }
  }
  if (out.dead) {
    out.n_ha = Interval::point(0.0);
    out.dvf = exec_time && !time_bad ? Interval::point(0.0) : out.dvf;
  }

  out.exceeds_all_shares =
      !machines.empty() &&
      std::any_of(phase_exceeds_everywhere.begin(),
                  phase_exceeds_everywhere.end(), [](bool b) { return b; });
  out.rejects_everywhere =
      !machines.empty() &&
      std::all_of(out.per_machine.begin(), out.per_machine.end(),
                  [](const StructureBounds::PerMachine& p) {
                    return p.eval_rejects;
                  });

  // Monotonicity verdict: among machines with equal line size, a larger
  // capacity must not raise the N_ha upper bound. (Changing the line size
  // rescales the footprint itself, so those pairs are incomparable.)
  for (std::size_t i = 0; i < machines.size() && out.monotone_in_capacity;
       ++i) {
    for (std::size_t j = 0; j < machines.size(); ++j) {
      if (machines[i].llc.line_bytes() != machines[j].llc.line_bytes() ||
          machines[i].llc.capacity_bytes() >=
              machines[j].llc.capacity_bytes()) {
        continue;
      }
      const double small_cap_hi = out.per_machine[i].n_ha.hi;
      const double large_cap_hi = out.per_machine[j].n_ha.hi;
      if (large_cap_hi > small_cap_hi * (1.0 + 1e-9) + 1e-9) {
        out.monotone_in_capacity = false;
        break;
      }
    }
  }
  return out;
}

}  // namespace

bool zero_steady_work(const PatternSpec& spec) noexcept {
  return std::visit(
      [](const auto& s) {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, StreamingSpec>) {
          return false;
        } else if constexpr (std::is_same_v<T, RandomSpec>) {
          return s.iterations == 0 ||
                 (s.visits_per_iteration == 0.0 &&
                  s.sorted_visit_fractions.empty());
        } else if constexpr (std::is_same_v<T, TemplateSpec>) {
          return s.starts.empty() || s.count == 0 || s.repetitions == 0;
        } else if constexpr (std::is_same_v<T, TiledSpec>) {
          return false;  // passes >= 1 is a precondition; a sweep is work
        } else {
          return s.reuse_rounds == 0;
        }
      },
      spec);
}

PatternFacts pattern_bounds(const PatternSpec& spec, const CacheConfig& cache,
                            bool refine_exact) {
  PatternFacts facts;
  facts.zero_steady_work = zero_steady_work(spec);
  const Phase phase{spec, cache};
  std::visit(
      [&](const auto& s) {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, StreamingSpec>) {
          bounds_closed_form(facts, phase, try_streaming_facts(s, cache));
        } else if constexpr (std::is_same_v<T, TiledSpec>) {
          bounds_closed_form(facts, phase, try_tiled_facts(s, cache));
        } else if constexpr (std::is_same_v<T, RandomSpec>) {
          bounds_random(facts, s, phase, refine_exact);
        } else if constexpr (std::is_same_v<T, TemplateSpec>) {
          bounds_template(facts, s, phase, refine_exact);
        } else {
          bounds_reuse(facts, s, phase, refine_exact);
        }
      },
      spec);
  return facts;
}

const ModelBounds* AnalysisReport::find_model(const std::string& name) const {
  for (const ModelBounds& model : models) {
    if (model.name == name) {
      return &model;
    }
  }
  return nullptr;
}

AnalysisReport analyze(std::span<const Machine> machines,
                       std::span<const ModelSpec> models,
                       const AnalysisOptions& options) {
  const obs::ScopedSpan span("analysis.run");
  obs::counter("analysis.models").add(models.size());

  AnalysisReport report;
  report.machines.reserve(machines.size());
  for (const Machine& machine : machines) {
    report.machines.push_back(machine.name);
  }
  report.canonical_hash = canonical_hash(machines, models);

  report.models.reserve(models.size());
  std::size_t structures = 0;
  for (const ModelSpec& model : models) {
    ModelBounds bounds;
    bounds.name = model.name;
    bounds.exec_time_seconds = model.exec_time_seconds;
    bounds.structures.reserve(model.structures.size());
    for (const DataStructureSpec& ds : model.structures) {
      bounds.structures.push_back(structure_bounds(
          ds, machines, model.exec_time_seconds, options.refine_exact));
    }
    structures += model.structures.size();
    report.models.push_back(std::move(bounds));
  }
  obs::counter("analysis.structures").add(structures);

  // Model totals: interval Eq. 2 per machine, mirroring the evaluator's
  // structure-order Kahan sum.
  for (ModelBounds& model : report.models) {
    model.per_machine.resize(machines.size());
    for (std::size_t mi = 0; mi < machines.size(); ++mi) {
      std::vector<Interval> parts;
      parts.reserve(model.structures.size());
      bool all_exact = true;
      bool rejects = false;
      for (const StructureBounds& s : model.structures) {
        parts.push_back(s.per_machine[mi].dvf);
        all_exact = all_exact && s.per_machine[mi].dvf.is_point();
        rejects = rejects || s.per_machine[mi].eval_rejects;
      }
      model.per_machine[mi].dvf = sum_intervals(parts, all_exact);
      model.per_machine[mi].eval_rejects = rejects;
    }
    if (!machines.empty()) {
      model.dvf = model.per_machine.front().dvf;
      for (std::size_t mi = 1; mi < machines.size(); ++mi) {
        model.dvf = Interval::hull(model.dvf, model.per_machine[mi].dvf);
      }
    } else if (model.structures.empty()) {
      model.dvf = Interval::point(0.0);
    }
  }
  return report;
}

}  // namespace dvf::analysis
