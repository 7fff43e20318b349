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
constexpr std::uint64_t kU64Max = ~std::uint64_t{0};

// Cost ceilings under which the closed forms are provably cheap enough to
// run outright (yielding point intervals). Above them the transfer
// functions fall back to coarse — but still sound — interval arithmetic.
constexpr std::size_t kExactIrmEntries = std::size_t{1} << 16;
constexpr std::uint64_t kExactTemplateRefs = std::uint64_t{1} << 20;
constexpr std::uint32_t kExactReuseAssoc = 128;
/// Reference strings longer than this skip the exact distinct-block count
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

/// Saturating double → u64 for reporting fields (never UB on huge values).
std::uint64_t to_u64_clamped(double v) noexcept {
  if (!(v > 0.0)) {
    return 0;
  }
  if (v >= 9.2e18) {  // below 2^63: cast always defined
    return kU64Max;
  }
  return static_cast<std::uint64_t>(v);
}

void mark_reject(PatternFacts& facts, ErrorKind kind) {
  facts.provably_rejects = true;
  facts.reject_kind = kind;
  facts.n_ha = Interval::top();
  facts.exact = false;
}

/// Runs the evaluator's own estimator under the quiet budget. On success
/// the returned value is what any successful evaluation computes
/// (estimators are deterministic; budgets only select error-vs-ok), so the
/// interval tightens to an exact point.
bool refine_with_estimator(PatternFacts& facts, const PatternSpec& spec,
                           const CacheConfig& cache) {
  EvalBudget quiet(quiet_limits());
  const Result<double> r = try_estimate_accesses(spec, cache, &quiet);
  if (!r.ok() || !std::isfinite(*r)) {
    return false;
  }
  facts.n_ha = Interval::point(*r);
  facts.exact = true;
  return true;
}

/// For the O(1) closed forms: runs the estimator under the quiet budget,
/// where only a budget-independent precondition (domain/overflow) can fail.
/// Success is an exact point, failure a provable rejection with the
/// evaluator's own kind. Returns whether the estimator succeeded.
bool run_closed_form(PatternFacts& facts, const PatternSpec& spec,
                     const CacheConfig& cache) {
  EvalBudget quiet(quiet_limits());
  const Result<double> r = try_estimate_accesses(spec, cache, &quiet);
  if (!r.ok()) {
    mark_reject(facts, r.error().kind);
    return false;
  }
  facts.n_ha = Interval::point(*r);
  facts.exact = true;
  return true;
}

// ---- streaming (Eqs. 3-4) ------------------------------------------------
//
// The closed form is O(1), so the transfer function simply runs it: every
// failure of try_estimate_streaming under a deadline-free budget is a
// budget-independent precondition (domain/overflow), hence a provable
// rejection.
PatternFacts bounds_streaming(const StreamingSpec& spec,
                              const CacheConfig& cache) {
  PatternFacts facts;
  facts.capacity_blocks = cache.total_blocks();

  if (!run_closed_form(facts, PatternSpec{spec}, cache)) {
    return facts;
  }
  if (spec.element_bytes > 0 &&
      spec.element_count <= kU64Max / spec.element_bytes) {
    facts.working_set_blocks =
        math::ceil_div(spec.footprint_bytes(), cache.line_bytes());
  }
  return facts;
}

// ---- random (Eqs. 5-7) ---------------------------------------------------
//
// Uniform visits: Eq. 6 is a closed form, so, as for streaming, the
// transfer function runs the estimator outright (run_closed_form).
//
// IRM histogram: coarse interval. The estimator returns
//   footprint_blocks + min(B_elm, B_out) * iterations
// with B_elm >= 0 (up to Kahan slack) and min(B_elm, B_out) <= B_out exactly
// in floating point. IEEE rounding is monotone, so re-evaluating the same
// expression with B_out in place of the min yields an upper endpoint that
// dominates every possible evaluator result; footprint_blocks (widened
// down a hair for the Kahan slack) is the lower endpoint.
PatternFacts bounds_random(const RandomSpec& spec, const CacheConfig& cache,
                           bool refine_exact) {
  PatternFacts facts;

  // The estimator's budget-independent preconditions, replicated.
  if (spec.element_count == 0 || spec.element_bytes == 0 ||
      !(spec.cache_ratio > 0.0 && spec.cache_ratio <= 1.0)) {
    mark_reject(facts, ErrorKind::kDomainError);
    return facts;
  }
  if (!std::isfinite(spec.visits_per_iteration)) {
    mark_reject(facts, ErrorKind::kNonFinite);
    return facts;
  }
  if (spec.visits_per_iteration < 0.0) {
    mark_reject(facts, ErrorKind::kDomainError);
    return facts;
  }

  // These expressions mirror the estimator verbatim so point results and
  // the B_out-based upper endpoint are bit-identical to what it computes.
  const double e = spec.element_bytes;
  const double n = static_cast<double>(spec.element_count);
  const double cl = cache.line_bytes();
  const double footprint = e * n;
  const double cache_share =
      static_cast<double>(cache.capacity_bytes()) * spec.cache_ratio;
  const double footprint_blocks = std::ceil(footprint / cl);

  facts.working_set_blocks = to_u64_clamped(footprint_blocks);
  facts.capacity_blocks =
      to_u64_clamped(static_cast<double>(cache.total_blocks()) *
                     spec.cache_ratio);
  facts.zero_steady_work =
      spec.iterations == 0 || (spec.visits_per_iteration == 0.0 &&
                               spec.sorted_visit_fractions.empty());

  if (footprint <= cache_share) {
    facts.n_ha = Interval::point(footprint_blocks);
    facts.exact = true;
    return facts;
  }
  facts.exceeds_share = true;

  if (spec.sorted_visit_fractions.empty()) {
    run_closed_form(facts, PatternSpec{spec}, cache);
    return facts;
  }

  // The estimator validates the reload path (case 2) only after the
  // footprint-fits early return, so these checks must not fire above.
  for (const double f : spec.sorted_visit_fractions) {
    if (!std::isfinite(f)) {
      mark_reject(facts, ErrorKind::kNonFinite);
      return facts;
    }
    if (f < 0.0 || f > 1.0) {
      mark_reject(facts, ErrorKind::kDomainError);
      return facts;
    }
  }

  if (facts.zero_steady_work) {
    // iterations = 0: the reload term is exactly zero and the estimator
    // returns footprint_blocks.
    facts.n_ha = Interval::point(footprint_blocks);
    facts.exact = true;
    return facts;
  }

  if (refine_exact && spec.sorted_visit_fractions.size() <= kExactIrmEntries &&
      refine_with_estimator(facts, spec, cache)) {
    return facts;
  }

  // Coarse interval, exact-in-FP as argued above.
  const double resident_blocks =
      static_cast<double>(cache.total_blocks()) * spec.cache_ratio;
  const double b_out = std::max(0.0, footprint / cl - resident_blocks);
  const double hi =
      footprint_blocks + b_out * static_cast<double>(spec.iterations);
  facts.n_ha = Interval::bounds(footprint_blocks, std::isfinite(hi) ? hi : kInf)
                   .widened(1e-12, 1e-9);
  return facts;
}

// ---- template ------------------------------------------------------------
//
// The estimator counts integer misses over the block string: every distinct
// block's first touch misses, and no replay can miss more than the string
// length times the repetitions. Both endpoints are integer facts about that
// counter, so u64 → double casts (monotone) carry the containment without
// widening.
PatternFacts bounds_template(const TemplateSpec& spec,
                             const CacheConfig& cache, bool refine_exact) {
  PatternFacts facts;
  facts.zero_steady_work =
      spec.starts.empty() || spec.count == 0 || spec.repetitions == 0;

  if (spec.starts.empty() || spec.count == 0 || spec.element_bytes == 0 ||
      !(spec.cache_ratio > 0.0 && spec.cache_ratio <= 1.0) ||
      spec.repetitions < 1) {
    mark_reject(facts, ErrorKind::kDomainError);
    return facts;
  }
  if (const Result<void> indices = try_check_template_indices(spec);
      !indices.ok()) {
    mark_reject(facts, indices.error().kind);
    return facts;
  }

  // The widest single reference is a distinct lower bound always; the exact
  // distinct count is taken for strings up to the sort cap.
  const bool distinct_is_exact = spec.length() <= kTemplateSortCap;
  const TemplateFootprint footprint =
      template_footprint(spec, cache.line_bytes(), distinct_is_exact);
  const std::uint64_t string_len = footprint.references;
  const std::uint64_t distinct_lo =
      distinct_is_exact ? footprint.distinct : footprint.widest;

  const auto capacity_blocks = static_cast<std::uint64_t>(
      static_cast<double>(cache.total_blocks()) * spec.cache_ratio);
  const std::uint64_t total_refs =
      math::saturating_mul(string_len, spec.repetitions);
  const bool refs_saturated = total_refs == kU64Max;

  facts.working_set_blocks = distinct_lo;
  facts.capacity_blocks = capacity_blocks;
  facts.exceeds_share = distinct_lo > capacity_blocks;

  if (capacity_blocks == 0 && !refs_saturated) {
    // Stack mode: every distance >= 0 >= capacity. Raw mode: every gap > 0.
    // Either way all positions miss.
    facts.n_ha = Interval::point(static_cast<double>(total_refs));
    facts.exact = true;
    return facts;
  }
  if (distinct_is_exact) {
    const bool all_reuses_hit =
        spec.distance == DistanceKind::kStack
            ? distinct_lo <= capacity_blocks
            : !refs_saturated && total_refs - 1 <= capacity_blocks;
    if (all_reuses_hit) {
      // No reuse distance can reach the capacity: only first touches miss.
      facts.n_ha = Interval::point(static_cast<double>(distinct_lo));
      facts.exact = true;
      return facts;
    }
  }

  if (refine_exact && total_refs <= kExactTemplateRefs &&
      refine_with_estimator(facts, spec, cache)) {
    return facts;
  }

  facts.n_ha = Interval::bounds(
      static_cast<double>(distinct_lo),
      refs_saturated ? kInf : static_cast<double>(total_refs));
  return facts;
}

// ---- reuse (Eqs. 8-15) ---------------------------------------------------
//
// The estimator returns F_a + (F_a - resident) * rounds with
// resident = min(NS * E[occupancy], F_a) <= F_a exactly, so the refetch
// term is non-negative in floating point and F_a is an exact lower bound.
// The upper endpoint assumes zero survivors; a small widening absorbs the
// (bounded-negative) Kahan slack of the occupancy expectation.
PatternFacts bounds_reuse(const ReuseSpec& spec, const CacheConfig& cache,
                          bool refine_exact) {
  PatternFacts facts;
  facts.zero_steady_work = spec.reuse_rounds == 0;

  if (spec.self_bytes == 0) {
    mark_reject(facts, ErrorKind::kDomainError);
    return facts;
  }
  const std::uint64_t cl = cache.line_bytes();
  const std::uint64_t fa = math::ceil_div(spec.self_bytes, cl);
  const std::uint64_t fb = math::ceil_div(spec.other_bytes, cl);
  if (fa > kU64Max - fb) {
    mark_reject(facts, ErrorKind::kOverflow);
    return facts;
  }
  if (spec.occupancy == ReuseOccupancy::kBernoulli &&
      fa + fb > static_cast<std::uint64_t>(math::kMaxCombinatoricPopulation)) {
    mark_reject(facts, ErrorKind::kOverflow);
    return facts;
  }

  facts.working_set_blocks = fa;
  facts.capacity_blocks = cache.total_blocks();
  facts.exceeds_share = fa > cache.total_blocks();

  const double fa_d = static_cast<double>(fa);
  if (spec.reuse_rounds == 0) {
    facts.n_ha = Interval::point(fa_d);
    facts.exact = true;
    return facts;
  }

  if (refine_exact && cache.associativity() <= kExactReuseAssoc &&
      refine_with_estimator(facts, spec, cache)) {
    return facts;
  }

  const double hi =
      fa_d + fa_d * static_cast<double>(spec.reuse_rounds);
  facts.n_ha = Interval::bounds(fa_d, std::isfinite(hi) ? hi : kInf)
                   .widened(1e-9, 1e-9);
  return facts;
}

// ---- tiled ---------------------------------------------------------------
//
// Like streaming, the closed form is O(1) (its only budget use is the
// deadline check and a single reference charge), so the transfer function
// runs it outright: success is a point, failure under the quiet budget is a
// budget-independent precondition, hence a provable rejection.
PatternFacts bounds_tiled(const TiledSpec& spec, const CacheConfig& cache) {
  PatternFacts facts;

  if (!run_closed_form(facts, PatternSpec{spec}, cache)) {
    return facts;
  }

  // The steady-state working set is one tile (clamped to the matrix edge,
  // as the evaluator clamps); the share is the structure's cache_ratio
  // slice. exceeds_share mirrors the evaluator's case-3 test: not even one
  // tile fits, so every intra-tile re-read misses.
  const std::uint64_t tr = std::min(spec.tile_rows, spec.rows);
  const std::uint64_t tc = std::min(spec.tile_cols, spec.cols);
  const std::uint64_t e = spec.element_bytes;
  facts.capacity_blocks = to_u64_clamped(
      static_cast<double>(cache.total_blocks()) * spec.cache_ratio);
  if (tc <= kU64Max / e) {
    const std::uint64_t seg_lines = math::ceil_div(tc * e, cache.line_bytes());
    facts.working_set_blocks = tr <= kU64Max / seg_lines ? tr * seg_lines
                                                         : kU64Max;
    if (tr <= kU64Max / (tc * e)) {
      const double share =
          static_cast<double>(cache.capacity_bytes()) * spec.cache_ratio;
      facts.exceeds_share = static_cast<double>(tr * tc * e) > share;
    }
  }
  return facts;
}

PatternFacts facts_for(const PatternSpec& spec, const CacheConfig& cache,
                       bool refine_exact) {
  return std::visit(
      [&cache, refine_exact](const auto& s) {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, StreamingSpec>) {
          return bounds_streaming(s, cache);
        } else if constexpr (std::is_same_v<T, RandomSpec>) {
          return bounds_random(s, cache, refine_exact);
        } else if constexpr (std::is_same_v<T, TemplateSpec>) {
          return bounds_template(s, cache, refine_exact);
        } else if constexpr (std::is_same_v<T, TiledSpec>) {
          return bounds_tiled(s, cache);
        } else {
          return bounds_reuse(s, cache, refine_exact);
        }
      },
      spec);
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
          facts_for(ds.patterns[pi], machine.llc, refine_exact);
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
    if (ds.size_bytes == 0 && !per.eval_rejects) {
      per.eval_rejects = true;  // evaluator requires S_d > 0, any budget
      per.reject_kind = ErrorKind::kDomainError;
    }
    if (time_bad && !per.eval_rejects) {
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
  return facts_for(spec, cache, refine_exact);
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
