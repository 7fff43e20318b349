// Tests for the semantic-analysis subsystem: the interval domain, the
// canonical IR + content hash, the per-family transfer functions, the
// bounds driver's verdicts, and the DVF-A3xx diagnostics surface.
#include "dvf/analysis/bounds.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <variant>
#include <vector>

#include "dvf/analysis/interval.hpp"
#include "dvf/analysis/ir.hpp"
#include "dvf/common/budget.hpp"
#include "dvf/dsl/analysis.hpp"
#include "dvf/dsl/analyzer.hpp"
#include "dvf/dsl/parser.hpp"
#include "dvf/dvf/calculator.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/machine/machine.hpp"
#include "dvf/patterns/estimate.hpp"

namespace dvf::analysis {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// --- interval domain -------------------------------------------------------

TEST(Interval, ConstructorsKeepTheDomainInvariant) {
  EXPECT_TRUE(Interval::top().valid());
  EXPECT_TRUE(Interval::point(3.5).is_point());
  EXPECT_TRUE(Interval::point(-2.0).contains(0.0));  // clamped below at 0
  EXPECT_TRUE(Interval::point(kNaN).contains(1e300));  // NaN collapses to top
  EXPECT_TRUE(Interval::bounds(kNaN, 5.0).contains(1e300));
  EXPECT_TRUE(Interval::bounds(5.0, 1.0).contains(2.0));  // inconsistent: top
  EXPECT_TRUE(Interval::bounds(2.0, kInf).valid());
}

TEST(Interval, ArithmeticIsTotalAndNaNFree) {
  const Interval a = Interval::bounds(1.0, 2.0);
  const Interval b = Interval::bounds(3.0, kInf);
  const Interval sum = a + b;
  EXPECT_EQ(sum.lo, 4.0);
  EXPECT_TRUE(std::isinf(sum.hi));
  EXPECT_TRUE(sum.valid());

  // 0 * inf = 0 by the scaled() convention: a zero factor provably zeroes.
  EXPECT_TRUE(Interval::top().scaled(0.0).is_point());
  EXPECT_EQ(Interval::top().scaled(0.0).hi, 0.0);
  EXPECT_TRUE(a.scaled(kNaN).contains(1e308));   // unknown factor: top
  EXPECT_TRUE(a.scaled(-1.0).contains(1e308));   // negative factor: top
  EXPECT_EQ(a.scaled(2.0).lo, 2.0);
  EXPECT_EQ(a.scaled(2.0).hi, 4.0);
}

TEST(Interval, HullIntersectAndWidening) {
  const Interval a = Interval::bounds(1.0, 4.0);
  const Interval b = Interval::bounds(3.0, 8.0);
  EXPECT_EQ(Interval::hull(a, b).lo, 1.0);
  EXPECT_EQ(Interval::hull(a, b).hi, 8.0);
  EXPECT_EQ(Interval::intersect(a, b).lo, 3.0);
  EXPECT_EQ(Interval::intersect(a, b).hi, 4.0);

  // An empty intersection means one input was wrong: fall back to the hull
  // instead of fabricating an unsound empty interval.
  const Interval c = Interval::bounds(10.0, 12.0);
  EXPECT_TRUE(Interval::intersect(a, c).contains(5.0));

  const Interval w = Interval::point(100.0).widened(0.01, 0.5);
  EXPECT_LT(w.lo, 100.0);
  EXPECT_GT(w.hi, 100.0);
  EXPECT_TRUE(w.contains(100.0));
  EXPECT_GE(w.lo, 0.0);
}

// --- IR, canonicalization, content hash ------------------------------------

dsl::CompiledProgram compile(const std::string& source) {
  dsl::DiagnosticEngine diags;
  return dsl::analyze(dsl::parse(source), diags);
}

constexpr const char* kBaseSource = R"(
machine "m1" { cache { associativity 4; sets 64; line 32; } memory { fit 5000; } }
model "M" {
  time 1.5;
  data A { elements 1024; element_size 8; }
  pattern A stream { stride 1; }
  data B { elements 256; element_size 16; }
  pattern B reuse { rounds 3; other_bytes 4096; }
}
)";

// Same program, every declaration order permuted.
constexpr const char* kReorderedSource = R"(
model "M" {
  data B { elements 256; element_size 16; }
  pattern B reuse { rounds 3; other_bytes 4096; }
  data A { elements 1024; element_size 8; }
  pattern A stream { stride 1; }
  time 1.5;
}
machine "m1" { cache { associativity 4; sets 64; line 32; } memory { fit 5000; } }
)";

TEST(CanonicalHash, InvariantUnderDeclarationReordering) {
  const auto a = compile(kBaseSource);
  const auto b = compile(kReorderedSource);
  EXPECT_EQ(canonical_hash(a.machines, a.models),
            canonical_hash(b.machines, b.models));
}

TEST(CanonicalHash, DeadStructuresDoNotAffectTheHash) {
  const auto a = compile(kBaseSource);
  const std::string with_dead = std::string(kBaseSource).substr(0, 0) + R"(
machine "m1" { cache { associativity 4; sets 64; line 32; } memory { fit 5000; } }
model "M" {
  time 1.5;
  data A { elements 1024; element_size 8; }
  pattern A stream { stride 1; }
  data B { elements 256; element_size 16; }
  pattern B reuse { rounds 3; other_bytes 4096; }
  data unused { elements 64; element_size 8; }
}
)";
  const auto b = compile(with_dead);
  EXPECT_EQ(canonical_hash(a.machines, a.models),
            canonical_hash(b.machines, b.models));
}

TEST(CanonicalHash, SensitiveToSemanticParameterChanges) {
  const auto a = compile(kBaseSource);
  const std::string changed = R"(
machine "m1" { cache { associativity 4; sets 64; line 32; } memory { fit 5000; } }
model "M" {
  time 1.5;
  data A { elements 1024; element_size 8; }
  pattern A stream { stride 2; }
  data B { elements 256; element_size 16; }
  pattern B reuse { rounds 3; other_bytes 4096; }
}
)";
  const auto b = compile(changed);
  EXPECT_NE(canonical_hash(a.machines, a.models),
            canonical_hash(b.machines, b.models));
}

TEST(CanonicalHash, CanonicalizeIsIdempotent) {
  const auto program = compile(kBaseSource);
  ProgramIr ir = build_ir(program.machines, program.models);
  canonicalize(ir);
  const std::uint64_t once = content_hash(ir);
  canonicalize(ir);
  EXPECT_EQ(content_hash(ir), once);
}

TEST(CanonicalHash, ValueNumberingSharesIdenticalPhases) {
  const auto program = compile(R"(
model "M" {
  data A { elements 128; element_size 8; }
  pattern A stream { stride 1; repeat 3; }
}
)");
  // `repeat 3` lowers to three identical StreamingSpec phases: the pool
  // must hold exactly one node.
  const ProgramIr ir = build_ir(program.machines, program.models);
  EXPECT_EQ(ir.patterns.size(), 1u);
  ASSERT_EQ(ir.models.size(), 1u);
  ASSERT_EQ(ir.models[0].structures.size(), 1u);
  EXPECT_EQ(ir.models[0].structures[0].phases.size(), 3u);
}

TEST(SpecEqual, DistinguishesFieldwise) {
  StreamingSpec a;
  a.element_bytes = 8;
  a.element_count = 100;
  a.stride_elements = 1;
  StreamingSpec b = a;
  EXPECT_TRUE(spec_equal(PatternSpec{a}, PatternSpec{b}));
  b.stride_elements = 2;
  EXPECT_FALSE(spec_equal(PatternSpec{a}, PatternSpec{b}));
  ReuseSpec r;
  EXPECT_FALSE(spec_equal(PatternSpec{a}, PatternSpec{r}));
}

// --- transfer functions ----------------------------------------------------

TEST(PatternBounds, StreamingIsAnExactPoint) {
  StreamingSpec spec;
  spec.element_bytes = 8;
  spec.element_count = 4096;
  spec.stride_elements = 1;
  for (const CacheConfig& cache : caches::all_profiling()) {
    const PatternFacts facts = pattern_bounds(PatternSpec{spec}, cache);
    ASSERT_FALSE(facts.provably_rejects);
    EXPECT_TRUE(facts.exact);
    EXPECT_TRUE(facts.n_ha.is_point());
    const double value =
        try_estimate_accesses(PatternSpec{spec}, cache).value_or_throw();
    EXPECT_EQ(facts.n_ha.lo, value);
  }
}

TEST(PatternBounds, RandomIntervalContainsTheEstimator) {
  RandomSpec spec;
  spec.element_count = 4096;
  spec.element_bytes = 16;
  spec.visits_per_iteration = 12.0;
  spec.iterations = 50;
  for (const CacheConfig& cache : caches::all_profiling()) {
    const PatternFacts facts = pattern_bounds(PatternSpec{spec}, cache);
    const auto result = try_estimate_accesses(PatternSpec{spec}, cache);
    if (facts.provably_rejects) {
      EXPECT_FALSE(result.ok()) << cache.describe();
      continue;
    }
    ASSERT_TRUE(result.ok()) << cache.describe();
    EXPECT_TRUE(facts.n_ha.contains(*result))
        << cache.describe() << ": " << *result << " not in ["
        << facts.n_ha.lo << ", " << facts.n_ha.hi << "]";
  }
}

TEST(PatternBounds, UniformRandomIsAnExactPointAtAnyVisitCount) {
  // A 2^30-visit Eq. 6 support: the closed form runs outright, with or
  // without refinement, and the point is the estimator's value.
  RandomSpec spec;
  spec.element_count = std::uint64_t{1} << 40;
  spec.element_bytes = 8;
  spec.visits_per_iteration = 0x1p30;
  spec.iterations = 10;
  for (const CacheConfig& cache : caches::all_profiling()) {
    const double value =
        try_estimate_accesses(PatternSpec{spec}, cache).value_or_throw();
    for (const bool refine : {true, false}) {
      const PatternFacts facts =
          pattern_bounds(PatternSpec{spec}, cache, refine);
      ASSERT_FALSE(facts.provably_rejects) << cache.describe();
      EXPECT_TRUE(facts.exact) << cache.describe();
      EXPECT_EQ(facts.n_ha.lo, value) << cache.describe();
      EXPECT_EQ(facts.n_ha.hi, value) << cache.describe();
    }
  }
}

TEST(PatternBounds, VisitsBeyondThePopulationProvablyReject) {
  RandomSpec spec;
  spec.element_count = 4096;
  spec.element_bytes = 16;  // 64 KiB: over the 16 KiB share
  spec.visits_per_iteration = 5000.0;
  spec.iterations = 3;
  const CacheConfig cache = caches::profiling_16kb();
  const PatternFacts facts = pattern_bounds(PatternSpec{spec}, cache);
  EXPECT_TRUE(facts.provably_rejects);
  EXPECT_EQ(facts.reject_kind, ErrorKind::kDomainError);
  const auto result = try_estimate_accesses(PatternSpec{spec}, cache);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ErrorKind::kDomainError);
}

TEST(PatternBounds, TemplateTightensToAPointWhenCheap) {
  TemplateSpec spec;
  spec.element_bytes = 8;
  spec.repetitions = 4;
  for (std::uint64_t i = 0; i < 512; ++i) {
    spec.starts.push_back(i);
  }
  const CacheConfig cache = caches::profiling_16kb();
  const PatternFacts facts = pattern_bounds(PatternSpec{spec}, cache);
  ASSERT_FALSE(facts.provably_rejects);
  EXPECT_TRUE(facts.exact);
  const double value =
      try_estimate_accesses(PatternSpec{spec}, cache).value_or_throw();
  EXPECT_EQ(facts.n_ha.lo, value);
  EXPECT_EQ(facts.n_ha.hi, value);
}

TEST(PatternBounds, ReuseZeroRoundsIsExactlyTheFootprint) {
  ReuseSpec spec;
  spec.self_bytes = 8192;
  spec.other_bytes = 4096;
  spec.reuse_rounds = 0;
  const CacheConfig cache = caches::profiling_16kb();
  const PatternFacts facts = pattern_bounds(PatternSpec{spec}, cache);
  ASSERT_FALSE(facts.provably_rejects);
  EXPECT_TRUE(facts.n_ha.is_point());
  const double value =
      try_estimate_accesses(PatternSpec{spec}, cache).value_or_throw();
  EXPECT_EQ(facts.n_ha.lo, value);
  EXPECT_TRUE(facts.zero_steady_work);
}

TEST(PatternBounds, ProvableRejectionMatchesTheEvaluator) {
  RandomSpec bad;
  bad.element_count = 0;  // domain precondition fails for every budget
  bad.element_bytes = 8;
  bad.visits_per_iteration = 1.0;
  bad.iterations = 1;
  const CacheConfig cache = caches::profiling_16kb();
  const PatternFacts facts = pattern_bounds(PatternSpec{bad}, cache);
  EXPECT_TRUE(facts.provably_rejects);
  const auto result = try_estimate_accesses(PatternSpec{bad}, cache);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(facts.reject_kind, result.error().kind);
}

// A provable rejection is a for-every-budget statement: the estimator
// checks its facts step before any budget, so the kind it reports does not
// depend on the limits, on the deadline, or on cancellation.
TEST(AnalysisFacts, RejectKindIsBudgetIndependent) {
  ReuseSpec reuse;  // Bernoulli population past the checked range
  reuse.self_bytes = 4096;
  reuse.other_bytes = std::uint64_t{1} << 60;
  RandomSpec random;  // uniform population past the checked range
  random.element_count = std::uint64_t{1} << 50;
  random.element_bytes = 8;
  random.visits_per_iteration = 1.0;
  random.iterations = 1;
  StreamingSpec stream;  // footprint wraps 64 bits
  stream.element_bytes = 8;
  stream.element_count = std::uint64_t{1} << 62;
  TiledSpec tiled;  // footprint wraps 64 bits
  tiled.element_bytes = 8;
  tiled.rows = std::uint64_t{1} << 40;
  tiled.cols = std::uint64_t{1} << 30;
  TemplateSpec tmpl;  // index 5 - 9 is negative
  tmpl.starts = {5};
  tmpl.step = -1;
  tmpl.count = 10;

  EvalLimits one;
  one.max_references = 1;
  one.max_expansion = 1;
  for (const PatternSpec& spec :
       {PatternSpec{reuse}, PatternSpec{random}, PatternSpec{stream},
        PatternSpec{tiled}, PatternSpec{tmpl}}) {
    for (const CacheConfig& cache : caches::all_profiling()) {
      const PatternFacts facts = pattern_bounds(spec, cache);
      ASSERT_TRUE(facts.provably_rejects)
          << pattern_letter(spec) << " on " << cache.describe();
      EvalBudget plenty;
      EvalBudget tight(one);
      EvalBudget cancelled;
      cancelled.cancel();
      for (EvalBudget* budget : {&plenty, &tight, &cancelled}) {
        const Result<double> result =
            try_estimate_accesses(spec, cache, budget);
        ASSERT_FALSE(result.ok());
        EXPECT_STREQ(to_string(result.error().kind),
                     to_string(facts.reject_kind))
            << pattern_letter(spec) << " on " << cache.describe() << ": "
            << result.error().message;
      }
    }
  }
}

TEST(PatternBounds, ZeroSteadyWorkFacts) {
  StreamingSpec stream;
  stream.element_bytes = 8;
  stream.element_count = 10;
  stream.stride_elements = 1;
  EXPECT_FALSE(zero_steady_work(PatternSpec{stream}));

  RandomSpec rand;
  rand.iterations = 0;
  EXPECT_TRUE(zero_steady_work(PatternSpec{rand}));

  TemplateSpec tmpl;  // no indices at all
  EXPECT_TRUE(zero_steady_work(PatternSpec{tmpl}));

  ReuseSpec reuse;
  reuse.self_bytes = 64;
  reuse.reuse_rounds = 0;
  EXPECT_TRUE(zero_steady_work(PatternSpec{reuse}));
}

// --- bounds driver ---------------------------------------------------------

TEST(Analyze, VerdictsAndModelComposition) {
  const auto program = compile(R"(
machine "small" { cache { associativity 4; sets 32; line 32; } memory { fit 5000; } }
machine "large" { cache { associativity 8; sets 512; line 32; } memory { fit 5000; } }
model "M" {
  time 2.0;
  data hot { elements 4096; element_size 8; }
  pattern hot stream { stride 1; }
  data idle { elements 64; element_size 8; }
}
)");
  const AnalysisReport report = analyze(program.machines, program.models);
  ASSERT_EQ(report.machines.size(), 2u);
  const ModelBounds* model = report.find_model("M");
  ASSERT_NE(model, nullptr);
  ASSERT_EQ(model->structures.size(), 2u);

  const StructureBounds& hot = model->structures[0];
  EXPECT_FALSE(hot.dead);
  EXPECT_TRUE(hot.monotone_in_capacity);
  ASSERT_EQ(hot.per_machine.size(), 2u);
  EXPECT_TRUE(hot.per_machine[0].exact);

  const StructureBounds& idle = model->structures[1];
  EXPECT_TRUE(idle.dead);
  EXPECT_TRUE(idle.n_ha.is_point());
  EXPECT_EQ(idle.n_ha.hi, 0.0);
  EXPECT_TRUE(idle.dvf.is_point());
  EXPECT_EQ(idle.dvf.hi, 0.0);

  // Model totals contain the evaluator on each machine.
  for (std::size_t m = 0; m < program.machines.size(); ++m) {
    DvfCalculator calc(program.machines[m]);
    const auto result = calc.try_for_model(program.models[0]);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(model->per_machine[m].dvf.contains(result.value().total))
        << program.machines[m].name;
  }
}

TEST(Analyze, TotalWithNoMachines) {
  const auto program = compile(R"(
model "M" {
  data A { elements 128; element_size 8; }
  pattern A stream { stride 1; }
}
)");
  const AnalysisReport report = analyze(program.machines, program.models);
  EXPECT_TRUE(report.machines.empty());
  ASSERT_EQ(report.models.size(), 1u);
  const StructureBounds& ds = report.models[0].structures[0];
  EXPECT_TRUE(ds.n_ha.valid());
  EXPECT_TRUE(ds.per_machine.empty());
  EXPECT_NE(report.canonical_hash, 0u);
}

// --- provenance + A3xx diagnostics -----------------------------------------

TEST(SemanticAnalysis, ProvenanceRecordsLoweredDeclarations) {
  const auto result = dsl::analyze_models(R"(
model "M" {
  data A { elements 128; element_size 8; }
  pattern A stream { stride 1; repeat 2; }
}
)");
  ASSERT_TRUE(result.report.has_value());
  ASSERT_EQ(result.program.provenance.size(), 1u);
  const dsl::PatternProvenance& row = result.program.provenance[0];
  EXPECT_EQ(row.model, "M");
  EXPECT_EQ(row.structure, "A");
  EXPECT_EQ(row.phase_count, 2u);  // repeat 2 lowers to two phases
  EXPECT_GT(row.line, 0);
}

std::size_t count_code(const dsl::SemanticAnalysis& result,
                       const char* code) {
  std::size_t n = 0;
  for (const auto& d : result.diagnostics) {
    if (d.code == code) {
      ++n;
    }
  }
  return n;
}

TEST(SemanticAnalysis, ReportsDeadAndZeroWorkStructures) {
  const auto result = dsl::analyze_models(R"(
machine "m" { cache { associativity 4; sets 64; line 32; } memory { fit 5000; } }
model "M" {
  time 1.0;
  data A { elements 128; element_size 8; }
  pattern A stream { stride 1; repeat 0; }
  data B { elements 128; element_size 8; }
  pattern B stream { stride 1; }
}
)");
  ASSERT_TRUE(result.report.has_value());
  EXPECT_EQ(count_code(result, dsl::codes::kAnalysisDeadStructure), 1u);
  EXPECT_EQ(count_code(result, dsl::codes::kAnalysisZeroWork), 1u);
}

TEST(SemanticAnalysis, ReportsWorkingSetExceedingEveryShare) {
  const auto result = dsl::analyze_models(R"(
machine "tiny" { cache { associativity 2; sets 16; line 32; } memory { fit 5000; } }
model "M" {
  time 1.0;
  data big { elements 1048576; element_size 8; }
  pattern big reuse { rounds 2; }
}
)");
  ASSERT_TRUE(result.report.has_value());
  EXPECT_EQ(count_code(result, dsl::codes::kAnalysisExceedsAllShares), 1u);
}

TEST(SemanticAnalysis, UnparseableSourceYieldsDiagnosticsNotAReport) {
  const auto result = dsl::analyze_models("model { not valid");
  EXPECT_FALSE(result.report.has_value());
  EXPECT_GT(result.errors, 0u);
}

}  // namespace
}  // namespace dvf::analysis
