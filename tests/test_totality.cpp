// Adversarial-input totality: every try_* evaluator must return a classified
// EvalError — never throw, hang, or yield silent NaN/Inf — for hostile specs
// (huge counts, NaN parameters, expansion bombs, expired deadlines). These
// are the hand-picked counterparts of what the fuzz harness generates.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "dvf/common/budget.hpp"
#include "dvf/common/math.hpp"
#include "dvf/common/result.hpp"
#include "dvf/dsl/template_expander.hpp"
#include "dvf/dvf/calculator.hpp"
#include "dvf/dvf/ecc.hpp"
#include "dvf/dvf/model_spec.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/machine/machine.hpp"
#include "dvf/patterns/estimate.hpp"
#include "dvf/patterns/random.hpp"
#include "dvf/patterns/reuse.hpp"
#include "dvf/patterns/specs.hpp"
#include "dvf/patterns/streaming.hpp"
#include "dvf/patterns/template_access.hpp"

namespace dvf {
namespace {

CacheConfig small_cache() { return CacheConfig("c8k", 4, 32, 64); }

// Asserts that evaluating `expr` neither throws nor yields an unclassified
// non-finite value, and returns the Result for further kind checks.
#define EXPECT_TOTAL_ERROR(result_expr, expected_kind)               \
  do {                                                               \
    Result<double> total_result_ = (result_expr);                    \
    ASSERT_FALSE(total_result_.ok());                                \
    EXPECT_EQ(total_result_.error().kind, (expected_kind))           \
        << total_result_.error().describe();                         \
  } while (false)

TEST(TotalityStreaming, ZeroCountIsDomainError) {
  StreamingSpec spec;
  spec.element_count = 0;
  EXPECT_TOTAL_ERROR(try_estimate_streaming(spec, small_cache()),
                     ErrorKind::kDomainError);
}

TEST(TotalityStreaming, FootprintOverflowIsClassified) {
  StreamingSpec spec;
  spec.element_bytes = 16;
  spec.element_count = std::uint64_t{1} << 62;  // 16 * 2^62 wraps 64 bits
  spec.stride_elements = 1;
  EXPECT_TOTAL_ERROR(try_estimate_streaming(spec, small_cache()),
                     ErrorKind::kOverflow);
}

TEST(TotalityStreaming, StrideOverflowIsClassified) {
  StreamingSpec spec;
  spec.element_bytes = 8;
  spec.element_count = 4;
  spec.stride_elements = std::uint64_t{1} << 62;
  EXPECT_TOTAL_ERROR(try_estimate_streaming(spec, small_cache()),
                     ErrorKind::kOverflow);
}

TEST(TotalityStreaming, ExpiredDeadlineIsClassified) {
  EvalLimits limits;
  limits.wall_seconds = 1e-9;  // armed at construction; expired immediately
  EvalBudget budget(limits);
  StreamingSpec spec;
  spec.element_count = 1024;
  EXPECT_TOTAL_ERROR(try_estimate_streaming(spec, small_cache(), &budget),
                     ErrorKind::kDeadlineExceeded);
}

TEST(TotalityRandom, NanVisitsIsNonFinite) {
  RandomSpec spec;
  spec.element_count = 1024;
  spec.visits_per_iteration = std::nan("");
  spec.iterations = 10;
  EXPECT_TOTAL_ERROR(try_estimate_random(spec, small_cache()),
                     ErrorKind::kNonFinite);
}

TEST(TotalityRandom, InfiniteVisitsIsNonFinite) {
  RandomSpec spec;
  spec.element_count = 1024;
  spec.visits_per_iteration = std::numeric_limits<double>::infinity();
  spec.iterations = 10;
  EXPECT_TOTAL_ERROR(try_estimate_random(spec, small_cache()),
                     ErrorKind::kNonFinite);
}

TEST(TotalityRandom, PopulationBeyondCombinatoricLimitIsOverflow) {
  RandomSpec spec;
  spec.element_count = std::uint64_t{1} << 62;  // > kMaxCombinatoricPopulation
  spec.element_bytes = 1;
  spec.visits_per_iteration = 2.0;
  spec.iterations = 1;
  EXPECT_TOTAL_ERROR(try_estimate_random(spec, small_cache()),
                     ErrorKind::kOverflow);
}

TEST(TotalityRandom, HugeEqSixSupportIsAnsweredUnlessCancelled) {
  // Eq. 6 is a closed form: a support of 2^30 terms costs one reference.
  EvalLimits limits;
  limits.max_references = 1;
  EvalBudget budget(limits);
  RandomSpec spec;
  spec.element_count = std::uint64_t{1} << 40;
  spec.element_bytes = 64;  // footprint far beyond the 8 KiB cache
  spec.visits_per_iteration = 0x1p30;
  spec.iterations = 3;
  const Result<double> answered =
      try_estimate_random(spec, small_cache(), &budget);
  ASSERT_TRUE(answered.ok());
  EXPECT_TRUE(std::isfinite(*answered));

  EvalBudget cancelled;
  cancelled.cancel();
  EXPECT_TOTAL_ERROR(try_estimate_random(spec, small_cache(), &cancelled),
                     ErrorKind::kDeadlineExceeded);
}

TEST(TotalityRandom, OutOfRangeVisitFractionIsDomainError) {
  RandomSpec spec;
  spec.element_count = 1 << 16;
  spec.element_bytes = 64;
  spec.iterations = 4;
  spec.sorted_visit_fractions = {0.5, -0.25};  // not a probability
  EXPECT_TOTAL_ERROR(try_estimate_random(spec, small_cache()),
                     ErrorKind::kDomainError);
}

TEST(TotalityRandom, NanVisitFractionIsNonFinite) {
  RandomSpec spec;
  spec.element_count = 1 << 16;
  spec.element_bytes = 64;
  spec.iterations = 4;
  spec.sorted_visit_fractions = {0.5, std::nan("")};
  EXPECT_TOTAL_ERROR(try_estimate_random(spec, small_cache()),
                     ErrorKind::kNonFinite);
}

TEST(TotalityTemplate, EmptyReferenceStringIsDomainError) {
  TemplateSpec spec;
  EXPECT_TOTAL_ERROR(try_estimate_template(spec, small_cache()),
                     ErrorKind::kDomainError);
}

TEST(TotalityTemplate, HugeReplayTripsTheDefaultReferenceBudget) {
  // 1024 indices replayed 2^40 times is ~2^50 reference positions — far
  // beyond the process-default 2^28 cap. Must degrade into resource_limit,
  // not a day-long replay.
  TemplateSpec spec;
  spec.starts.assign(1024, 0);
  for (std::size_t i = 0; i < spec.starts.size(); ++i) {
    spec.starts[i] = i;
  }
  spec.repetitions = std::uint64_t{1} << 40;
  EXPECT_TOTAL_ERROR(try_estimate_template(spec, small_cache()),
                     ErrorKind::kResourceLimit);
}

TEST(TotalityReuse, ZeroSelfIsDomainError) {
  ReuseSpec spec;
  spec.self_bytes = 0;
  EXPECT_TOTAL_ERROR(try_estimate_reuse(spec, small_cache()),
                     ErrorKind::kDomainError);
}

TEST(TotalityReuse, CombinedFootprintBeyondCombinatoricLimitIsOverflow) {
  ReuseSpec spec;
  spec.self_bytes = std::uint64_t{1} << 60;
  spec.other_bytes = std::uint64_t{1} << 60;
  spec.reuse_rounds = 2;
  spec.occupancy = ReuseOccupancy::kBernoulli;
  EXPECT_TOTAL_ERROR(try_estimate_reuse(spec, small_cache()),
                     ErrorKind::kOverflow);
}

TEST(TotalityComposition, FirstFailingPhasePropagates) {
  StreamingSpec ok;
  ok.element_count = 128;
  RandomSpec bad;
  bad.element_count = 1024;
  bad.visits_per_iteration = std::nan("");
  const std::vector<PatternSpec> phases{ok, bad};
  const auto r = try_estimate_accesses(
      std::span<const PatternSpec>(phases), small_cache());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, ErrorKind::kNonFinite);
}

TEST(TotalityExpansion, ExpansionBombIsResourceLimit) {
  // (0,1,2,3):1:2^62 would materialize ~2^64 indices. The default budget
  // caps expansion at 2^24 elements; the guarded expander must refuse.
  const std::vector<std::int64_t> start{0, 1, 2, 3};
  auto r = dsl::try_progression(start, 1, std::uint64_t{1} << 62);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, ErrorKind::kResourceLimit);
}

TEST(TotalityExpansion, TightBudgetCapsSmallBombs) {
  EvalLimits limits;
  limits.max_expansion = 100;
  EvalBudget budget(limits);
  const std::vector<std::int64_t> start{0, 1};
  auto r = dsl::try_progression(start, 2, 51, &budget);  // 102 elements
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, ErrorKind::kResourceLimit);

  budget.reset();
  auto ok = dsl::try_progression(start, 2, 50, &budget);  // exactly 100
  ASSERT_TRUE(ok.ok()) << ok.error().describe();
  EXPECT_EQ(ok.value().length(), 100u);
}

TEST(TotalityExpansion, UnderflowingProgressionIsDomainError) {
  const std::vector<std::int64_t> start{4};
  auto r = dsl::try_progression(start, -3, 3);  // 4, 1, -2: below element 0
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, ErrorKind::kDomainError);
}

TEST(TotalityCalculator, NanExecTimeIsNonFinite) {
  DvfCalculator calc(Machine::with_cache(small_cache()));
  DataStructureSpec ds;
  ds.name = "A";
  ds.size_bytes = 4096;
  StreamingSpec s;
  s.element_count = 512;
  ds.patterns.push_back(s);

  const auto r = calc.try_for_structure(ds, std::nan(""));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, ErrorKind::kNonFinite);
}

TEST(TotalityCalculator, NegativeExecTimeIsDomainError) {
  DvfCalculator calc(Machine::with_cache(small_cache()));
  DataStructureSpec ds;
  ds.name = "A";
  ds.size_bytes = 4096;
  StreamingSpec s;
  s.element_count = 512;
  ds.patterns.push_back(s);

  const auto r = calc.try_for_structure(ds, -1.0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, ErrorKind::kDomainError);
  // value_or_throw() maps a domain_error to InvalidArgumentError.
  EXPECT_THROW(calc.try_for_structure(ds, -1.0).value_or_throw(),
               InvalidArgumentError);
}

TEST(TotalityCalculator, ModelWithoutExecTimeIsDomainError) {
  DvfCalculator calc(Machine::with_cache(small_cache()));
  ModelSpec model;
  model.name = "untimed";
  const auto r = calc.try_for_model(model);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, ErrorKind::kDomainError);
}

TEST(TotalityCalculator, AttachedDeadlineBudgetSurfacesThroughModelEval) {
  EvalLimits limits;
  limits.wall_seconds = 1e-9;
  EvalBudget budget(limits);

  DvfCalculator calc(Machine::with_cache(small_cache()));
  calc.set_budget(&budget);

  ModelSpec model;
  model.name = "m";
  model.exec_time_seconds = 1.0;
  DataStructureSpec ds;
  ds.name = "A";
  ds.size_bytes = 4096;
  StreamingSpec s;
  s.element_count = 1 << 20;
  ds.patterns.push_back(s);
  model.structures.push_back(ds);

  const auto r = calc.try_for_model(model);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, ErrorKind::kDeadlineExceeded);
}

TEST(TotalityEcc, DenormalStepSweepIsResourceLimit) {
  ModelSpec model;
  model.name = "m";
  model.exec_time_seconds = 1.0;
  DataStructureSpec ds;
  ds.name = "A";
  ds.size_bytes = 4096;
  StreamingSpec s;
  s.element_count = 512;
  ds.patterns.push_back(s);
  model.structures.push_back(ds);

  const EccTradeoffExplorer explorer(Machine::with_cache(small_cache()),
                                     model);
  EccSweepConfig config;
  config.step = 1e-12;  // 3e11 points over the default 0..30% range
  const auto r = explorer.try_sweep(config);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, ErrorKind::kResourceLimit);
}

#undef EXPECT_TOTAL_ERROR

}  // namespace
}  // namespace dvf
