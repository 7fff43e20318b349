// Tests for the sparse (CSR) CG kernel and its gather model.
#include "dvf/kernels/sparse_cg.hpp"

#include <gtest/gtest.h>

#include <variant>

#include "dvf/cachesim/cache_simulator.hpp"
#include "dvf/common/error.hpp"
#include "dvf/common/math.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/patterns/estimate.hpp"

namespace dvf::kernels {
namespace {

TEST(SparseCg, SolvesTheSystem) {
  SparseConjugateGradient cg({.n = 500});
  NullRecorder null;
  cg.run(null);
  EXPECT_LT(cg.relative_residual(), 1e-10);
  EXPECT_LT(cg.solution_error(), 1e-3);
  EXPECT_GT(cg.iterations_run(), 0u);
}

TEST(SparseCg, CsrInvariantsHold) {
  SparseConjugateGradient cg({.n = 200, .offdiag_per_row = 6});
  // At least the diagonal per row; at most diag + both mirror entries of
  // the (offdiag/2 + 1) insertions per row.
  EXPECT_GE(cg.nonzeros(), 200u);
  EXPECT_LE(cg.nonzeros(), 200u + 2u * 200u * (6 / 2 + 1));
}

TEST(SparseCg, Deterministic) {
  SparseConjugateGradient a({.n = 300, .seed = 5});
  SparseConjugateGradient b({.n = 300, .seed = 5});
  NullRecorder null;
  a.run(null);
  b.run(null);
  EXPECT_EQ(a.iterations_run(), b.iterations_run());
  EXPECT_DOUBLE_EQ(a.solution_error(), b.solution_error());
}

TEST(SparseCg, ModelSpecCoversCsrAndGather) {
  SparseConjugateGradient cg({.n = 400, .max_iterations = 10});
  NullRecorder null;
  cg.run(null);
  const ModelSpec spec = cg.model_spec();
  EXPECT_EQ(spec.name, "CGS");
  for (const char* name : {"val", "col", "row", "p", "x", "r"}) {
    EXPECT_NE(spec.find(name), nullptr) << name;
  }
  const auto* gather = std::get_if<RandomSpec>(&spec.find("p")->patterns[0]);
  ASSERT_NE(gather, nullptr);
  EXPECT_EQ(gather->sorted_visit_fractions.size(), 400u);
  // Hub columns (low indices, quadratic skew) must top the histogram.
  EXPECT_GT(gather->sorted_visit_fractions.front(),
            10.0 * gather->sorted_visit_fractions.back());
}

TEST(SparseCg, GatherModelTracksSimulatorWithinBand) {
  // The CSR arrays stream; p is gathered. Compare the model's p estimate
  // against the simulator on the small verification cache.
  SparseConjugateGradient cg({.n = 2000, .offdiag_per_row = 8,
                              .max_iterations = 8});
  CacheSimulator sim(caches::small_verification());
  cg.reset();
  cg.run(sim);
  sim.flush();
  const ModelSpec spec = cg.model_spec();

  const auto* p = spec.find("p");
  ASSERT_NE(p, nullptr);
  const double estimate = try_estimate_accesses(
      std::span<const PatternSpec>(p->patterns), sim.config()).value_or_throw();
  const auto id = *cg.registry().find("p");
  const double simulated = static_cast<double>(sim.stats(id).misses);
  EXPECT_LE(math::relative_error(estimate, simulated), 0.40)
      << "estimate " << estimate << " simulated " << simulated;
}

TEST(SparseCg, StreamingCsrStructuresMatchSimulatorTightly) {
  SparseConjugateGradient cg({.n = 2000, .offdiag_per_row = 8,
                              .max_iterations = 8});
  CacheSimulator sim(caches::small_verification());
  cg.reset();
  cg.run(sim);
  sim.flush();
  const ModelSpec spec = cg.model_spec();
  for (const char* name : {"val", "col"}) {
    const auto* ds = spec.find(name);
    ASSERT_NE(ds, nullptr);
    const double estimate = try_estimate_accesses(
        std::span<const PatternSpec>(ds->patterns), sim.config())
        .value_or_throw();
    const auto id = *cg.registry().find(name);
    EXPECT_LE(math::relative_error(
                  estimate, static_cast<double>(sim.stats(id).misses)),
              0.15)
        << name;
  }
}

TEST(SparseCg, RejectsDegenerateConfigs) {
  EXPECT_THROW(SparseConjugateGradient({.n = 2}), InvalidArgumentError);
  EXPECT_THROW(SparseConjugateGradient({.n = 10, .offdiag_per_row = 0}),
               InvalidArgumentError);
}

}  // namespace
}  // namespace dvf::kernels
