// Tests for the multigrid kernel: the V-cycle must reduce the residual, and
// the smoother template must mirror the actual reference order.
#include "dvf/kernels/multigrid.hpp"

#include <gtest/gtest.h>

#include <set>
#include <variant>

#include "dvf/common/error.hpp"

namespace dvf::kernels {
namespace {

TEST(MultigridKernel, VcyclesReduceTheResidual) {
  MultiGrid one({.dim = 16, .levels = 2, .vcycles = 1});
  MultiGrid many({.dim = 16, .levels = 2, .vcycles = 8});
  NullRecorder null;
  one.run(null);
  many.run(null);
  EXPECT_GT(one.residual_norm(), 0.0);
  EXPECT_LT(many.residual_norm(), one.residual_norm());
}

TEST(MultigridKernel, Deterministic) {
  MultiGrid a({.dim = 16, .levels = 2, .vcycles = 2, .seed = 4});
  MultiGrid b({.dim = 16, .levels = 2, .vcycles = 2, .seed = 4});
  NullRecorder null;
  a.run(null);
  b.run(null);
  EXPECT_DOUBLE_EQ(a.residual_norm(), b.residual_norm());
}

TEST(MultigridKernel, SmootherTemplateHasFiveRefsPerInteriorPoint) {
  MultiGrid mg({.dim = 8, .levels = 1, .vcycles = 1});
  const auto tmpl = mg.smoother_template();
  EXPECT_EQ(tmpl.size(), 5u * 6 * 6 * 8);  // (n-2)^2 * n interior columns
}

TEST(MultigridKernel, TemplateMatchesTheTracedSmootherOrder) {
  // Record one pre-smooth pass worth of R references and compare the prefix
  // against the template expansion.
  MultiGrid mg({.dim = 8, .levels = 1, .vcycles = 1});
  TraceBuffer trace;
  mg.run(trace);
  const auto rid = *mg.registry().find("R");
  const auto tmpl = mg.smoother_template();

  std::size_t seen = 0;
  const auto& info = mg.registry().info(rid);
  for (const MemoryRecord& record : trace.records()) {
    if (record.ds != rid || record.is_write) {
      continue;  // the template describes the read references
    }
    const std::uint64_t element =
        (record.address - info.base_address) / sizeof(double);
    ASSERT_LT(seen, tmpl.size());
    ASSERT_EQ(element, tmpl[seen]) << "reference #" << seen;
    if (++seen == tmpl.size()) {
      break;  // one full smoother sweep verified
    }
  }
  EXPECT_EQ(seen, tmpl.size());
}

TEST(MultigridKernel, ModelSpecIsATemplateOnR) {
  MultiGrid mg({.dim = 16, .levels = 2, .vcycles = 3});
  const ModelSpec spec = mg.model_spec();
  EXPECT_EQ(spec.name, "MG");
  ASSERT_EQ(spec.structures.size(), 1u);
  const auto* tmpl = std::get_if<TemplateSpec>(&spec.structures[0].patterns[0]);
  ASSERT_NE(tmpl, nullptr);
  EXPECT_EQ(tmpl->repetitions, 3u * 4u);  // (pre+post+2) * vcycles
  EXPECT_GT(tmpl->starts.size(), 0u);
}

TEST(MultigridKernel, PaddedIndexingNeverAliasesRows) {
  // at() with the +1 pad must give distinct indices for distinct (i,j,k).
  const std::uint64_t n = 8;
  std::set<std::size_t> seen;
  for (std::uint64_t i = 0; i < n; ++i) {
    for (std::uint64_t j = 0; j < n; ++j) {
      for (std::uint64_t k = 0; k < n; ++k) {
        EXPECT_TRUE(seen.insert(MultiGrid::at(n, i, j, k)).second);
      }
    }
  }
  EXPECT_LT(*seen.rbegin(), MultiGrid::cells(n));
}

TEST(MultigridKernel, RejectsDegenerateConfigs) {
  EXPECT_THROW(MultiGrid({.dim = 12}), InvalidArgumentError);  // not 2^k
  EXPECT_THROW(MultiGrid({.dim = 8, .levels = 3}), InvalidArgumentError);
  EXPECT_THROW(MultiGrid({.dim = 16, .levels = 2, .vcycles = 0}),
               InvalidArgumentError);
}

}  // namespace
}  // namespace dvf::kernels
