// Unit tests for template-progression expansion and access-order parsing.
#include "dvf/dsl/template_expander.hpp"

#include <gtest/gtest.h>

#include "dvf/common/error.hpp"

namespace dvf::dsl {
namespace {

TEST(Progression, ExpandsStartTupleByStep) {
  const std::vector<std::int64_t> start = {2, 7};
  const auto out = try_expand_progression(start, 3, 3).value_or_throw();
  EXPECT_EQ(out, (std::vector<std::uint64_t>{2, 7, 5, 10, 8, 13}));
}

TEST(Progression, NegativeStepsAllowedWhileNonNegative) {
  const std::vector<std::int64_t> start = {10};
  const auto out = try_expand_progression(start, -5, 3).value_or_throw();
  EXPECT_EQ(out, (std::vector<std::uint64_t>{10, 5, 0}));
}

TEST(Progression, RejectsUnderflowAndEmpties) {
  const std::vector<std::int64_t> start = {4};
  EXPECT_THROW((void)try_expand_progression(start, -5, 3).value_or_throw(),
               InvalidArgumentError);
  EXPECT_THROW((void)try_expand_progression({}, 1, 3).value_or_throw(),
               InvalidArgumentError);
  EXPECT_THROW((void)try_expand_progression(start, 1, 0).value_or_throw(),
               InvalidArgumentError);
}

TEST(AccessOrder, ParsesThePaperString) {
  const AccessOrder order = parse_access_order("r(Ap)p(xp)(Ap)r(rp)");
  ASSERT_EQ(order.phases.size(), 7u);
  EXPECT_EQ(order.phases[0], (AccessPhase{"r"}));
  EXPECT_EQ(order.phases[1], (AccessPhase{"A", "p"}));
  EXPECT_EQ(order.phases[6], (AccessPhase{"r", "p"}));
}

TEST(AccessOrder, CountsAppearances) {
  const AccessOrder order = parse_access_order("r(Ap)p(xp)(Ap)r(rp)");
  // p appears in (Ap), standalone p, (xp), (Ap), (rp): five phases.
  EXPECT_EQ(order.appearances("p"), 5u);
  EXPECT_EQ(order.appearances("r"), 3u);
  EXPECT_EQ(order.appearances("A"), 2u);
  EXPECT_EQ(order.appearances("x"), 1u);
  EXPECT_EQ(order.appearances("z"), 0u);
}

TEST(AccessOrder, ConcurrencySets) {
  const AccessOrder order = parse_access_order("r(Ap)p(xp)(Ap)r(rp)");
  EXPECT_EQ(order.concurrent_with("p"),
            (std::vector<std::string>{"A", "x", "r"}));
  EXPECT_EQ(order.concurrent_with("A"), (std::vector<std::string>{"p"}));
  EXPECT_TRUE(order.concurrent_with("q").empty());
}

TEST(AccessOrder, WhitespaceIgnored) {
  const AccessOrder order = parse_access_order(" r ( A p ) ");
  ASSERT_EQ(order.phases.size(), 2u);
  EXPECT_EQ(order.phases[1], (AccessPhase{"A", "p"}));
}

TEST(AccessOrder, RejectsMalformedStrings) {
  EXPECT_THROW((void)parse_access_order("(("), ParseError);
  EXPECT_THROW((void)parse_access_order("a)b"), ParseError);
  EXPECT_THROW((void)parse_access_order("()"), ParseError);
  EXPECT_THROW((void)parse_access_order("(ab"), ParseError);
  EXPECT_THROW((void)parse_access_order("a-b"), ParseError);
}

TEST(AccessOrder, EmptyStringIsEmptyOrder) {
  const AccessOrder order = parse_access_order("");
  EXPECT_TRUE(order.phases.empty());
  EXPECT_EQ(order.appearances("a"), 0u);
}

}  // namespace
}  // namespace dvf::dsl
