// Unit tests for template progressions and access-order parsing.
#include "dvf/dsl/template_expander.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "dvf/common/error.hpp"
#include "dvf/common/rng.hpp"

namespace dvf::dsl {
namespace {

std::vector<std::uint64_t> expanded(const TemplateSpec& t) {
  std::vector<std::uint64_t> out;
  t.for_each_index([&out](std::uint64_t idx) { out.push_back(idx); });
  return out;
}

TEST(Progression, ExpandsStartTupleByStep) {
  const std::vector<std::int64_t> start = {2, 7};
  const TemplateSpec t = try_progression(start, 3, 3).value_or_throw();
  EXPECT_EQ(t.starts, (std::vector<std::uint64_t>{2, 7}));
  EXPECT_EQ(t.length(), 6u);
  EXPECT_EQ(expanded(t), (std::vector<std::uint64_t>{2, 7, 5, 10, 8, 13}));
}

TEST(Progression, NegativeStepsAllowedWhileNonNegative) {
  const std::vector<std::int64_t> start = {10};
  const TemplateSpec t = try_progression(start, -5, 3).value_or_throw();
  EXPECT_EQ(expanded(t), (std::vector<std::uint64_t>{10, 5, 0}));
}

TEST(Progression, RejectsUnderflowAndEmpties) {
  const std::vector<std::int64_t> start = {4};
  EXPECT_THROW((void)try_progression(start, -5, 3).value_or_throw(),
               InvalidArgumentError);
  EXPECT_THROW((void)try_progression({}, 1, 3).value_or_throw(),
               InvalidArgumentError);
  EXPECT_THROW((void)try_progression(start, 1, 0).value_or_throw(),
               InvalidArgumentError);
}

/// A front-to-back scan of the expansion that stops at the first failing
/// index: the diagnostics try_progression must reproduce without the scan.
std::string scan_verdict(const std::vector<std::int64_t>& start,
                         std::int64_t step, std::uint64_t count) {
  for (std::uint64_t r = 0; r < count; ++r) {
    std::int64_t offset = 0;
    if (__builtin_mul_overflow(static_cast<std::int64_t>(r), step, &offset)) {
      return "template progression offset " + std::to_string(r) + " * " +
             std::to_string(step) + " overflows a 64-bit index";
    }
    for (const std::int64_t s : start) {
      std::int64_t idx = 0;
      if (__builtin_add_overflow(s, offset, &idx)) {
        return "template progression index " + std::to_string(s) + " + " +
               std::to_string(offset) + " overflows a 64-bit index";
      }
      if (idx < 0) {
        return "template progression references a negative element index";
      }
    }
  }
  return "ok";
}

TEST(Progression, DiagnosticsMatchAFrontToBackScan) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const std::int64_t steps[] = {0,        1,        -1,       3,
                                -3,       1 << 20,  -(1 << 20),
                                kMax / 5, -kMax / 5, kMax / 2 + 1,
                                kMax,     -kMax,    kMin};
  const std::int64_t starts[] = {0,        1,        7,        -1,
                                 kMax,     kMax - 1, kMax - 40, kMax / 2,
                                 kMax / 3, 1 << 22,  kMin};
  Xoshiro256 rng(97);
  int failures = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::vector<std::int64_t> start;
    for (std::uint64_t j = 1 + rng.below(4); j > 0; --j) {
      start.push_back(rng.below(3) == 0
                          ? static_cast<std::int64_t>(rng.below(1000))
                          : starts[rng.below(std::size(starts))]);
    }
    const std::int64_t step = rng.below(4) == 0
                                  ? static_cast<std::int64_t>(rng.below(41)) - 20
                                  : steps[rng.below(std::size(steps))];
    const std::uint64_t count = 1 + rng.below(40);
    const std::string expected = scan_verdict(start, step, count);
    const Result<TemplateSpec> r = try_progression(start, step, count);
    EXPECT_EQ(r.ok() ? "ok" : r.error().message, expected)
        << "step " << step << " count " << count;
    if (!r.ok()) {
      ++failures;
      EXPECT_EQ(r.error().kind, expected.find("negative") != std::string::npos
                                    ? ErrorKind::kDomainError
                                    : ErrorKind::kOverflow);
    }
  }
  EXPECT_GT(failures, 500);  // the draw reaches every kind of failure
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
