#include "dvf/dsl/template_expander.hpp"

#include <algorithm>
#include <cctype>
#include <string>

#include "dvf/common/error.hpp"
#include "dvf/common/math.hpp"

namespace dvf::dsl {

Result<std::vector<std::uint64_t>> try_expand_progression(
    std::span<const std::int64_t> start, std::int64_t step,
    std::uint64_t count, EvalBudget* budget) {
  DVF_EVAL_REQUIRE(!start.empty(), "template progression needs a start tuple");
  DVF_EVAL_REQUIRE(count >= 1, "template progression needs count >= 1");
  // The expansion bomb guard: (0):1:2^62 would ask for 2^62 indices (32 EiB
  // of vector). Charge the full expanded size before allocating anything.
  DVF_TRY_CHECK(budget_or_default(budget).charge_expansion(
      math::saturating_mul(start.size(), count)));

  std::vector<std::uint64_t> out;
  out.reserve(start.size() * count);
  for (std::uint64_t r = 0; r < count; ++r) {
    // offset = r * step and idx = s + offset in checked int64 arithmetic:
    // with count up to 2^64 and step up to int64 limits both can leave the
    // representable range long before the negative-index check would fire.
    std::int64_t offset = 0;
    if (__builtin_mul_overflow(static_cast<std::int64_t>(r), step, &offset)) {
      return EvalError{ErrorKind::kOverflow,
                       "template progression offset " + std::to_string(r) +
                           " * " + std::to_string(step) +
                           " overflows a 64-bit index"};
    }
    for (const std::int64_t s : start) {
      std::int64_t idx = 0;
      if (__builtin_add_overflow(s, offset, &idx)) {
        return EvalError{ErrorKind::kOverflow,
                         "template progression index " + std::to_string(s) +
                             " + " + std::to_string(offset) +
                             " overflows a 64-bit index"};
      }
      DVF_EVAL_REQUIRE(idx >= 0,
                       "template progression references a negative element "
                       "index");
      out.push_back(static_cast<std::uint64_t>(idx));
    }
  }
  return out;
}

std::uint64_t AccessOrder::appearances(std::string_view name) const {
  std::uint64_t n = 0;
  for (const AccessPhase& phase : phases) {
    n += static_cast<std::uint64_t>(
        std::count(phase.begin(), phase.end(), std::string(name)));
  }
  return n;
}

std::vector<std::string> AccessOrder::concurrent_with(
    std::string_view name) const {
  std::vector<std::string> out;
  for (const AccessPhase& phase : phases) {
    const bool has_name =
        std::find(phase.begin(), phase.end(), std::string(name)) != phase.end();
    if (!has_name) {
      continue;
    }
    for (const std::string& other : phase) {
      if (other != name &&
          std::find(out.begin(), out.end(), other) == out.end()) {
        out.push_back(other);
      }
    }
  }
  return out;
}

AccessOrder parse_access_order(std::string_view text) {
  AccessOrder order;
  bool in_group = false;
  AccessPhase group;
  int column = 0;
  for (const char ch : text) {
    ++column;
    if (std::isspace(static_cast<unsigned char>(ch))) {
      continue;
    }
    if (ch == '(') {
      if (in_group) {
        throw ParseError("nested '(' in access-order string", 1, column);
      }
      in_group = true;
      group.clear();
      continue;
    }
    if (ch == ')') {
      if (!in_group) {
        throw ParseError("unmatched ')' in access-order string", 1, column);
      }
      if (group.empty()) {
        throw ParseError("empty group in access-order string", 1, column);
      }
      order.phases.push_back(group);
      in_group = false;
      continue;
    }
    if (std::isalnum(static_cast<unsigned char>(ch)) || ch == '_') {
      if (in_group) {
        group.emplace_back(1, ch);
      } else {
        order.phases.push_back({std::string(1, ch)});
      }
      continue;
    }
    throw ParseError(std::string("unexpected character '") + ch +
                         "' in access-order string",
                     1, column);
  }
  if (in_group) {
    throw ParseError("unterminated '(' in access-order string", 1, column);
  }
  return order;
}

}  // namespace dvf::dsl
