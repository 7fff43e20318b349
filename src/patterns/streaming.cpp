#include "dvf/patterns/streaming.hpp"

#include <cmath>

#include "dvf/common/error.hpp"
#include "dvf/common/math.hpp"

namespace dvf {

double misalignment_probability(std::uint32_t element_bytes,
                                std::uint32_t line_bytes) {
  DVF_CHECK(element_bytes > 0);
  DVF_CHECK(line_bytes > 0);
  // Eq. 3: assuming every byte offset within a line is equally likely to
  // hold the element's first byte, the element spills into one extra line
  // with probability ((E-1) mod CL) / CL.
  return static_cast<double>((element_bytes - 1) % line_bytes) /
         static_cast<double>(line_bytes);
}

double expected_accesses_per_element(std::uint32_t element_bytes,
                                     std::uint32_t line_bytes) {
  // Eq. 4: A_E = floor(E/CL) + p.
  const double p = misalignment_probability(element_bytes, line_bytes);
  return std::floor(static_cast<double>(element_bytes) / line_bytes) + p;
}

Result<StreamingFacts> try_streaming_facts(const StreamingSpec& spec,
                                           const CacheConfig& cache) {
  DVF_EVAL_REQUIRE(spec.element_count > 0,
                   "streaming: element count must be > 0");
  DVF_EVAL_REQUIRE(spec.element_bytes > 0,
                   "streaming: element size must be > 0");
  DVF_EVAL_REQUIRE(spec.stride_elements >= 1,
                   "streaming: stride must be at least one element");
  // footprint_bytes()/stride_bytes() multiply two user-controlled 64-bit
  // quantities; a wrapped product would silently model a tiny structure.
  constexpr std::uint64_t kU64Max = ~std::uint64_t{0};
  if (spec.element_count > kU64Max / spec.element_bytes) {
    return EvalError{ErrorKind::kOverflow,
                     "streaming: footprint (element_count * element_bytes) "
                     "overflows 64 bits"};
  }
  if (spec.stride_elements > kU64Max / spec.element_bytes) {
    return EvalError{ErrorKind::kOverflow,
                     "streaming: stride in bytes overflows 64 bits"};
  }

  const std::uint64_t cl = cache.line_bytes();
  const std::uint64_t e = spec.element_bytes;
  const std::uint64_t s = spec.stride_bytes();
  StreamingFacts facts;
  facts.share.working_set_blocks = math::ceil_div(spec.footprint_bytes(), cl);
  facts.share.capacity_blocks = cache.total_blocks();
  if (cl <= e && s > e) {
    facts.regime = StreamingCase::kWideStrided;
  } else if (e < cl && cl <= s) {
    facts.regime = StreamingCase::kSparse;
  }
  return facts;
}

Result<double> try_estimate_streaming(const StreamingSpec& spec,
                                      const CacheConfig& cache,
                                      EvalBudget* budget) {
  DVF_TRY_ASSIGN(facts, try_streaming_facts(spec, cache));
  DVF_TRY_CHECK(budget_or_default(budget).check_deadline());

  const double references = static_cast<double>(
      math::ceil_div(spec.footprint_bytes(), spec.stride_bytes()));
  if (facts.regime == StreamingCase::kWideStrided) {
    // Case 1, CL <= E < S: each reference needs floor(E/CL) lines plus
    // possibly one more when out of alignment.
    return finite_or_error(
        references * expected_accesses_per_element(spec.element_bytes,
                                                   cache.line_bytes()),
        "streaming estimate");
  }
  if (facts.regime == StreamingCase::kSparse) {
    // Case 2: E < CL <= S. No line serves two referenced elements; each
    // reference costs 1 line, or 2 when the element straddles a boundary.
    return finite_or_error(
        references * (1.0 + misalignment_probability(spec.element_bytes,
                                                     cache.line_bytes())),
        "streaming estimate");
  }
  // Case 1 with S == E (contiguous), or case 3, S < CL: every line of the
  // footprint is loaded exactly once.
  return static_cast<double>(facts.share.working_set_blocks);
}

}  // namespace dvf
