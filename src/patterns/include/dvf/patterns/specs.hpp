// Parameter records for the CGPMAC access-pattern classes: the paper's four
// (§III-C) plus the tiled/blocked extension for loop-nest kernels.
//
// A data structure's access behaviour is a composition of these specs; the
// DVF engine sums the estimated main-memory accesses over the composition
// (the paper's modular "composition of these four classes").
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

namespace dvf {

/// Streaming access (§III-C "Streaming Access Pattern"): a sequential
/// traversal with a fixed stride. Parameters mirror the Aspen program of the
/// VM example: (element size, element count, stride in elements).
struct StreamingSpec {
  std::uint32_t element_bytes = 8;
  std::uint64_t element_count = 0;
  std::uint64_t stride_elements = 1;

  /// D — total footprint in bytes.
  [[nodiscard]] std::uint64_t footprint_bytes() const noexcept {
    return element_count * element_bytes;
  }
  /// S — stride in bytes.
  [[nodiscard]] std::uint64_t stride_bytes() const noexcept {
    return stride_elements * element_bytes;
  }
};

/// Random access (§III-C "Random Access Pattern"): `iterations` rounds, each
/// visiting `visits_per_iteration` (k) distinct elements of an N-element
/// structure that owns a `cache_ratio` (r) share of the LLC. Mirrors the
/// Barnes–Hut Aspen program parameters (N, E, k, iter, r).
///
/// Extension beyond the paper: `sorted_visit_fractions` optionally carries a
/// profiled popularity histogram — entry i is the fraction of iterations
/// that visit the i-th most popular element (sorted descending). When
/// present, the estimator uses the independent-reference model (the cache
/// retains the hottest elements; misses are the visit mass beyond the
/// cacheable prefix), which captures the hot-top-of-tree locality of
/// Barnes–Hut descents and binary searches that the paper's uniform
/// hypergeometric model (Eqs. 5–6) cannot. Leave empty for the paper model.
struct RandomSpec {
  std::uint64_t element_count = 0;        ///< N
  std::uint32_t element_bytes = 8;        ///< E
  double visits_per_iteration = 1.0;      ///< k
  std::uint64_t iterations = 0;           ///< iter
  double cache_ratio = 1.0;               ///< r in (0, 1]
  std::vector<double> sorted_visit_fractions;  ///< optional IRM histogram
};

/// How the template model measures the gap between two uses of a block.
enum class DistanceKind {
  /// Distinct blocks touched in between (LRU stack distance) — matches the
  /// LRU verification simulator and is the default.
  kStack,
  /// Raw reference count in between — the literal two-step wording of the
  /// paper; kept for the ablation study.
  kRaw,
};

/// Template-based access (§III-C), in the DSL's own form: a start tuple, a
/// step and a count. Iteration i (0 <= i < count) references element
/// starts[j] + i * step for each j, in tuple order, so the element reference
/// string has starts.size() * count entries. An explicit reference string is
/// the same struct with count = 1 and `starts` holding the string.
/// `repetitions` replays the whole string back-to-back — iterative kernels
/// (multigrid sweeps, FFT passes) repeat one sweep template many times.
struct TemplateSpec {
  std::uint32_t element_bytes = 8;
  std::vector<std::uint64_t> starts;
  std::int64_t step = 1;
  std::uint64_t count = 1;
  std::uint64_t repetitions = 1;
  double cache_ratio = 1.0;  ///< share of the cache available to the structure
  DistanceKind distance = DistanceKind::kStack;

  /// Entries of the element reference string, saturating at 2^64 - 1.
  [[nodiscard]] std::uint64_t length() const noexcept {
    const std::uint64_t n = starts.size();
    return n != 0 && count > ~std::uint64_t{0} / n ? ~std::uint64_t{0}
                                                   : n * count;
  }

  /// Calls f(index) for every entry of the reference string, in order.
  /// Indices are computed modulo 2^64; a progression that leaves the index
  /// range is rejected by the evaluators before anything streams it.
  template <typename F>
  void for_each_index(F&& f) const {
    const auto stride = static_cast<std::uint64_t>(step);
    std::uint64_t offset = 0;
    for (std::uint64_t i = 0; i < count; ++i, offset += stride) {
      for (const std::uint64_t start : starts) {
        f(start + offset);
      }
    }
  }
};

/// Interference scenario for the reuse model (the paper's two post-load
/// scenarios, Eqs. 11 and 12).
enum class ReuseScenario {
  /// Eq. 11: the target was just touched, so LRU evicts interferer blocks
  /// first; deterministic survivor count. Default.
  kLruProtects,
  /// Eq. 12: any resident block is equally likely to be evicted
  /// (hypergeometric survivors).
  kUniformEviction,
  /// Equal-weight mixture of the two scenarios (the paper combines both).
  kBlend,
};

/// How blocks of a structure distribute over the cache's associative sets.
enum class ReuseOccupancy {
  /// Eq. 8: Bernoulli trials (the paper's model, after Thiébaut–Stone) —
  /// right for pointer-chased or randomly placed data.
  kBernoulli,
  /// Contiguous arrays map round-robin onto sets, so per-set occupancy is
  /// deterministically floor/ceil of F/NA. Extension beyond the paper;
  /// removes the spurious tail evictions Bernoulli predicts for arrays.
  kContiguous,
};

/// Data-reuse access (§III-C "Data Reuse Pattern", Eqs. 8–15): the target
/// structure is loaded, then re-read `reuse_rounds` times while an
/// aggregated interferer (all other live structures, size `other_bytes`)
/// competes for the same sets.
struct ReuseSpec {
  std::uint64_t self_bytes = 0;    ///< footprint of the target structure
  std::uint64_t other_bytes = 0;   ///< combined footprint of interferers (B)
  std::uint64_t reuse_rounds = 1;  ///< number of re-traversals after the load
  ReuseScenario scenario = ReuseScenario::kLruProtects;
  ReuseOccupancy occupancy = ReuseOccupancy::kBernoulli;
};

/// Tiled/blocked access (extension beyond the paper): a row-major
/// `rows × cols` matrix traversed tile by tile, the loop-nest shape of
/// blocked GEMM and convolution kernels. Each of `passes` full sweeps
/// visits every `tile_rows × tile_cols` tile once; while a tile is hot it
/// is re-read `intra_reuse` extra times (the reuse a blocked inner loop
/// buys). Whether those re-reads hit depends on whether one tile fits the
/// structure's `cache_ratio` share of the LLC; whether later passes hit
/// depends on whether the whole footprint does.
struct TiledSpec {
  std::uint32_t element_bytes = 8;  ///< E
  std::uint64_t rows = 0;           ///< matrix rows (R)
  std::uint64_t cols = 0;           ///< matrix columns (C)
  std::uint64_t tile_rows = 1;      ///< tile height (TR)
  std::uint64_t tile_cols = 1;      ///< tile width (TC)
  std::uint64_t intra_reuse = 0;    ///< Q — extra re-reads of a hot tile
  std::uint64_t passes = 1;         ///< P — full sweeps over the tile grid
  double cache_ratio = 1.0;         ///< r in (0, 1]
};

/// One access-pattern phase of a data structure.
using PatternSpec =
    std::variant<StreamingSpec, RandomSpec, TemplateSpec, ReuseSpec,
                 TiledSpec>;

/// Pattern-class letter as used in the paper's Aspen programs
/// (s = streaming, r = random, t = template, u = reuse, b = tiled/blocked).
[[nodiscard]] char pattern_letter(const PatternSpec& spec) noexcept;

}  // namespace dvf
