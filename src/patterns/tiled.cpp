#include "dvf/patterns/tiled.hpp"

#include <algorithm>

#include "dvf/common/error.hpp"
#include "dvf/common/math.hpp"

namespace dvf {

Result<TiledFacts> try_tiled_facts(const TiledSpec& spec,
                                   const CacheConfig& cache) {
  DVF_EVAL_REQUIRE(spec.rows > 0 && spec.cols > 0,
                   "tiled: matrix must have at least one row and column");
  DVF_EVAL_REQUIRE(spec.element_bytes > 0, "tiled: element size must be > 0");
  DVF_EVAL_REQUIRE(spec.tile_rows >= 1 && spec.tile_cols >= 1,
                   "tiled: tile dimensions must be at least 1");
  DVF_EVAL_REQUIRE(spec.passes >= 1, "tiled: passes must be at least 1");
  DVF_EVAL_REQUIRE(spec.cache_ratio > 0.0 && spec.cache_ratio <= 1.0,
                   "tiled: cache ratio must lie in (0, 1]");

  // A tile wider or taller than the matrix degenerates to the matrix edge
  // (lint flags it as DVF-W112; the evaluator just clamps).
  const std::uint64_t tr = std::min(spec.tile_rows, spec.rows);
  const std::uint64_t tc = std::min(spec.tile_cols, spec.cols);

  const std::uint64_t e = spec.element_bytes;
  const std::uint64_t cl = cache.line_bytes();
  constexpr std::uint64_t kU64Max = ~std::uint64_t{0};
  // Footprint D = rows * cols * E and tile footprint tr * tc * E multiply
  // user-controlled 64-bit quantities; a wrapped product would silently
  // model a tiny structure.
  if (spec.cols > kU64Max / e) {
    return EvalError{ErrorKind::kOverflow,
                     "tiled: row size (cols * element_bytes) overflows "
                     "64 bits"};
  }
  const std::uint64_t row_bytes = spec.cols * e;
  if (spec.rows > kU64Max / row_bytes) {
    return EvalError{ErrorKind::kOverflow,
                     "tiled: footprint (rows * cols * element_bytes) "
                     "overflows 64 bits"};
  }
  const std::uint64_t footprint = spec.rows * row_bytes;
  if (tr > kU64Max / tc || tr * tc > kU64Max / e) {
    return EvalError{ErrorKind::kOverflow,
                     "tiled: tile footprint (tile_rows * tile_cols * "
                     "element_bytes) overflows 64 bits"};
  }
  const std::uint64_t tile_bytes = tr * tc * e;

  // Lines one sweep touches: within each matrix row, every tile contributes
  // a contiguous tc-element segment (plus a narrower remainder segment when
  // tc does not divide cols), and a segment of w bytes spans ceil(w / CL)
  // lines. Summed over all `rows` matrix rows. Tile height only shapes the
  // *visit order* (and the tile footprint below), not the line count.
  const std::uint64_t segment_lines = math::ceil_div(tc * e, cl);
  const std::uint64_t full_tiles = spec.cols / tc;
  const std::uint64_t rem_cols = spec.cols % tc;
  const double lines_per_row =
      static_cast<double>(full_tiles) * static_cast<double>(segment_lines) +
      (rem_cols > 0
           ? static_cast<double>(math::ceil_div(rem_cols * e, cl))
           : 0.0);

  TiledFacts facts;
  facts.sweep_lines = static_cast<double>(spec.rows) * lines_per_row;
  // tr * segment_lines <= tr * tc * E, which did not wrap.
  facts.share.working_set_blocks = tr * segment_lines;
  facts.share.capacity_blocks = share_blocks(cache, spec.cache_ratio);
  const double share =
      static_cast<double>(cache.capacity_bytes()) * spec.cache_ratio;
  facts.regime = static_cast<double>(footprint) <= share
                     ? TiledCase::kFootprintFits
                 : static_cast<double>(tile_bytes) <= share
                     ? TiledCase::kTileFits
                     : TiledCase::kTileMisses;
  facts.share.exceeds_share = facts.regime == TiledCase::kTileMisses;
  return facts;
}

Result<double> try_estimate_tiled(const TiledSpec& spec,
                                  const CacheConfig& cache,
                                  EvalBudget* budget_in) {
  DVF_TRY_ASSIGN(facts, try_tiled_facts(spec, cache));
  EvalBudget& budget = budget_or_default(budget_in);
  DVF_TRY_CHECK(budget.check_deadline());
  DVF_TRY_CHECK(budget.charge_references(1));  // closed form: O(1)

  const double passes = static_cast<double>(spec.passes);
  if (facts.regime == TiledCase::kFootprintFits) {
    // Only the cold sweep misses; every later pass and intra-tile re-read
    // hits.
    return finite_or_error(facts.sweep_lines, "tiled estimate");
  }
  if (facts.regime == TiledCase::kTileFits) {
    // Intra-tile re-reads hit while the tile is hot, but each pass
    // refetches the whole footprint.
    return finite_or_error(passes * facts.sweep_lines, "tiled estimate");
  }
  // Not even one tile fits its share — every traversal of every tile
  // misses, including the intra-tile re-reads.
  const double traversals =
      passes * (1.0 + static_cast<double>(spec.intra_reuse));
  return finite_or_error(traversals * facts.sweep_lines, "tiled estimate");
}

}  // namespace dvf
