// Tiled/blocked-access main-memory model (extension beyond the paper): the
// loop-nest shape of blocked GEMM and convolution kernels, with N_ha derived
// from the tile geometry and the footprint/cache-share ratio.
#pragma once

#include "dvf/common/budget.hpp"
#include "dvf/common/result.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/patterns/facts.hpp"
#include "dvf/patterns/specs.hpp"

namespace dvf {

/// Where the geometry sits relative to the structure's cache share.
enum class TiledCase {
  kFootprintFits,  ///< footprint <= share: only the cold sweep misses
  kTileFits,       ///< tile <= share < footprint: every pass misses
  kTileMisses,     ///< share < tile: every traversal of every tile misses
};

/// try_estimate_tiled's budget-free facts step. The working set is one tile
/// (clamped to the matrix edge) in lines; it exceeds the share exactly in
/// the kTileMisses case.
struct TiledFacts {
  ShareFacts share;
  TiledCase regime = TiledCase::kFootprintFits;
  double sweep_lines = 0.0;  ///< lines one sweep touches
};
[[nodiscard]] Result<TiledFacts> try_tiled_facts(const TiledSpec& spec,
                                                 const CacheConfig& cache);

/// Estimated main-memory accesses for a tiled traversal. One sweep touches
/// `sweep_lines` cache lines (every line of the footprint, counted tile
/// segment by tile segment); which sweeps miss depends on where the
/// geometry sits relative to the structure's cache share:
///
///   footprint <= share            N_ha = sweep_lines           (all hot)
///   tile <= share < footprint     N_ha = P * sweep_lines       (Q hits)
///   share < tile                  N_ha = P * (1+Q) * sweep_lines
///
/// Classified EvalError instead of an exception: from the facts step,
/// domain_error for invalid specs (zero dims, degenerate tile, ratio outside
/// (0, 1]) and overflow when the footprint or tile size would wrap 64 bits;
/// then the budget's errors, and non_finite if the estimate degenerates.
/// `budget` may be null (process-default limits apply).
[[nodiscard]] Result<double> try_estimate_tiled(const TiledSpec& spec,
                                                const CacheConfig& cache,
                                                EvalBudget* budget = nullptr);

}  // namespace dvf
