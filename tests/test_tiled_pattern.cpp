// Unit + differential tests for the tiled/blocked access-pattern family:
// the three-case closed form, geometry clamping, overflow/precondition
// totality, DSL lowering (including derived columns and DVF-E019), the
// canonical hash, and the LRU-replay oracle the fuzz harness also drives.
#include "dvf/patterns/tiled.hpp"

#include <gtest/gtest.h>

#include <variant>

#include "dvf/analysis/bounds.hpp"
#include "dvf/cachesim/cache_simulator.hpp"
#include "dvf/common/budget.hpp"
#include "dvf/common/error.hpp"
#include "dvf/dsl/analyzer.hpp"
#include "dvf/dsl/parser.hpp"
#include "dvf/patterns/estimate.hpp"

namespace dvf {
namespace {

CacheConfig cache8k() { return {"c8k", 4, 64, 32}; }  // 8 KiB, 32 B lines

TiledSpec base_spec() {
  TiledSpec s;
  s.element_bytes = 8;
  s.rows = 16;
  s.cols = 16;
  s.tile_rows = 4;
  s.tile_cols = 4;
  return s;
}

TEST(TiledEstimate, FittingFootprintCostsOneColdSweep) {
  // 16x16 doubles = 2 KiB fits the 8 KiB cache: only compulsory misses,
  // regardless of passes and intra-tile reuse. One matrix row spans
  // 16*8/32 = 4 lines; 16 rows -> 64 lines.
  TiledSpec s = base_spec();
  s.passes = 3;
  s.intra_reuse = 2;
  EXPECT_DOUBLE_EQ(try_estimate_tiled(s, cache8k()).value_or_throw(), 64.0);
}

TEST(TiledEstimate, FittingTileRefetchesFootprintPerPass) {
  // 64x64 doubles = 32 KiB exceeds the cache, the 8x8 tile (512 B) fits:
  // intra-tile re-reads hit, each pass re-streams the matrix. One row is
  // 8 tiles of ceil(64/32) = 2 lines -> 16 lines; 64 rows -> 1024 lines.
  TiledSpec s = base_spec();
  s.rows = 64;
  s.cols = 64;
  s.tile_rows = 8;
  s.tile_cols = 8;
  s.passes = 4;
  s.intra_reuse = 5;  // must not appear in the case-2 count
  EXPECT_DOUBLE_EQ(try_estimate_tiled(s, cache8k()).value_or_throw(),
                   4.0 * 1024.0);
}

TEST(TiledEstimate, OversizeTileMissesOnEveryTraversal) {
  // ratio 0.04 shrinks the share to ~328 B, below the 512 B tile: every
  // pass and every intra-tile re-read misses the whole sweep.
  TiledSpec s = base_spec();
  s.rows = 64;
  s.cols = 64;
  s.tile_rows = 8;
  s.tile_cols = 8;
  s.passes = 2;
  s.intra_reuse = 3;
  s.cache_ratio = 0.04;
  EXPECT_DOUBLE_EQ(try_estimate_tiled(s, cache8k()).value_or_throw(),
                   2.0 * 4.0 * 1024.0);
}

TEST(TiledEstimate, RemainderColumnsCountTheirOwnSegments) {
  // cols = 10, tc = 4: two full 32-byte segments plus a 16-byte remainder
  // per row -> 3 lines per row, 5 rows -> 15 lines; footprint fits.
  TiledSpec s = base_spec();
  s.rows = 5;
  s.cols = 10;
  s.tile_cols = 4;
  EXPECT_DOUBLE_EQ(try_estimate_tiled(s, cache8k()).value_or_throw(), 15.0);
}

TEST(TiledEstimate, OversizeTileClampsToTheMatrixEdge) {
  // A 100x100 tile over an 8x8 matrix behaves as a whole-matrix tile
  // (DVF-W112 in lint); the fitting footprint still costs one cold sweep.
  TiledSpec s = base_spec();
  s.rows = 8;
  s.cols = 8;
  s.tile_rows = 100;
  s.tile_cols = 100;
  EXPECT_DOUBLE_EQ(try_estimate_tiled(s, cache8k()).value_or_throw(), 16.0);
}

TEST(TiledEstimate, PreconditionsAreClassifiedErrors) {
  const CacheConfig cache = cache8k();
  for (const auto mutate : {
           +[](TiledSpec& s) { s.rows = 0; },
           +[](TiledSpec& s) { s.cols = 0; },
           +[](TiledSpec& s) { s.element_bytes = 0; },
           +[](TiledSpec& s) { s.tile_rows = 0; },
           +[](TiledSpec& s) { s.tile_cols = 0; },
           +[](TiledSpec& s) { s.passes = 0; },
           +[](TiledSpec& s) { s.cache_ratio = 0.0; },
           +[](TiledSpec& s) { s.cache_ratio = 1.5; },
       }) {
    TiledSpec s = base_spec();
    mutate(s);
    const Result<double> r = try_estimate_tiled(s, cache);
    EXPECT_FALSE(r.ok());
    EXPECT_THROW((void)try_estimate_tiled(s, cache).value_or_throw(), Error);
  }
}

TEST(TiledEstimate, HugeGeometryIsAClassifiedOverflow) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  TiledSpec s = base_spec();
  s.cols = kMax / 2;
  Result<double> r = try_estimate_tiled(s, cache8k());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, ErrorKind::kOverflow);

  s = base_spec();
  s.rows = kMax / 4;
  s.cols = kMax / 4;
  r = try_estimate_tiled(s, cache8k());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, ErrorKind::kOverflow);
}

TEST(TiledEstimate, ChargesTheEvalBudget) {
  EvalLimits limits;
  limits.max_references = 1;  // room for exactly one closed-form charge
  EvalBudget budget(limits);
  ASSERT_TRUE(try_estimate_tiled(base_spec(), cache8k(), &budget).ok());
  const Result<double> r = try_estimate_tiled(base_spec(), cache8k(), &budget);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, ErrorKind::kResourceLimit);
}

TEST(TiledEstimate, DispatchesThroughThePatternVariant) {
  const PatternSpec spec{base_spec()};
  EXPECT_EQ(pattern_letter(spec), 'b');
  const Result<double> r = try_estimate_accesses(spec, cache8k());
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(*r, 64.0);
}

// ---- DSL lowering ---------------------------------------------------------

constexpr const char* kHeader = R"(
machine "m" {
  cache { associativity 4; sets 64; line 32; }
  memory { fit 100; }
}
)";

TEST(TiledLowering, DerivesColumnsAndDefaults) {
  const dsl::CompiledProgram c = dsl::compile(
      std::string(kHeader) + R"(
model "M" {
  data A { elements 1024; element_size 8; }
  pattern A tiled { tile (4, 8); rows 32; }
})");
  const auto* a = c.models.at(0).find("A");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->patterns.size(), 1u);
  const auto& t = std::get<TiledSpec>(a->patterns[0]);
  EXPECT_EQ(t.element_bytes, 8u);
  EXPECT_EQ(t.rows, 32u);
  EXPECT_EQ(t.cols, 32u);  // 1024 / 32
  EXPECT_EQ(t.tile_rows, 4u);
  EXPECT_EQ(t.tile_cols, 8u);
  EXPECT_EQ(t.passes, 1u);
  EXPECT_EQ(t.intra_reuse, 0u);
  EXPECT_DOUBLE_EQ(t.cache_ratio, 1.0);
}

TEST(TiledLowering, ExplicitPropertiesCarryThrough) {
  const dsl::CompiledProgram c = dsl::compile(
      std::string(kHeader) + R"(
model "M" {
  data A { elements 1024; element_size 8; }
  pattern A tiled { tile (8, 16); rows 16; cols 64; passes 4;
                    intra_reuse 3; ratio 0.25; }
})");
  const auto& t =
      std::get<TiledSpec>(c.models.at(0).find("A")->patterns.at(0));
  EXPECT_EQ(t.rows, 16u);
  EXPECT_EQ(t.cols, 64u);
  EXPECT_EQ(t.tile_rows, 8u);
  EXPECT_EQ(t.tile_cols, 16u);
  EXPECT_EQ(t.passes, 4u);
  EXPECT_EQ(t.intra_reuse, 3u);
  EXPECT_DOUBLE_EQ(t.cache_ratio, 0.25);
}

TEST(TiledLowering, GeometryMismatchesAreE019) {
  // rows does not divide the element count, so cols cannot be derived.
  EXPECT_THROW((void)dsl::compile(std::string(kHeader) + R"(
model "M" {
  data A { elements 100; element_size 8; }
  pattern A tiled { tile (4, 4); rows 7; }
})"),
               SemanticError);
  // rows * cols disagrees with the declared element count.
  EXPECT_THROW((void)dsl::compile(std::string(kHeader) + R"(
model "M" {
  data A { elements 1024; element_size 8; }
  pattern A tiled { tile (4, 4); rows 32; cols 16; }
})"),
               SemanticError);
  // Zero tile dimensions are meaningless geometry.
  EXPECT_THROW((void)dsl::compile(std::string(kHeader) + R"(
model "M" {
  data A { elements 1024; element_size 8; }
  pattern A tiled { tile (0, 4); rows 32; }
})"),
               SemanticError);
}

TEST(TiledLowering, MalformedDeclarationsAreRejected) {
  // Missing the tile tuple (DVF-E007).
  EXPECT_THROW((void)dsl::compile(std::string(kHeader) + R"(
model "M" {
  data A { elements 1024; element_size 8; }
  pattern A tiled { rows 32; }
})"),
               SemanticError);
  // Wrong tuple arity (DVF-E011).
  EXPECT_THROW((void)dsl::compile(std::string(kHeader) + R"(
model "M" {
  data A { elements 1024; element_size 8; }
  pattern A tiled { tile (4, 4, 4); rows 32; }
})"),
               SemanticError);
  // Unknown property (DVF-E006).
  EXPECT_THROW((void)dsl::compile(std::string(kHeader) + R"(
model "M" {
  data A { elements 1024; element_size 8; }
  pattern A tiled { tile (4, 4); rows 32; stride 2; }
})"),
               SemanticError);
}

// ---- analysis: bounds and hash ---------------------------------------------

constexpr const char* kTiledModel = R"(
machine "m" {
  cache { associativity 4; sets 64; line 32; }
  memory { fit 100; }
}
model "M" {
  time 1.0;
  data A { elements 4096; element_size 8; }
  pattern A tiled { tile (8, 8); rows 64; passes 8; intra_reuse 7; ratio 0.5; }
}
)";

TEST(TiledAnalysis, BoundsContainTheEvaluator) {
  const dsl::CompiledProgram p = dsl::compile(kTiledModel);
  const analysis::AnalysisReport report =
      analysis::analyze(p.machines, p.models);
  const analysis::ModelBounds* model = report.find_model("M");
  ASSERT_NE(model, nullptr);
  ASSERT_EQ(model->structures.size(), 1u);
  const analysis::StructureBounds& a = model->structures[0];
  ASSERT_EQ(a.per_machine.size(), 1u);
  EXPECT_FALSE(a.per_machine[0].eval_rejects);
  const double n_ha = try_estimate_accesses(
      p.models.at(0).find("A")->patterns.at(0), p.machines.at(0).llc)
      .value_or_throw();
  EXPECT_TRUE(a.per_machine[0].n_ha.contains(n_ha))
      << n_ha << " outside [" << a.per_machine[0].n_ha.lo << ", "
      << a.per_machine[0].n_ha.hi << "]";
}

TEST(TiledAnalysis, CanonicalHashIsStableAndFieldSensitive) {
  const dsl::CompiledProgram p = dsl::compile(kTiledModel);
  const std::uint64_t h1 =
      analysis::analyze(p.machines, p.models).canonical_hash;
  const std::uint64_t h2 =
      analysis::analyze(p.machines, p.models).canonical_hash;
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, 0u);

  // Any tiled field change must move the hash (the serve daemon keys its
  // admission cache on it).
  const std::string perturbed = [] {
    std::string s = kTiledModel;
    const auto at = s.find("passes 8");
    return s.replace(at, 8, "passes 9");
  }();
  const dsl::CompiledProgram q = dsl::compile(perturbed);
  EXPECT_NE(analysis::analyze(q.machines, q.models).canonical_hash, h1);
}

// ---- differential oracle --------------------------------------------------

/// Replays the exact loop nest the tiled model describes: P passes over the
/// row-major tile grid, each tile swept (1 + Q) times row by row. Geometry
/// must be tile-divisible.
double replay_tiled(const TiledSpec& spec, const CacheConfig& cache) {
  CacheSimulator sim(cache);
  const std::uint64_t tiles_r = spec.rows / spec.tile_rows;
  const std::uint64_t tiles_c = spec.cols / spec.tile_cols;
  for (std::uint64_t pass = 0; pass < spec.passes; ++pass) {
    for (std::uint64_t bi = 0; bi < tiles_r; ++bi) {
      for (std::uint64_t bj = 0; bj < tiles_c; ++bj) {
        for (std::uint64_t sweep = 0; sweep <= spec.intra_reuse; ++sweep) {
          for (std::uint64_t r = 0; r < spec.tile_rows; ++r) {
            const std::uint64_t row = bi * spec.tile_rows + r;
            for (std::uint64_t c = 0; c < spec.tile_cols; ++c) {
              const std::uint64_t col = bj * spec.tile_cols + c;
              sim.on_load(0, (row * spec.cols + col) * spec.element_bytes,
                          spec.element_bytes);
            }
          }
        }
      }
    }
  }
  return static_cast<double>(sim.stats(0).misses);
}

TEST(TiledOracle, FittingFootprintReplayIsExact) {
  TiledSpec s = base_spec();
  s.passes = 2;
  s.intra_reuse = 1;
  EXPECT_DOUBLE_EQ(try_estimate_tiled(s, cache8k()).value_or_throw(),
                   replay_tiled(s, cache8k()));
}

TEST(TiledOracle, OversizeTileReplayIsExact) {
  // One whole-matrix tile of 4x the cache: the LRU cyclic-scan pathology
  // makes every sweep miss fully, exactly the case-3 count.
  TiledSpec s = base_spec();
  s.rows = 64;
  s.cols = 64;
  s.tile_rows = 64;
  s.tile_cols = 64;
  s.passes = 2;
  s.intra_reuse = 1;
  EXPECT_DOUBLE_EQ(try_estimate_tiled(s, cache8k()).value_or_throw(),
                   replay_tiled(s, cache8k()));
}

TEST(TiledOracle, CacheFittingTileReplayStaysInTheBand) {
  // 128x40 doubles = 40 KiB (5x the cache) swept in 4x8 tiles: case 2's
  // per-pass refetch, within the documented ±15% band
  // (dvf::fuzz::kTiledOracleTolerance in fuzz/include/dvf/fuzz/fuzzer.hpp).
  TiledSpec s = base_spec();
  s.rows = 128;
  s.cols = 40;
  s.tile_rows = 4;
  s.tile_cols = 8;
  s.passes = 2;
  s.intra_reuse = 2;
  const double predicted = try_estimate_tiled(s, cache8k()).value_or_throw();
  const double simulated = replay_tiled(s, cache8k());
  EXPECT_NEAR(predicted, simulated, 0.15 * simulated)
      << "predicted " << predicted << " vs simulated " << simulated;
}

}  // namespace
}  // namespace dvf
