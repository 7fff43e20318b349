// Synthetic cross-validation: each analytical model against the LRU
// simulator on purpose-built reference streams (independent of the six
// kernels). These are the model-level ground-truth checks the paper's
// Fig. 4 aggregates.
#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "dvf/cachesim/cache_simulator.hpp"
#include "dvf/common/math.hpp"
#include "dvf/common/rng.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/patterns/estimate.hpp"

namespace dvf {
namespace {

CacheConfig cache8k() { return {"c8k", 4, 64, 32}; }

// ---- random model (Eqs. 5–7) against a genuinely uniform workload --------

struct RandomCase {
  std::uint64_t elements;
  std::uint32_t element_bytes;
  std::uint64_t visits;
  std::uint64_t iterations;
};

// gtest names each case after its printed parameter. Without this printer it
// dumps the struct's bytes, including the padding after element_bytes, whose
// contents change from run to run.
void PrintTo(const RandomCase& c, std::ostream* os) {
  *os << c.elements << "x" << c.element_bytes << "B_" << c.visits
      << "visits_" << c.iterations << "iterations";
}

class UniformRandomVsSim : public ::testing::TestWithParam<RandomCase> {};

TEST_P(UniformRandomVsSim, WithinPaperBand) {
  const RandomCase c = GetParam();
  const CacheConfig config = cache8k();
  CacheSimulator sim(config);
  Xoshiro256 rng(77);

  // Construction traversal (the model's assumption), then uniform visits of
  // k DISTINCT elements per iteration.
  for (std::uint64_t e = 0; e < c.elements; ++e) {
    sim.on_load(0, e * c.element_bytes, c.element_bytes);
  }
  std::vector<std::uint64_t> picks(c.visits);
  for (std::uint64_t it = 0; it < c.iterations; ++it) {
    for (std::uint64_t v = 0; v < c.visits; ++v) {
      // Distinctness via rejection against this iteration's picks.
      std::uint64_t e;
      bool fresh;
      do {
        e = rng.below(c.elements);
        fresh = true;
        for (std::uint64_t w = 0; w < v; ++w) {
          fresh = fresh && picks[w] != e;
        }
      } while (!fresh);
      picks[v] = e;
      sim.on_load(0, e * c.element_bytes, c.element_bytes);
    }
  }

  RandomSpec spec;
  spec.element_count = c.elements;
  spec.element_bytes = c.element_bytes;
  spec.visits_per_iteration = static_cast<double>(c.visits);
  spec.iterations = c.iterations;

  const double predicted = try_estimate_random(spec, config).value_or_throw();
  const double simulated = static_cast<double>(sim.stats(0).misses);
  EXPECT_LE(math::relative_error(predicted, simulated), 0.15)
      << "predicted " << predicted << " simulated " << simulated;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, UniformRandomVsSim,
    ::testing::Values(
        RandomCase{2000, 32, 20, 500},   // footprint 8x the cache
        RandomCase{1000, 32, 50, 300},   // 4x
        RandomCase{4000, 16, 10, 1000},  // smaller elements
        RandomCase{200, 32, 30, 500},    // fits: compulsory only
        RandomCase{512, 64, 8, 400}));   // big elements

// ---- reuse model (Eqs. 8–15) against traverse/interfere/repeat loops -----

struct ReuseCase {
  std::uint64_t self_bytes;
  std::uint64_t other_bytes;
  std::uint64_t rounds;
};

class ReuseVsSim : public ::testing::TestWithParam<ReuseCase> {};

TEST_P(ReuseVsSim, WithinPaperBand) {
  const ReuseCase c = GetParam();
  const CacheConfig config = cache8k();
  CacheSimulator sim(config);

  const auto traverse = [&](DsId ds, std::uint64_t base, std::uint64_t bytes) {
    for (std::uint64_t offset = 0; offset < bytes; offset += 8) {
      sim.on_load(ds, base + offset, 8);
    }
  };

  // Load A, then per round: interfering traversal of B, re-traversal of A.
  const std::uint64_t base_a = 0;
  const std::uint64_t base_b = 1 << 26;  // disjoint address ranges
  traverse(0, base_a, c.self_bytes);
  for (std::uint64_t round = 0; round < c.rounds; ++round) {
    if (c.other_bytes > 0) {
      traverse(1, base_b, c.other_bytes);
    }
    traverse(0, base_a, c.self_bytes);
  }

  ReuseSpec spec;
  spec.self_bytes = c.self_bytes;
  spec.other_bytes = c.other_bytes;
  spec.reuse_rounds = c.rounds;
  spec.occupancy = ReuseOccupancy::kContiguous;  // contiguous arrays here

  const double predicted = try_estimate_reuse(spec, config).value_or_throw();
  const double simulated = static_cast<double>(sim.stats(0).misses);
  EXPECT_LE(math::relative_error(predicted, simulated), 0.15)
      << "predicted " << predicted << " simulated " << simulated;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReuseVsSim,
    ::testing::Values(
        ReuseCase{2048, 1024, 20},     // both fit together: one load
        ReuseCase{4096, 65536, 10},    // interferer flushes A every round
        ReuseCase{65536, 65536, 5},    // A itself exceeds the cache
        ReuseCase{8192, 0, 15},        // A alone, exactly cache-sized
        ReuseCase{2048, 1 << 20, 8})); // overwhelming interference

// ---- template model against arbitrary recorded streams -------------------

TEST(TemplateVsSim, MatchesSimulatorOnStencilStream) {
  // 2-D 5-point stencil over a grid that exceeds the cache.
  const CacheConfig config = cache8k();
  const std::uint64_t n = 64;  // 64x64 doubles = 32 KiB > 8 KiB
  TemplateSpec spec;
  spec.element_bytes = 8;
  for (std::uint64_t i = 1; i + 1 < n; ++i) {
    for (std::uint64_t j = 1; j + 1 < n; ++j) {
      const std::uint64_t center = i * n + j;
      spec.element_indices.push_back(center - 1);
      spec.element_indices.push_back(center + 1);
      spec.element_indices.push_back(center - n);
      spec.element_indices.push_back(center + n);
      spec.element_indices.push_back(center);
    }
  }
  spec.repetitions = 4;

  CacheSimulator sim(config);
  for (std::uint64_t rep = 0; rep < spec.repetitions; ++rep) {
    for (const std::uint64_t idx : spec.element_indices) {
      sim.on_load(0, idx * 8, 8);
    }
  }
  const double predicted = try_estimate_template(spec, config).value_or_throw();
  const double simulated = static_cast<double>(sim.stats(0).misses);
  EXPECT_LE(math::relative_error(predicted, simulated), 0.15)
      << "predicted " << predicted << " simulated " << simulated;
}

TEST(TemplateVsSim, ExactForFullyAssociativeFriendlyStreams) {
  // A stream whose stack distances are far from the capacity boundary is
  // predicted exactly: repeated scan of half the cache.
  const CacheConfig config = cache8k();
  TemplateSpec spec;
  spec.element_bytes = 32;  // one block per element
  for (int rep = 0; rep < 6; ++rep) {
    for (std::uint64_t i = 0; i < 128; ++i) {  // half of the 256 blocks
      spec.element_indices.push_back(i);
    }
  }
  CacheSimulator sim(config);
  for (const std::uint64_t idx : spec.element_indices) {
    sim.on_load(0, idx * 32, 32);
  }
  EXPECT_DOUBLE_EQ(try_estimate_template(spec, config).value_or_throw(),
                   static_cast<double>(sim.stats(0).misses));
}

}  // namespace
}  // namespace dvf
