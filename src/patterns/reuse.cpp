#include "dvf/patterns/reuse.hpp"

#include <algorithm>
#include <cmath>

#include "dvf/common/error.hpp"
#include "dvf/common/math.hpp"

namespace dvf {

std::vector<double> set_occupancy_distribution(std::uint64_t total_blocks,
                                               const CacheConfig& cache) {
  const auto ca = static_cast<std::int64_t>(cache.associativity());
  const double p = 1.0 / static_cast<double>(cache.num_sets());
  const auto f = static_cast<std::int64_t>(total_blocks);

  std::vector<double> dist(static_cast<std::size_t>(ca) + 1, 0.0);
  for (std::int64_t x = 0; x < ca; ++x) {
    dist[static_cast<std::size_t>(x)] = math::binomial_pmf(f, x, p);
  }
  // Eq. 8, second branch: occupancy saturates at the associativity, so the
  // top bin takes the whole upper tail P(X >= CA).
  dist[static_cast<std::size_t>(ca)] = math::binomial_tail(f, ca, p);
  return dist;
}

double expected_occupancy(const std::vector<double>& dist) {
  math::KahanSum sum;
  for (std::size_t r = 1; r < dist.size(); ++r) {
    sum.add(static_cast<double>(r) * dist[r]);
  }
  return sum.value();
}

namespace {

/// Eq. 11 — scenario 1: the target structure A was just accessed, so under
/// LRU the interferer B first evicts non-A blocks; A loses blocks only when
/// the combined demand overflows the set.
/// Returns P(R_A = r | X_A = x, X_B = y) as a dense vector over r = 0..CA.
std::vector<double> survivors_lru(std::int64_t x, std::int64_t y,
                                  std::int64_t ca) {
  std::vector<double> dist(static_cast<std::size_t>(ca) + 1, 0.0);
  const std::int64_t r = (x + y <= ca) ? x : std::max<std::int64_t>(ca - y, 0);
  dist[static_cast<std::size_t>(r)] = 1.0;
  return dist;
}

/// Eq. 12 — scenario 2: A and B loaded concurrently; each of the I resident
/// blocks is equally likely to be displaced by the y interferer insertions.
/// Survivors of A follow a hypergeometric law; the paper's C(x, x-r) *
/// C(I-x, y-x+r) / C(I, y) is Hypergeometric(total=I, marked=x, draws=y) at
/// (x - r) evictions of A blocks.
std::vector<double> survivors_uniform(std::int64_t x, std::int64_t y,
                                      std::int64_t ca,
                                      std::int64_t combined_expected) {
  std::vector<double> dist(static_cast<std::size_t>(ca) + 1, 0.0);
  const std::int64_t total = std::max<std::int64_t>(combined_expected, x);
  math::KahanSum norm;
  for (std::int64_t r = 0; r <= x && r <= ca; ++r) {
    const double p = math::hypergeometric_pmf(total, x, y, x - r);
    dist[static_cast<std::size_t>(r)] = p;
    norm.add(p);
  }
  // Outside the hypergeometric support (e.g. y > I - x forces extra
  // evictions) mass can be lost; renormalize so the conditional stays a pmf.
  const double z = norm.value();
  if (z > 0.0) {
    for (double& p : dist) {
      p /= z;
    }
  } else {
    dist[0] = 1.0;  // everything evicted
  }
  return dist;
}

}  // namespace

std::vector<double> set_occupancy_contiguous(std::uint64_t total_blocks,
                                             const CacheConfig& cache) {
  const auto ca = static_cast<std::size_t>(cache.associativity());
  const std::uint64_t na = cache.num_sets();
  std::vector<double> dist(ca + 1, 0.0);

  const std::uint64_t floor_occ = total_blocks / na;
  const std::uint64_t remainder = total_blocks % na;
  const auto low = static_cast<std::size_t>(std::min<std::uint64_t>(floor_occ, ca));
  const auto high =
      static_cast<std::size_t>(std::min<std::uint64_t>(floor_occ + 1, ca));
  const double frac = static_cast<double>(remainder) / static_cast<double>(na);
  dist[low] += 1.0 - frac;
  dist[high] += frac;
  return dist;
}

namespace {

/// Budgeted core of survivor_distribution. The (CA+1)^2 convolution with
/// O(CA) work per cell is charged up front — an adversarial associativity
/// turns it into a cube of the associativity — and the wall clock is
/// observed once per row.
Result<std::vector<double>> try_survivor_distribution(
    std::uint64_t self_blocks, std::uint64_t other_blocks,
    const CacheConfig& cache, ReuseScenario scenario, ReuseOccupancy occupancy,
    EvalBudget& budget) {
  const auto ca = static_cast<std::int64_t>(cache.associativity());
  const auto ca_plus_1 = static_cast<std::uint64_t>(ca) + 1;
  DVF_TRY_CHECK(budget.charge_references(
      math::saturating_mul(math::saturating_mul(ca_plus_1, ca_plus_1),
                           ca_plus_1)));
  if (self_blocks > ~std::uint64_t{0} - other_blocks) {
    return EvalError{ErrorKind::kOverflow,
                     "reuse: combined footprint overflows 64 bits"};
  }
  const std::uint64_t combined_blocks = self_blocks + other_blocks;
  if (occupancy == ReuseOccupancy::kBernoulli &&
      combined_blocks >
          static_cast<std::uint64_t>(math::kMaxCombinatoricPopulation)) {
    return EvalError{
        ErrorKind::kOverflow,
        "reuse: combined footprint of " + std::to_string(combined_blocks) +
            " blocks exceeds the checked-combinatorics limit " +
            std::to_string(math::kMaxCombinatoricPopulation)};
  }

  const auto occupancy_of = [&](std::uint64_t blocks) {
    return occupancy == ReuseOccupancy::kContiguous
               ? set_occupancy_contiguous(blocks, cache)
               : set_occupancy_distribution(blocks, cache);
  };

  const std::vector<double> pa = occupancy_of(self_blocks);
  const std::vector<double> pb = occupancy_of(other_blocks);

  // Scenario 2 views A and B as one combined structure when computing how
  // many resident blocks an eviction can strike (the paper's I).
  const std::vector<double> combined = occupancy_of(combined_blocks);
  const auto combined_expected =
      static_cast<std::int64_t>(std::llround(expected_occupancy(combined)));

  std::vector<double> result(static_cast<std::size_t>(ca) + 1, 0.0);
  for (std::int64_t x = 0; x <= ca; ++x) {
    DVF_TRY_CHECK(budget.check_deadline());
    for (std::int64_t y = 0; y <= ca; ++y) {
      const double weight = pa[static_cast<std::size_t>(x)] *
                            pb[static_cast<std::size_t>(y)];  // Eq. 13
      if (weight == 0.0) {
        continue;
      }
      std::vector<double> conditional;
      switch (scenario) {
        case ReuseScenario::kLruProtects:
          conditional = survivors_lru(x, y, ca);
          break;
        case ReuseScenario::kUniformEviction:
          conditional = survivors_uniform(x, y, ca, combined_expected);
          break;
        case ReuseScenario::kBlend: {
          const std::vector<double> a = survivors_lru(x, y, ca);
          const std::vector<double> b =
              survivors_uniform(x, y, ca, combined_expected);
          conditional.resize(a.size());
          for (std::size_t i = 0; i < a.size(); ++i) {
            conditional[i] = 0.5 * (a[i] + b[i]);
          }
          break;
        }
      }
      for (std::size_t r = 0; r < result.size(); ++r) {
        result[r] += weight * conditional[r];  // Eq. 14
      }
    }
  }
  return result;
}

}  // namespace

std::vector<double> survivor_distribution(std::uint64_t self_blocks,
                                          std::uint64_t other_blocks,
                                          const CacheConfig& cache,
                                          ReuseScenario scenario,
                                          ReuseOccupancy occupancy) {
  return try_survivor_distribution(self_blocks, other_blocks, cache, scenario,
                                   occupancy,
                                   EvalBudget::process_default())
      .value_or_throw();
}

Result<double> try_estimate_reuse(const ReuseSpec& spec,
                                  const CacheConfig& cache,
                                  EvalBudget* budget_in) {
  EvalBudget& budget = budget_or_default(budget_in);
  DVF_EVAL_REQUIRE(spec.self_bytes > 0, "reuse: target footprint must be > 0");
  DVF_TRY_CHECK(budget.check_deadline());

  const std::uint64_t cl = cache.line_bytes();
  const std::uint64_t fa = math::ceil_div(spec.self_bytes, cl);
  const std::uint64_t fb = math::ceil_div(spec.other_bytes, cl);

  DVF_TRY_ASSIGN(dist,
                 try_survivor_distribution(fa, fb, cache, spec.scenario,
                                           spec.occupancy, budget));
  const double expected_resident =
      static_cast<double>(cache.num_sets()) * expected_occupancy(dist);

  // A set cannot retain more blocks of A than A has, so cap before
  // subtracting; then each reuse round refetches the remainder.
  const double resident = std::min(expected_resident, static_cast<double>(fa));
  const double refetch_per_round = static_cast<double>(fa) - resident;
  return finite_or_error(
      static_cast<double>(fa) +
          refetch_per_round * static_cast<double>(spec.reuse_rounds),
      "reuse estimate (Eq. 15)");
}

}  // namespace dvf
