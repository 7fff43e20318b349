#include "dvf/kernels/multigrid.hpp"

#include "dvf/common/error.hpp"
#include "dvf/common/rng.hpp"

namespace dvf::kernels {

namespace {
bool is_power_of_two(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

MultiGrid::MultiGrid(const Config& config) : config_(config) {
  DVF_CHECK_MSG(is_power_of_two(config.dim), "MG: dim must be a power of two");
  DVF_CHECK_MSG(config.levels >= 1, "MG: need at least one level");
  DVF_CHECK_MSG(config.dim >> (config.levels - 1) >= 4,
                "MG: coarsest grid must be at least 4^3");
  DVF_CHECK_MSG(config.vcycles >= 1, "MG: need at least one V-cycle");

  u_.reserve(config.levels);
  rhs_.reserve(config.levels);
  res_.reserve(config.levels);
  for (std::size_t l = 0; l < config.levels; ++l) {
    const std::uint64_t n = edge(l);
    u_.emplace_back(cells(n));
    rhs_.emplace_back(cells(n));
    res_.emplace_back(cells(n));
  }

  // Deterministic zero-mean rhs noise on the finest level.
  Xoshiro256 rng(config_.seed);
  for (std::size_t i = 0; i < rhs_[0].size(); ++i) {
    rhs_[0][i] = rng.uniform() - 0.5;
  }

  for (std::size_t l = 0; l < config.levels; ++l) {
    const std::string suffix = l == 0 ? "" : std::to_string(l);
    u_ids_.push_back(registry_.register_structure(
        l == 0 ? "R" : "R" + suffix, u_[l].data(), u_[l].size_bytes(),
        sizeof(double)));
    rhs_ids_.push_back(registry_.register_structure(
        "rhs" + std::to_string(l), rhs_[l].data(), rhs_[l].size_bytes(),
        sizeof(double)));
    res_ids_.push_back(registry_.register_structure(
        "res" + std::to_string(l), res_[l].data(), res_[l].size_bytes(),
        sizeof(double)));
  }
}

std::vector<std::uint64_t> MultiGrid::smoother_template() const {
  const std::uint64_t n = config_.dim;
  std::vector<std::uint64_t> indices;
  indices.reserve(static_cast<std::size_t>(5 * (n - 2) * (n - 2) * n));
  // The paper's MG template: four sequential starting references advancing
  // by one each iteration until the grid boundary — exactly the smoother's
  // reference order, plus the written center point.
  for (std::uint64_t i = 1; i + 1 < n; ++i) {
    for (std::uint64_t j = 1; j + 1 < n; ++j) {
      for (std::uint64_t k = 0; k < n; ++k) {
        indices.push_back(at(n, i, j - 1, k));
        indices.push_back(at(n, i, j + 1, k));
        indices.push_back(at(n, i - 1, j, k));
        indices.push_back(at(n, i + 1, j, k));
        indices.push_back(at(n, i, j, k));
      }
    }
  }
  return indices;
}

ModelSpec MultiGrid::model_spec() const {
  ModelSpec spec;
  spec.name = "MG";

  DataStructureSpec ds;
  ds.name = "R";
  ds.size_bytes = u_[0].size_bytes();

  // Finest-grid passes per V-cycle: pre- and post-smooth sweeps, the
  // residual pass (same stencil shape) and the prolongation correction
  // (approximated as one more sweep of the template).
  const std::uint64_t passes_per_cycle =
      config_.pre_smooth + config_.post_smooth + 2;

  TemplateSpec t;
  t.element_bytes = sizeof(double);
  t.starts = smoother_template();
  t.repetitions = passes_per_cycle * config_.vcycles;
  // The rhs and residual arrays stream alongside R and contend for the
  // cache; R's share is its footprint fraction of the three equally sized
  // finest-level arrays (paper: divide the cache among the concurrently
  // accessed structures by size).
  t.cache_ratio = 1.0 / 3.0;
  ds.patterns.emplace_back(std::move(t));
  spec.structures.push_back(std::move(ds));
  return spec;
}

}  // namespace dvf::kernels
