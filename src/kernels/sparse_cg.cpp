#include "dvf/kernels/sparse_cg.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>

#include "dvf/common/error.hpp"
#include "dvf/common/rng.hpp"

namespace dvf::kernels {

SparseConjugateGradient::SparseConjugateGradient(const Config& config)
    : config_(config),
      x_(config.n),
      b_(config.n),
      r_(config.n),
      p_(config.n),
      ap_(config.n),
      exact_(config.n) {
  DVF_CHECK_MSG(config.n >= 4, "sparse CG: need at least 4 unknowns");
  DVF_CHECK_MSG(config.offdiag_per_row >= 1,
                "sparse CG: need at least one off-diagonal per row");
  const std::size_t n = config_.n;

  // Symmetric SPD sparse matrix: diagonal + ~offdiag_per_row symmetric
  // entries per row, skewed toward low column indices so the gather has a
  // non-uniform popularity profile (hub columns), as real meshes do.
  Xoshiro256 rng(config_.seed);
  std::vector<std::map<std::uint32_t, double>> rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::uint64_t e = 0; e < config_.offdiag_per_row / 2 + 1; ++e) {
      // Quadratic skew: low-index "hub" columns attract most edges.
      const double u = rng.uniform();
      auto j = static_cast<std::size_t>(u * u * static_cast<double>(n));
      j = std::min(j, n - 1);
      if (j == i) {
        continue;
      }
      const double v = (rng.uniform() - 0.5) * 0.1;
      rows[i][static_cast<std::uint32_t>(j)] = v;
      rows[j][static_cast<std::uint32_t>(i)] = v;
    }
  }
  // Strict diagonal dominance keeps it SPD.
  for (std::size_t i = 0; i < n; ++i) {
    double off_sum = 0.0;
    for (const auto& [j, v] : rows[i]) {
      off_sum += std::fabs(v);
    }
    rows[i][static_cast<std::uint32_t>(i)] = off_sum + 1.0 + rng.uniform();
  }

  nnz_ = 0;
  for (const auto& row : rows) {
    nnz_ += row.size();
  }

  values_ = AlignedBuffer<double>(nnz_);
  col_idx_ = AlignedBuffer<std::int32_t>(nnz_);
  row_ptr_ = AlignedBuffer<std::int32_t>(n + 1);
  column_counts_.assign(n, 0);
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < n; ++i) {
    row_ptr_[i] = static_cast<std::int32_t>(cursor);
    for (const auto& [j, v] : rows[i]) {
      values_[cursor] = v;
      col_idx_[cursor] = static_cast<std::int32_t>(j);
      ++column_counts_[j];
      ++cursor;
    }
  }
  row_ptr_[n] = static_cast<std::int32_t>(cursor);

  // Known exact solution, b = A * exact.
  for (std::size_t i = 0; i < n; ++i) {
    exact_[i] = 1.0 + std::cos(static_cast<double>(i) * 0.1);
  }
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (std::int32_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      s += values_[static_cast<std::size_t>(k)] *
           exact_[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])];
    }
    b_[i] = s;
  }

  val_id_ = registry_.register_structure("val", values_.data(),
                                         values_.size_bytes(), sizeof(double));
  col_id_ = registry_.register_structure("col", col_idx_.data(),
                                         col_idx_.size_bytes(),
                                         sizeof(std::int32_t));
  row_id_ = registry_.register_structure("row", row_ptr_.data(),
                                         row_ptr_.size_bytes(),
                                         sizeof(std::int32_t));
  x_id_ = registry_.register_structure("x", x_.data(), x_.size_bytes(),
                                       sizeof(double));
  r_id_ = registry_.register_structure("r", r_.data(), r_.size_bytes(),
                                       sizeof(double));
  p_id_ = registry_.register_structure("p", p_.data(), p_.size_bytes(),
                                       sizeof(double));
  ap_id_ = registry_.register_structure("Ap", ap_.data(), ap_.size_bytes(),
                                        sizeof(double));
}

std::pair<std::size_t, std::size_t> SparseConjugateGradient::checked_row(
    std::size_t i) const {
  const std::int32_t begin = row_ptr_[i];
  const std::int32_t end = row_ptr_[i + 1];
  DVF_CHECK_MSG(0 <= begin && begin <= end &&
                    static_cast<std::uint64_t>(end) <= nnz_,
                "sparse CG: row pointer outside the CSR arrays");
  return {static_cast<std::size_t>(begin), static_cast<std::size_t>(end)};
}

std::size_t SparseConjugateGradient::checked_column(std::size_t kk) const {
  const std::int32_t col = col_idx_[kk];
  DVF_CHECK_MSG(0 <= col && static_cast<std::uint64_t>(col) < config_.n,
                "sparse CG: column index outside the matrix");
  return static_cast<std::size_t>(col);
}

ModelSpec SparseConjugateGradient::model_spec() const {
  const std::uint64_t n = config_.n;
  const std::uint64_t iters =
      iterations_run_ > 0 ? iterations_run_ : iteration_bound();
  const std::uint64_t vec_bytes = n * sizeof(double);

  ModelSpec spec;
  spec.name = "CGS";

  const auto reuse_of = [](std::uint64_t self, std::uint64_t other,
                           std::uint64_t rounds) {
    ReuseSpec u;
    u.self_bytes = self;
    u.other_bytes = other;
    u.reuse_rounds = rounds;
    u.occupancy = ReuseOccupancy::kContiguous;
    return u;
  };

  const std::uint64_t csr_bytes =
      nnz_ * (sizeof(double) + sizeof(std::int32_t));

  // val / col: one streaming traversal per SpMV against small interference.
  {
    DataStructureSpec ds;
    ds.name = "val";
    ds.size_bytes = nnz_ * sizeof(double);
    ds.patterns.emplace_back(reuse_of(ds.size_bytes,
                                      nnz_ * sizeof(std::int32_t) +
                                          6 * vec_bytes,
                                      iters - 1));
    spec.structures.push_back(std::move(ds));
  }
  {
    DataStructureSpec ds;
    ds.name = "col";
    ds.size_bytes = nnz_ * sizeof(std::int32_t);
    ds.patterns.emplace_back(reuse_of(ds.size_bytes,
                                      nnz_ * sizeof(double) + 6 * vec_bytes,
                                      iters - 1));
    spec.structures.push_back(std::move(ds));
  }
  {
    DataStructureSpec ds;
    ds.name = "row";
    ds.size_bytes = (n + 1) * sizeof(std::int32_t);
    ds.patterns.emplace_back(reuse_of(ds.size_bytes, csr_bytes, iters - 1));
    spec.structures.push_back(std::move(ds));
  }

  // p: the gather — random access with the column-popularity histogram
  // (hub columns stay cached), nnz visits per SpMV, plus its own share of
  // the cache against the streaming CSR arrays.
  {
    DataStructureSpec ds;
    ds.name = "p";
    ds.size_bytes = vec_bytes;
    RandomSpec g;
    g.element_count = n;
    g.element_bytes = sizeof(double);
    g.visits_per_iteration = static_cast<double>(nnz_) /
                             static_cast<double>(n);  // per row processed
    g.iterations = iters * n;  // one "iteration" per row of the SpMV
    g.cache_ratio = static_cast<double>(vec_bytes) /
                    static_cast<double>(vec_bytes + csr_bytes / n + 1);
    g.sorted_visit_fractions.reserve(n);
    // Per-row visit probability of column j ~ count_j / n rows.
    for (const std::uint64_t count : column_counts_) {
      g.sorted_visit_fractions.push_back(
          std::min(1.0, static_cast<double>(count) / static_cast<double>(n)));
    }
    std::sort(g.sorted_visit_fractions.begin(),
              g.sorted_visit_fractions.end(), std::greater<>());
    ds.patterns.emplace_back(std::move(g));
    spec.structures.push_back(std::move(ds));
  }

  spec.structures.push_back([&] {
    DataStructureSpec ds;
    ds.name = "x";
    ds.size_bytes = vec_bytes;
    ds.patterns.emplace_back(reuse_of(vec_bytes, csr_bytes, iters));
    return ds;
  }());
  spec.structures.push_back([&] {
    DataStructureSpec ds;
    ds.name = "r";
    ds.size_bytes = vec_bytes;
    // Two traversals per iteration (the residual update and the p-update
    // read), each after enough intervening traffic to evict it.
    ds.patterns.emplace_back(reuse_of(vec_bytes, csr_bytes, 2 * iters));
    return ds;
  }());
  return spec;
}

double SparseConjugateGradient::solution_error() const {
  double err = 0.0;
  for (std::size_t i = 0; i < config_.n; ++i) {
    err = std::max(err, std::fabs(x_[i] - exact_[i]));
  }
  return err;
}

}  // namespace dvf::kernels
