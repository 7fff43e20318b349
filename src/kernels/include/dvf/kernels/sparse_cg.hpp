// Sparse conjugate gradient (CSR) — the NPB CG benchmark the paper's
// Table II cites is sparse linear algebra; this kernel models the CSR
// format's characteristic patterns the dense variant cannot show:
// streaming value/index arrays plus an indirect GATHER of the search
// direction p through the column indices (random access with a profiled
// column-popularity histogram).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "dvf/dvf/model_spec.hpp"
#include "dvf/kernels/kernel_common.hpp"
#include "dvf/trace/aligned_buffer.hpp"
#include "dvf/trace/registry.hpp"

namespace dvf::kernels {

class SparseConjugateGradient {
 public:
  struct Config {
    std::uint64_t n = 1000;            ///< unknowns
    std::uint64_t offdiag_per_row = 8; ///< off-diagonal nonzeros per row (~)
    std::uint64_t max_iterations = 0;  ///< 0 = up to n
    double tolerance = 1e-10;
    std::uint64_t seed = 17;
  };

  explicit SparseConjugateGradient(const Config& config);

  /// Solves A x = b; records every element reference including the CSR
  /// gather.
  template <RecorderLike R>
  void run(R& rec);

  /// Aspen model: val/col streaming per iteration, row_ptr streaming, p a
  /// random gather with the profiled column-popularity histogram, x/r reuse.
  [[nodiscard]] ModelSpec model_spec() const;

  [[nodiscard]] const DataStructureRegistry& registry() const noexcept {
    return registry_;
  }
  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] std::uint64_t nonzeros() const noexcept { return nnz_; }
  [[nodiscard]] std::uint64_t iterations_run() const noexcept {
    return iterations_run_;
  }
  [[nodiscard]] double relative_residual() const noexcept {
    return relative_residual_;
  }
  [[nodiscard]] double solution_error() const;

  void reset() noexcept {}
  [[nodiscard]] double output_signature() const { return solution_error(); }

 private:
  /// CSR row i's nonzero range and the column of nonzero kk, checked to lie
  /// inside the matrix; they throw when an injected flip broke an index.
  [[nodiscard]] std::pair<std::size_t, std::size_t> checked_row(
      std::size_t i) const;
  [[nodiscard]] std::size_t checked_column(std::size_t kk) const;

  [[nodiscard]] std::uint64_t iteration_bound() const noexcept {
    return config_.max_iterations == 0 ? config_.n : config_.max_iterations;
  }

  Config config_;
  std::uint64_t nnz_ = 0;
  AlignedBuffer<double> values_;
  AlignedBuffer<std::int32_t> col_idx_;
  AlignedBuffer<std::int32_t> row_ptr_;
  AlignedBuffer<double> x_;
  AlignedBuffer<double> b_;
  AlignedBuffer<double> r_;
  AlignedBuffer<double> p_;
  AlignedBuffer<double> ap_;
  AlignedBuffer<double> exact_;
  std::vector<std::uint64_t> column_counts_;  ///< gather popularity profile
  DataStructureRegistry registry_;
  DsId val_id_ = 0;
  DsId col_id_ = 0;
  DsId row_id_ = 0;
  DsId x_id_ = 0;
  DsId r_id_ = 0;
  DsId p_id_ = 0;
  DsId ap_id_ = 0;
  std::uint64_t iterations_run_ = 0;
  double relative_residual_ = 0.0;
};

template <RecorderLike R>
void SparseConjugateGradient::run(R& rec) {
  const std::size_t n = config_.n;

  for (std::size_t i = 0; i < n; ++i) {
    x_[i] = 0.0;
    store(rec, x_id_, x_, i);
    r_[i] = b_[i];
    store(rec, r_id_, r_, i);
    p_[i] = r_[i];
    store(rec, p_id_, p_, i);
  }

  double b_norm2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    b_norm2 += b_[i] * b_[i];
  }
  if (b_norm2 == 0.0) {
    b_norm2 = 1.0;
  }
  double rho = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    load(rec, r_id_, r_, i);
    rho += r_[i] * r_[i];
  }

  iterations_run_ = 0;
  double r_norm2 = rho;
  const std::uint64_t bound = iteration_bound();
  while (iterations_run_ < bound && r_norm2 / b_norm2 > config_.tolerance) {
    // Ap = A p (CSR SpMV with the p gather) and p.Ap.
    double p_ap = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      // An injected bit flip in the CSR index arrays must not send the
      // SpMV out of bounds: each index is checked right after its load, and
      // the row bounds are read once, so a later flip cannot move them.
      load(rec, row_id_, row_ptr_, i);
      load(rec, row_id_, row_ptr_, i + 1);
      const auto [row_begin, row_end] = checked_row(i);
      double s = 0.0;
      for (std::size_t kk = row_begin; kk < row_end; ++kk) {
        load(rec, val_id_, values_, kk);
        load(rec, col_id_, col_idx_, kk);
        const std::size_t col = checked_column(kk);
        load(rec, p_id_, p_, col);  // the indirect gather
        s += values_[kk] * p_[col];
      }
      ap_[i] = s;
      store(rec, ap_id_, ap_, i);
      load(rec, p_id_, p_, i);
      p_ap += p_[i] * s;
    }
    const double alpha = rho / p_ap;

    r_norm2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      load(rec, x_id_, x_, i);
      load(rec, p_id_, p_, i);
      x_[i] += alpha * p_[i];
      store(rec, x_id_, x_, i);
      load(rec, r_id_, r_, i);
      load(rec, ap_id_, ap_, i);
      r_[i] -= alpha * ap_[i];
      store(rec, r_id_, r_, i);
      r_norm2 += r_[i] * r_[i];
    }

    const double beta = r_norm2 / rho;
    rho = r_norm2;
    for (std::size_t i = 0; i < n; ++i) {
      load(rec, p_id_, p_, i);
      load(rec, r_id_, r_, i);
      p_[i] = r_[i] + beta * p_[i];
      store(rec, p_id_, p_, i);
    }
    ++iterations_run_;
  }
  relative_residual_ = r_norm2 / b_norm2;
}

}  // namespace dvf::kernels
