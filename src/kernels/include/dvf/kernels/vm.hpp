// Vector Multiplication (VM) — dense linear algebra, streaming patterns.
//
// Paper Algorithm 1: C_i ← C_i + A_{i·j} · B_{i·k}; the three arrays stream
// with different strides (A's stride is larger, which is what makes its DVF
// dominate in Fig. 5(a)).
#pragma once

#include <cstdint>

#include "dvf/dvf/model_spec.hpp"
#include "dvf/kernels/kernel_common.hpp"
#include "dvf/trace/aligned_buffer.hpp"
#include "dvf/trace/registry.hpp"

namespace dvf::kernels {

class VectorMultiply {
 public:
  /// Element type follows the paper's "Integer Array" inputs (Tables V/VI).
  using Element = std::int32_t;

  struct Config {
    std::uint64_t iterations = 1000;  ///< n — number of multiply-adds
    std::uint64_t stride_a = 4;       ///< j — A's access stride (elements)
    std::uint64_t stride_b = 1;       ///< k — B's access stride (elements)
    std::uint64_t stride_c = 1;       ///< C's access stride (elements)
    std::uint64_t repeats = 1;        ///< whole-kernel repetitions
  };

  explicit VectorMultiply(const Config& config);

  /// Runs the multiply, emitting one record per logical element reference.
  template <RecorderLike R>
  void run(R& rec) {
    for (std::uint64_t rep = 0; rep < config_.repeats; ++rep) {
      for (std::uint64_t i = 0; i < config_.iterations; ++i) {
        const std::size_t ia = static_cast<std::size_t>(i * config_.stride_a);
        const std::size_t ib = static_cast<std::size_t>(i * config_.stride_b);
        const std::size_t ic = static_cast<std::size_t>(i * config_.stride_c);
        load(rec, a_id_, a_, ia);
        load(rec, b_id_, b_, ib);
        load(rec, c_id_, c_, ic);
        // Wrapping two's-complement arithmetic: a flipped bit can push the
        // product past int32, which is UB in signed arithmetic.
        using Bits = std::uint32_t;
        c_[ic] = static_cast<Element>(
            static_cast<Bits>(c_[ic]) +
            static_cast<Bits>(a_[ia]) * static_cast<Bits>(b_[ib]));
        store(rec, c_id_, c_, ic);
      }
    }
  }

  /// The paper's Aspen program for VM: three streaming structures.
  [[nodiscard]] ModelSpec model_spec() const;

  [[nodiscard]] const DataStructureRegistry& registry() const noexcept {
    return registry_;
  }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// Checksum over C, for correctness tests.
  [[nodiscard]] std::int64_t checksum() const;

  /// Zeroes the accumulator C so repeated runs are identical.
  void reset();

  /// Scalar output fingerprint for fault-injection campaigns.
  [[nodiscard]] double output_signature() const {
    return static_cast<double>(checksum());
  }

 private:
  Config config_;
  AlignedBuffer<Element> a_;
  AlignedBuffer<Element> b_;
  AlignedBuffer<Element> c_;
  DataStructureRegistry registry_;
  DsId a_id_;
  DsId b_id_;
  DsId c_id_;
};

}  // namespace dvf::kernels
