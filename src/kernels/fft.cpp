#include "dvf/kernels/fft.hpp"

#include <cmath>

#include "dvf/common/error.hpp"
#include "dvf/common/rng.hpp"

namespace dvf::kernels {

namespace {
bool is_power_of_two(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

Fft1D::Fft1D(const Config& config) : config_(config), x_(config.n) {
  DVF_CHECK_MSG(is_power_of_two(config.n) && config.n >= 4,
                "FT: transform length must be a power of two >= 4");
  DVF_CHECK_MSG(config.transforms >= 1, "FT: need at least one transform");

  // Deterministic band-limited signal plus noise.
  Xoshiro256 rng(config_.seed);
  original_.resize(config.n);
  for (std::size_t i = 0; i < config.n; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(config.n);
    original_[i].re = std::sin(2.0 * 3.14159265358979323846 * 5.0 * t) +
                      0.25 * (rng.uniform() - 0.5);
    original_[i].im = 0.0;
    x_[i] = original_[i];
  }

  x_id_ = registry_.register_structure("X", x_.data(), x_.size_bytes(),
                                       sizeof(Complex));
}

void Fft1D::reset_signal() {
  for (std::size_t i = 0; i < config_.n; ++i) {
    x_[i] = original_[i];
  }
}

std::vector<std::uint64_t> Fft1D::transform_template() const {
  const std::uint64_t n = config_.n;
  std::vector<std::uint64_t> indices;

  for (std::uint64_t i = 1, j = 0; i < n; ++i) {
    std::uint64_t bit = n >> 1;
    for (; j & bit; bit >>= 1) {
      j ^= bit;
    }
    j ^= bit;
    if (i < j) {
      indices.push_back(i);
      indices.push_back(j);
    }
  }
  for (std::uint64_t len = 2; len <= n; len <<= 1) {
    for (std::uint64_t i = 0; i < n; i += len) {
      for (std::uint64_t j = 0; j < len / 2; ++j) {
        indices.push_back(i + j);
        indices.push_back(i + j + len / 2);
      }
    }
  }
  return indices;
}

ModelSpec Fft1D::model_spec() const {
  ModelSpec spec;
  spec.name = "FT";

  DataStructureSpec ds;
  ds.name = "X";
  ds.size_bytes = x_.size_bytes();
  TemplateSpec t;
  t.element_bytes = sizeof(Complex);
  t.starts = transform_template();
  t.repetitions = config_.transforms;
  ds.patterns.emplace_back(std::move(t));
  spec.structures.push_back(std::move(ds));
  return spec;
}

double Fft1D::spectrum_energy() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < config_.n; ++i) {
    sum += x_[i].re * x_[i].re + x_[i].im * x_[i].im;
  }
  return sum;
}

}  // namespace dvf::kernels
