// Microbenchmarks of the analytical model evaluators — the paper's speed
// claim is that DVF evaluation costs seconds rather than the hours of
// fault-injection campaigns; these show each pattern estimate is micro- to
// millisecond-scale.
#include <benchmark/benchmark.h>

#include "dvf/machine/cache_config.hpp"
#include "dvf/patterns/estimate.hpp"

namespace {

const dvf::CacheConfig& cache() {
  static const dvf::CacheConfig c = dvf::caches::profiling_8mb();
  return c;
}

void BM_Streaming(benchmark::State& state) {
  dvf::StreamingSpec spec;
  spec.element_bytes = 8;
  spec.element_count = static_cast<std::uint64_t>(state.range(0));
  spec.stride_elements = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dvf::try_estimate_streaming(spec, cache()).value_or_throw());
  }
}
BENCHMARK(BM_Streaming)->Arg(1000)->Arg(1000000)->Arg(100000000);

void BM_RandomUniform(benchmark::State& state) {
  dvf::RandomSpec spec;
  spec.element_count = static_cast<std::uint64_t>(state.range(0));
  spec.element_bytes = 32;
  spec.visits_per_iteration = 200;
  spec.iterations = 100000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dvf::try_estimate_random(spec, cache()).value_or_throw());
  }
}
BENCHMARK(BM_RandomUniform)->Arg(100000)->Arg(1000000)->Arg(10000000);

void BM_RandomIrm(benchmark::State& state) {
  dvf::RandomSpec spec;
  spec.element_count = static_cast<std::uint64_t>(state.range(0));
  spec.element_bytes = 32;
  spec.visits_per_iteration = 200;
  spec.iterations = 100000;
  spec.sorted_visit_fractions.resize(spec.element_count);
  for (std::size_t i = 0; i < spec.sorted_visit_fractions.size(); ++i) {
    spec.sorted_visit_fractions[i] = 1.0 / static_cast<double>(i + 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dvf::try_estimate_random(spec, cache()).value_or_throw());
  }
}
BENCHMARK(BM_RandomIrm)->Arg(100000)->Arg(1000000);

void BM_TemplateStackDistance(benchmark::State& state) {
  // A stencil-like template: 5 references per point over a 3-D grid edge.
  const auto n = static_cast<std::uint64_t>(state.range(0));
  dvf::TemplateSpec spec;
  spec.element_bytes = 8;
  for (std::uint64_t i = 1; i + 1 < n; ++i) {
    for (std::uint64_t j = 1; j + 1 < n; ++j) {
      for (std::uint64_t k = 0; k < n; ++k) {
        const std::uint64_t center = (i * n + j) * n + k;
        spec.element_indices.push_back(center - n);
        spec.element_indices.push_back(center + n);
        spec.element_indices.push_back(center - n * n);
        spec.element_indices.push_back(center + n * n);
        spec.element_indices.push_back(center);
      }
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dvf::try_estimate_template(spec, cache()).value_or_throw());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() *
                                spec.element_indices.size()));
}
BENCHMARK(BM_TemplateStackDistance)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_Reuse(benchmark::State& state) {
  dvf::ReuseSpec spec;
  spec.self_bytes = static_cast<std::uint64_t>(state.range(0));
  spec.other_bytes = spec.self_bytes * 3;
  spec.reuse_rounds = 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dvf::try_estimate_reuse(spec, cache()).value_or_throw());
  }
}
BENCHMARK(BM_Reuse)->Arg(64 * 1024)->Arg(16 * 1024 * 1024);

}  // namespace

BENCHMARK_MAIN();
