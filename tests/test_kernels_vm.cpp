// Tests for the VM kernel: computation, instrumentation, self-description.
#include "dvf/kernels/vm.hpp"

#include <gtest/gtest.h>

#include <variant>

#include "dvf/cachesim/cache_simulator.hpp"
#include "dvf/common/error.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/patterns/streaming.hpp"

namespace dvf::kernels {
namespace {

TEST(VmKernel, ComputesTheProduct) {
  VectorMultiply::Config config;
  config.iterations = 100;
  config.stride_a = 1;
  config.stride_b = 1;
  config.stride_c = 1;
  VectorMultiply vm(config);
  NullRecorder null;
  vm.run(null);
  // A[i] = i%7+1, B[i] = i%5+1, C[i] = A[i]*B[i]; checksum is deterministic.
  std::int64_t expected = 0;
  for (int i = 0; i < 100; ++i) {
    expected += static_cast<std::int64_t>(i % 7 + 1) * (i % 5 + 1);
  }
  EXPECT_EQ(vm.checksum(), expected);
}

TEST(VmKernel, ResetRestoresTheAccumulator) {
  VectorMultiply vm({.iterations = 50});
  NullRecorder null;
  vm.run(null);
  const std::int64_t once = vm.checksum();
  vm.run(null);  // accumulates again
  EXPECT_EQ(vm.checksum(), 2 * once);
  vm.reset();
  vm.run(null);
  EXPECT_EQ(vm.checksum(), once);
}

TEST(VmKernel, ReferenceCountsMatchTheAlgorithm) {
  VectorMultiply::Config config;
  config.iterations = 1000;
  VectorMultiply vm(config);
  CountingRecorder counts;
  vm.run(counts);
  const auto a = *vm.registry().find("A");
  const auto b = *vm.registry().find("B");
  const auto c = *vm.registry().find("C");
  EXPECT_EQ(counts.counts(a).loads, 1000u);
  EXPECT_EQ(counts.counts(a).stores, 0u);
  EXPECT_EQ(counts.counts(b).loads, 1000u);
  EXPECT_EQ(counts.counts(c).loads, 1000u);
  EXPECT_EQ(counts.counts(c).stores, 1000u);
}

TEST(VmKernel, ModelSpecMirrorsTableII) {
  VectorMultiply vm({.iterations = 1000});
  const ModelSpec spec = vm.model_spec();
  EXPECT_EQ(spec.name, "VM");
  ASSERT_EQ(spec.structures.size(), 3u);
  for (const auto& ds : spec.structures) {
    ASSERT_EQ(ds.patterns.size(), 1u);
    EXPECT_TRUE(std::holds_alternative<StreamingSpec>(ds.patterns[0]));
  }
  // A's stride (4) gives it the largest footprint.
  EXPECT_GT(spec.structures[0].size_bytes, spec.structures[1].size_bytes);
}

TEST(VmKernel, ModelMatchesSimulatorExactlyForStreams) {
  VectorMultiply vm({.iterations = 1000});
  CacheSimulator sim(caches::small_verification());
  vm.reset();
  vm.run(sim);
  const ModelSpec spec = vm.model_spec();
  for (const auto& ds : spec.structures) {
    const auto id = *vm.registry().find(ds.name);
    const auto* stream = std::get_if<StreamingSpec>(&ds.patterns[0]);
    ASSERT_NE(stream, nullptr);
    EXPECT_DOUBLE_EQ(
        try_estimate_streaming(*stream, sim.config()).value_or_throw(),
        static_cast<double>(sim.stats(id).misses))
        << ds.name;
  }
}

TEST(VmKernel, RejectsDegenerateConfigs) {
  EXPECT_THROW(VectorMultiply({.iterations = 0}), InvalidArgumentError);
  EXPECT_THROW(VectorMultiply({.iterations = 10, .stride_a = 0}),
               InvalidArgumentError);
  EXPECT_THROW(VectorMultiply({.iterations = 10, .repeats = 0}),
               InvalidArgumentError);
}

}  // namespace
}  // namespace dvf::kernels
