// Tests for the parallel-execution layer (src/parallel) and its consumers:
// the thread pool, the deterministic parallel_for helper and the
// multi-threaded injection campaign, plus the serial contract of the suite
// evaluator. All suites here are named Parallel* so the ThreadSanitizer
// pass (scripts/run_tests.sh) can select them with one gtest filter.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dvf/common/rng.hpp"
#include "dvf/dvf/calculator.hpp"
#include "dvf/kernels/fft.hpp"
#include "dvf/kernels/injection_campaign.hpp"
#include "dvf/kernels/suite.hpp"
#include "dvf/kernels/vm.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/machine/machine.hpp"
#include "dvf/parallel/parallel_for.hpp"
#include "dvf/parallel/thread_pool.hpp"

namespace dvf {
namespace {

TEST(ParallelThreadPool, RunsEveryIndexExactlyOnce) {
  parallel::ThreadPool pool(4);
  EXPECT_EQ(pool.concurrency(), 4u);
  std::vector<std::atomic<int>> hits(1000);
  parallel::parallel_for(
      pool, hits.size(), [&](std::uint64_t i) { hits[i].fetch_add(1); },
      /*grain=*/7);
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelThreadPool, SingleSlotPoolRunsInOrderOnTheCaller) {
  parallel::ThreadPool pool(1);
  EXPECT_EQ(pool.concurrency(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::uint64_t> order;
  parallel::parallel_for(pool, 100, [&](std::uint64_t i, unsigned slot) {
    EXPECT_EQ(slot, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 100u);
  for (std::uint64_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(ParallelThreadPool, SlotsStayWithinConcurrency) {
  parallel::ThreadPool pool(3);
  std::atomic<bool> bad{false};
  parallel::parallel_for(pool, 500, [&](std::uint64_t, unsigned slot) {
    if (slot >= pool.concurrency()) {
      bad = true;
    }
  });
  EXPECT_FALSE(bad.load());
}

TEST(ParallelThreadPool, PropagatesTheFirstException) {
  parallel::ThreadPool pool(4);
  EXPECT_THROW(
      parallel::parallel_for(pool, 1000,
                             [&](std::uint64_t i) {
                               if (i == 137) {
                                 throw std::runtime_error("boom");
                               }
                             }),
      std::runtime_error);
  // The pool survives an exception and runs the next job normally.
  std::atomic<int> ran{0};
  parallel::parallel_for(pool, 10, [&](std::uint64_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 10);
}

TEST(ParallelThreadPool, ZeroCountIsANoOp) {
  parallel::ThreadPool pool(2);
  parallel::parallel_for(pool, 0,
                         [](std::uint64_t) { FAIL() << "must not run"; });
}

TEST(ParallelThreadPool, DefaultThreadCountHonorsEnvVar) {
  ASSERT_EQ(setenv("DVF_THREADS", "3", 1), 0);
  EXPECT_EQ(parallel::default_thread_count(), 3u);
  ASSERT_EQ(setenv("DVF_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(parallel::default_thread_count(), 1u);
  ASSERT_EQ(unsetenv("DVF_THREADS"), 0);
  EXPECT_GE(parallel::default_thread_count(), 1u);
}

// --- Campaign determinism across thread counts -----------------------------

using kernels::CampaignConfig;
using kernels::KernelCase;
using kernels::StructureInjectionStats;

/// The documented serial reference: for every spec structure s (index in
/// the model spec) and trial t, draw trigger, offset and bit — in that
/// order — from stream_rng(seed, s, t).
std::vector<StructureInjectionStats> serial_reference(KernelCase& kernel,
                                                      const CampaignConfig&
                                                          config) {
  const ModelSpec spec = kernel.model_spec();
  const std::uint64_t total_refs = kernel.total_references();
  std::vector<StructureInjectionStats> results;
  for (std::uint64_t s = 0; s < spec.structures.size(); ++s) {
    const auto id = kernel.registry().find(spec.structures[s].name);
    if (!id.has_value()) {
      continue;
    }
    const std::uint64_t size = kernel.registry().info(*id).size_bytes;
    StructureInjectionStats stats;
    stats.structure = spec.structures[s].name;
    for (std::uint64_t t = 0; t < config.trials_per_structure; ++t) {
      Xoshiro256 rng = stream_rng(config.seed, s, t);
      const std::uint64_t trigger = 1 + rng.below(total_refs);
      const std::uint64_t offset = rng.below(size);
      const auto bit = static_cast<std::uint8_t>(rng.below(8));
      const auto outcome = kernel.run_injected(*id, trigger, offset, bit);
      ++stats.trials;
      stats.injected += outcome.injected ? 1 : 0;
      stats.corrupted += outcome.corrupted ? 1 : 0;
    }
    results.push_back(stats);
  }
  return results;
}

void expect_identical(const std::vector<StructureInjectionStats>& a,
                      const std::vector<StructureInjectionStats>& b,
                      const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].structure, b[i].structure) << label;
    EXPECT_EQ(a[i].trials, b[i].trials) << label << " " << a[i].structure;
    EXPECT_EQ(a[i].injected, b[i].injected) << label << " " << a[i].structure;
    EXPECT_EQ(a[i].corrupted, b[i].corrupted)
        << label << " " << a[i].structure;
  }
}

std::unique_ptr<KernelCase> make_small_vm() {
  return std::make_unique<kernels::KernelCaseAdapter<kernels::VectorMultiply>>(
      "VM", "dense", kernels::VectorMultiply::Config{.iterations = 150});
}

std::unique_ptr<KernelCase> make_small_fft() {
  return std::make_unique<kernels::KernelCaseAdapter<kernels::Fft1D>>(
      "FT", "spectral", kernels::Fft1D::Config{.n = 256});
}

TEST(ParallelCampaign, ByteIdenticalAcrossThreadCountsAndToSerialOrder) {
  const auto factories = {&make_small_vm, &make_small_fft};
  for (const auto& factory : factories) {
    for (const std::uint64_t seed : {std::uint64_t{7}, std::uint64_t{2014}}) {
      CampaignConfig config;
      config.trials_per_structure = 8;
      config.seed = seed;

      auto reference_kernel = factory();
      const auto reference = serial_reference(*reference_kernel, config);
      ASSERT_FALSE(reference.empty());

      for (const unsigned threads : {1u, 2u, 8u}) {
        config.threads = threads;
        auto kernel = factory();
        const auto stats = kernels::run_injection_campaign(*kernel, config);
        expect_identical(stats, reference,
                         kernel->name() + " seed=" + std::to_string(seed) +
                             " threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(ParallelCampaign, CloneReproducesTheKernel) {
  const auto original = make_small_vm();
  const auto copy = original->clone();
  EXPECT_EQ(copy->name(), original->name());
  EXPECT_EQ(copy->method_class(), original->method_class());
  EXPECT_EQ(copy->total_references(), original->total_references());
  EXPECT_DOUBLE_EQ(copy->clean_signature(), original->clean_signature());
  EXPECT_EQ(copy->registry().size(), original->registry().size());
}

// --- Suite evaluation ------------------------------------------------------

/// What the sleeping kernel's runs observed, shared by every instance.
struct RunProbe {
  std::mutex mutex;
  std::vector<int> order;                ///< Config::index, per run
  std::vector<std::thread::id> threads;  ///< running thread, per run
  int in_flight = 0;
  int max_in_flight = 0;
};

/// A kernel whose run sleeps a few milliseconds and records which thread
/// ran it and how many runs were in flight, so a test can tell a serial
/// suite evaluation from a concurrent one.
class SleepingKernel {
 public:
  using Element = double;

  struct Config {
    RunProbe* probe = nullptr;
    int index = 0;
  };

  explicit SleepingKernel(const Config& config) : config_(config), data_(8) {
    data_id_ = registry_.register_structure("data", data_.data(),
                                            data_.size_bytes(),
                                            sizeof(Element));
  }

  template <RecorderLike R>
  void run(R& rec) {
    RunProbe& probe = *config_.probe;
    {
      const std::lock_guard<std::mutex> lock(probe.mutex);
      probe.order.push_back(config_.index);
      probe.threads.push_back(std::this_thread::get_id());
      probe.max_in_flight = std::max(probe.max_in_flight, ++probe.in_flight);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    for (std::size_t i = 0; i < data_.size(); ++i) {
      kernels::load(rec, data_id_, data_, i);
    }
    const std::lock_guard<std::mutex> lock(probe.mutex);
    --probe.in_flight;
  }

  void reset() {}
  [[nodiscard]] double output_signature() const { return 0.0; }

  [[nodiscard]] ModelSpec model_spec() const {
    DataStructureSpec ds;
    ds.name = "data";
    ds.size_bytes = data_.size_bytes();
    StreamingSpec stream;
    stream.element_bytes = sizeof(Element);
    stream.element_count = data_.size();
    stream.stride_elements = 1;
    ds.patterns.emplace_back(stream);
    ModelSpec spec;
    spec.name = "SLEEP";
    spec.structures.push_back(std::move(ds));
    return spec;
  }

  [[nodiscard]] const DataStructureRegistry& registry() const noexcept {
    return registry_;
  }

 private:
  Config config_;
  AlignedBuffer<Element> data_;
  DataStructureRegistry registry_;
  DsId data_id_{};
};

TEST(ParallelSuite, EvaluateSuiteTimesKernelsSeriallyOnTheCaller) {
  RunProbe probe;
  std::vector<std::unique_ptr<KernelCase>> suite;
  for (int i = 0; i < 3; ++i) {
    suite.push_back(
        std::make_unique<kernels::KernelCaseAdapter<SleepingKernel>>(
            "S" + std::to_string(i), "test",
            SleepingKernel::Config{.probe = &probe, .index = i}));
  }
  const DvfCalculator calc(Machine::with_cache(caches::profiling_8mb()));
  const auto results = kernels::evaluate_suite(suite, calc);

  EXPECT_EQ(probe.max_in_flight, 1);
  EXPECT_EQ(probe.order, (std::vector<int>{0, 1, 2}));
  ASSERT_EQ(probe.threads.size(), 3u);
  for (const std::thread::id& id : probe.threads) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
  ASSERT_EQ(results.size(), 3u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].kernel, "S" + std::to_string(i));
    EXPECT_GE(results[i].exec_time_seconds, 0.005);
    EXPECT_GT(results[i].dvf.total, 0.0);
  }
}

TEST(ParallelSuite, EvaluateSuiteCoversEveryKernelInOrder) {
  std::vector<std::unique_ptr<KernelCase>> suite;
  suite.push_back(make_small_vm());
  suite.push_back(make_small_fft());
  const DvfCalculator calc(Machine::with_cache(caches::profiling_8mb()));
  const auto results = kernels::evaluate_suite(suite, calc);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].kernel, "VM");
  EXPECT_EQ(results[1].kernel, "FT");
  for (const auto& r : results) {
    EXPECT_GT(r.exec_time_seconds, 0.0);
    EXPECT_FALSE(r.dvf.structures.empty());
    EXPECT_GT(r.dvf.total, 0.0);
  }
}

}  // namespace
}  // namespace dvf
