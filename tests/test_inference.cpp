// Tests for pattern inference (trace -> model).
#include "dvf/dvf/inference.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <variant>

#include "dvf/analysis/ir.hpp"
#include "dvf/cachesim/cache_simulator.hpp"
#include "dvf/common/math.hpp"
#include "dvf/common/rng.hpp"
#include "dvf/kernels/fft.hpp"
#include "dvf/kernels/suite.hpp"
#include "dvf/kernels/vm.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/patterns/estimate.hpp"
#include "dvf/trace/trace_io.hpp"
#include "dvf/trace/trace_reader.hpp"

namespace dvf {
namespace {

TEST(InferPatterns, DetectsUnitStrideStreaming) {
  std::vector<std::uint64_t> idx;
  for (std::uint64_t i = 0; i < 100; ++i) {
    idx.push_back(i);
  }
  const auto patterns = infer_patterns(idx, 8, 100);
  ASSERT_EQ(patterns.size(), 1u);
  const auto* s = std::get_if<StreamingSpec>(&patterns[0]);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->stride_elements, 1u);
  EXPECT_EQ(s->element_count, 100u);
}

TEST(InferPatterns, DetectsStridedStreamingWithMultipleSweeps) {
  std::vector<std::uint64_t> idx;
  for (int sweep = 0; sweep < 3; ++sweep) {
    for (std::uint64_t i = 0; i < 50; ++i) {
      idx.push_back(i * 4);
    }
  }
  const auto patterns = infer_patterns(idx, 8, 200);
  ASSERT_EQ(patterns.size(), 3u);
  for (const auto& p : patterns) {
    const auto* s = std::get_if<StreamingSpec>(&p);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->stride_elements, 4u);
  }
}

TEST(InferPatterns, DetectsPeriodicTemplates) {
  const std::vector<std::uint64_t> base = {5, 1, 9, 1, 7};
  std::vector<std::uint64_t> idx;
  for (int rep = 0; rep < 6; ++rep) {
    idx.insert(idx.end(), base.begin(), base.end());
  }
  const auto patterns = infer_patterns(idx, 8, 10);
  ASSERT_EQ(patterns.size(), 1u);
  const auto* t = std::get_if<TemplateSpec>(&patterns[0]);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->element_indices, base);
  EXPECT_EQ(t->repetitions, 6u);
}

TEST(InferPatterns, IrregularStreamBecomesLiteralTemplate) {
  Xoshiro256 rng(3);
  std::vector<std::uint64_t> idx;
  for (int i = 0; i < 1000; ++i) {
    idx.push_back(rng.below(64));
  }
  const auto patterns = infer_patterns(idx, 8, 64);
  ASSERT_EQ(patterns.size(), 1u);
  const auto* t = std::get_if<TemplateSpec>(&patterns[0]);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->element_indices.size() * t->repetitions, 1000u);
}

TEST(InferPatterns, OverBudgetStreamBecomesIrmRandom) {
  Xoshiro256 rng(4);
  std::vector<std::uint64_t> idx;
  for (int i = 0; i < 2000; ++i) {
    idx.push_back(rng.below(128));
  }
  InferenceOptions options;
  options.literal_template_limit = 100;  // force the fallback
  const auto patterns = infer_patterns(idx, 8, 128, options);
  ASSERT_EQ(patterns.size(), 1u);
  const auto* r = std::get_if<RandomSpec>(&patterns[0]);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->element_count, 128u);
  EXPECT_FALSE(r->sorted_visit_fractions.empty());
}

TEST(InferPatterns, EmptyStreamYieldsNothing) {
  EXPECT_TRUE(infer_patterns({}, 8, 10).empty());
}

TEST(InferModel, RecoversVmAsStreaming) {
  kernels::KernelCaseAdapter<kernels::VectorMultiply> vm(
      "VM", "dense", kernels::VectorMultiply::Config{.iterations = 500});
  TraceBuffer buffer;
  vm.run_buffered(buffer);

  TraceFile trace;
  for (const auto& info : vm.registry()) {
    trace.structures.push_back(info);
  }
  trace.records = buffer.records();

  const ModelSpec inferred = infer_model(trace);
  ASSERT_EQ(inferred.structures.size(), 3u);
  const auto* a = inferred.find("A");
  ASSERT_NE(a, nullptr);
  const auto* s = std::get_if<StreamingSpec>(&a->patterns.front());
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->stride_elements, 4u);
}

TEST(InferModel, InferredFftModelPredictsSimulatedMissesExactly) {
  // The literal-template path makes the inferred model's stack-distance
  // count near-exact for a fully-associative-friendly stream.
  kernels::KernelCaseAdapter<kernels::Fft1D> fft(
      "FT", "spectral", kernels::Fft1D::Config{.n = 512});
  TraceBuffer buffer;
  fft.run_buffered(buffer);
  TraceFile trace;
  for (const auto& info : fft.registry()) {
    trace.structures.push_back(info);
  }
  trace.records = buffer.records();

  CacheSimulator sim(caches::small_verification());
  fft.run_traced(sim);

  const ModelSpec inferred = infer_model(trace);
  const auto* x = inferred.find("X");
  ASSERT_NE(x, nullptr);
  const double estimate = try_estimate_accesses(
      std::span<const PatternSpec>(x->patterns), sim.config()).value_or_throw();
  const auto id = *fft.registry().find("X");
  EXPECT_LE(math::relative_error(
                estimate, static_cast<double>(sim.stats(id).misses)),
            0.05);
}

// --- streaming infer_model(TraceReader&) -----------------------------------

std::vector<DataStructureInfo> streaming_structures() {
  return {
      {"A", 0x10000, std::uint64_t{8} * 100000, 8},
      {"B", 0x800000, std::uint64_t{16} * 100000, 16},
  };
}

std::string serialize_trace(const std::vector<DataStructureInfo>& structures,
                            const std::vector<MemoryRecord>& records) {
  std::stringstream stream;
  write_trace(stream, std::span<const DataStructureInfo>(structures),
              std::span<const MemoryRecord>(records));
  return stream.str();
}

void expect_models_equal(const ModelSpec& streamed,
                         const ModelSpec& materialized) {
  ASSERT_EQ(streamed.structures.size(), materialized.structures.size());
  for (std::size_t i = 0; i < streamed.structures.size(); ++i) {
    const DataStructureSpec& a = streamed.structures[i];
    const DataStructureSpec& b = materialized.structures[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.size_bytes, b.size_bytes);
    ASSERT_EQ(a.patterns.size(), b.patterns.size()) << a.name;
    for (std::size_t p = 0; p < a.patterns.size(); ++p) {
      EXPECT_TRUE(analysis::spec_equal(a.patterns[p], b.patterns[p]))
          << a.name << " phase " << p;
    }
  }
}

TEST(InferModelStreaming, EmptyTraceMatchesMaterializedPath) {
  // Structures that were never referenced are dropped by inference (they
  // carry no access evidence); an empty trace therefore yields an empty
  // model on both paths — but the reader must still have consumed the
  // structure table cleanly.
  const auto structures = streaming_structures();
  std::stringstream stream(serialize_trace(structures, {}));
  TraceReader reader(stream);
  ASSERT_EQ(reader.structures().size(), 2u);
  EXPECT_EQ(reader.structures()[0].name, "A");
  const ModelSpec streamed = infer_model(reader);
  EXPECT_TRUE(reader.done());
  const ModelSpec materialized = infer_model(
      std::span<const DataStructureInfo>(structures),
      std::span<const MemoryRecord>({}));
  expect_models_equal(streamed, materialized);
  EXPECT_TRUE(streamed.structures.empty());
}

TEST(InferModelStreaming, ExactlyOneChunkMatchesMaterializedPath) {
  // 1000 records: far below the 65536-record writer chunk, so the streaming
  // reader sees exactly one chunk.
  const auto structures = streaming_structures();
  std::vector<MemoryRecord> records;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    records.push_back({structures[0].base_address + i * 8, 8, 0, false});
  }
  std::stringstream stream(serialize_trace(structures, records));
  TraceReader reader(stream);
  const ModelSpec streamed = infer_model(reader);
  const ModelSpec materialized = infer_model(
      std::span<const DataStructureInfo>(structures),
      std::span<const MemoryRecord>(records));
  expect_models_equal(streamed, materialized);

  const auto* a = streamed.find("A");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->patterns.size(), 1u);
  const auto* s = std::get_if<StreamingSpec>(&a->patterns.front());
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->stride_elements, 1u);
}

TEST(InferModelStreaming, ChunkBoundaryStraddlingSequencesMatchMaterialized) {
  // 70000 records across two structures. The second structure's periodic
  // reference string begins before the 65536-record chunk boundary and ends
  // after it, so its detection must survive per-chunk bucketing.
  const auto structures = streaming_structures();
  std::vector<MemoryRecord> records;
  for (std::uint64_t i = 0; i < 40000; ++i) {
    records.push_back({structures[0].base_address + i * 8, 8, 0, false});
  }
  const std::uint64_t base_string[] = {5, 1, 9, 1, 7};
  for (int rep = 0; rep < 6000; ++rep) {
    for (const std::uint64_t idx : base_string) {
      records.push_back({structures[1].base_address + idx * 16, 16, 1, true});
    }
  }
  ASSERT_EQ(records.size(), 70000u);

  std::stringstream stream(serialize_trace(structures, records));
  TraceReader reader(stream);
  const ModelSpec streamed = infer_model(reader);
  EXPECT_TRUE(reader.done());
  const ModelSpec materialized = infer_model(
      std::span<const DataStructureInfo>(structures),
      std::span<const MemoryRecord>(records));
  expect_models_equal(streamed, materialized);

  const auto* b = streamed.find("B");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->patterns.size(), 1u);
  const auto* t = std::get_if<TemplateSpec>(&b->patterns.front());
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->repetitions, 6000u);
}

}  // namespace
}  // namespace dvf
