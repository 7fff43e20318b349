// Unit tests for DSL semantic analysis and lowering to ModelSpec/Machine.
#include "dvf/dsl/analyzer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <variant>
#include <vector>

#include "dvf/common/error.hpp"
#include "dvf/dsl/parser.hpp"

namespace dvf::dsl {
namespace {

std::vector<std::uint64_t> expanded(const TemplateSpec& t) {
  std::vector<std::uint64_t> out;
  t.for_each_index([&out](std::uint64_t idx) { out.push_back(idx); });
  return out;
}

TEST(Evaluate, ArithmeticAndParams) {
  const CompiledProgram c = compile(
      "param n = 10; param x = (n + 2) * 3 - n / 5 + 2 ^ 3 + 7 % 4;");
  EXPECT_DOUBLE_EQ(c.params.at("x"), 36.0 - 2.0 + 8.0 + 3.0);
}

TEST(Evaluate, UnknownIdentifierThrows) {
  EXPECT_THROW((void)compile("param x = y + 1;"), SemanticError);
}

TEST(Evaluate, DivisionByZeroThrows) {
  EXPECT_THROW((void)compile("param x = 1 / 0;"), SemanticError);
  EXPECT_THROW((void)compile("param x = 1 % 0;"), SemanticError);
}

TEST(Analyzer, ParamsChainInOrder) {
  const CompiledProgram c = compile("param a = 2; param b = a * a;");
  EXPECT_DOUBLE_EQ(c.params.at("b"), 4.0);
}

TEST(Analyzer, MachineLowering) {
  const CompiledProgram c = compile(R"(
    machine "m" {
      cache { associativity 4; sets 64; line 32; }
      memory { fit 1234; }
    })");
  const Machine& m = c.machine("m");
  EXPECT_EQ(m.llc.associativity(), 4u);
  EXPECT_EQ(m.llc.num_sets(), 64u);
  EXPECT_EQ(m.llc.line_bytes(), 32u);
  EXPECT_DOUBLE_EQ(m.memory.fit(), 1234.0);
  EXPECT_THROW((void)c.machine("nope"), SemanticError);
}

TEST(Analyzer, EccMachineUsesTableVII) {
  const CompiledProgram c = compile(R"(
    machine "m" {
      cache { associativity 2; sets 4; line 64; }
      memory { ecc "chipkill"; }
    })");
  EXPECT_DOUBLE_EQ(c.machine("m").memory.fit(), 0.02);
}

TEST(Analyzer, StreamLowering) {
  const CompiledProgram c = compile(R"(
    param n = 100;
    model "m" {
      time 0.5;
      data A { elements n; element_size 4; }
      pattern A stream { stride 2; repeat 3; }
    })");
  const ModelSpec& m = c.model("m");
  EXPECT_DOUBLE_EQ(*m.exec_time_seconds, 0.5);
  ASSERT_EQ(m.structures.size(), 1u);
  EXPECT_EQ(m.structures[0].size_bytes, 400u);
  ASSERT_EQ(m.structures[0].patterns.size(), 3u);
  const auto& s = std::get<StreamingSpec>(m.structures[0].patterns[0]);
  EXPECT_EQ(s.stride_elements, 2u);
  EXPECT_EQ(s.element_count, 100u);
  EXPECT_EQ(s.element_bytes, 4u);
}

TEST(Analyzer, SizeInsteadOfElements) {
  const CompiledProgram c = compile(R"(
    model "m" {
      data A { size 4KB; element_size 8; }
      pattern A stream { }
    })");
  EXPECT_EQ(c.model("m").structures[0].size_bytes, 4096u);
}

TEST(Analyzer, RandomLowering) {
  const CompiledProgram c = compile(R"(
    model "m" {
      data T { elements 1000; element_size 32; }
      pattern T random { visits 200; iterations 1000; ratio 0.5; }
    })");
  const auto& r = std::get<RandomSpec>(c.model("m").structures[0].patterns[0]);
  EXPECT_DOUBLE_EQ(r.visits_per_iteration, 200.0);
  EXPECT_EQ(r.iterations, 1000u);
  EXPECT_DOUBLE_EQ(r.cache_ratio, 0.5);
}

TEST(Analyzer, TemplateLoweringWithCount) {
  const CompiledProgram c = compile(R"(
    model "m" {
      data R { elements 1000; element_size 16; }
      pattern R template { start (5, 7); step 2; count 3; repeat 4; }
    })");
  const auto& t = std::get<TemplateSpec>(c.model("m").structures[0].patterns[0]);
  EXPECT_EQ(t.starts, (std::vector<std::uint64_t>{5, 7}));
  EXPECT_EQ(t.step, 2);
  EXPECT_EQ(t.count, 3u);
  EXPECT_EQ(expanded(t), (std::vector<std::uint64_t>{5, 7, 7, 9, 9, 11}));
  EXPECT_EQ(t.repetitions, 4u);
}

TEST(Analyzer, TemplateLoweringWithEndTuple) {
  const CompiledProgram c = compile(R"(
    model "m" {
      data R { elements 1000; element_size 16; }
      pattern R template { start (10); step 5; end (25); }
    })");
  const auto& t = std::get<TemplateSpec>(c.model("m").structures[0].patterns[0]);
  EXPECT_EQ(t.count, 4u);
  EXPECT_EQ(expanded(t), (std::vector<std::uint64_t>{10, 15, 20, 25}));
}

TEST(Analyzer, ReuseExplicitAndOrderDerived) {
  const CompiledProgram c = compile(R"dsl(
    model "m" {
      order "r(Ap)p(xp)(Ap)r(rp)";
      data A { elements 100; element_size 8; }
      data p { elements 10; element_size 8; }
      data r { elements 10; element_size 8; }
      data x { elements 10; element_size 8; }
      pattern p reuse { }
      pattern x reuse { rounds 7; other_bytes 4096; }
    })dsl");
  const ModelSpec& m = c.model("m");
  const auto& p = std::get<ReuseSpec>(m.find("p")->patterns[0]);
  // p appears in (Ap), p, (xp), (Ap), (rp): 5 appearances -> 4 rounds;
  // interferers sharing a phase: A, x, r.
  EXPECT_EQ(p.reuse_rounds, 4u);
  EXPECT_EQ(p.other_bytes, 800u + 80u + 80u);
  const auto& x = std::get<ReuseSpec>(m.find("x")->patterns[0]);
  EXPECT_EQ(x.reuse_rounds, 7u);
  EXPECT_EQ(x.other_bytes, 4096u);
}

TEST(Analyzer, ReuseScenarioAndOccupancyOptions) {
  const CompiledProgram c = compile(R"(
    model "m" {
      data A { elements 100; element_size 8; }
      pattern A reuse { rounds 2; other_bytes 64; scenario 2; occupancy 1; }
    })");
  const auto& u = std::get<ReuseSpec>(c.model("m").structures[0].patterns[0]);
  EXPECT_EQ(u.scenario, ReuseScenario::kBlend);
  EXPECT_EQ(u.occupancy, ReuseOccupancy::kContiguous);
  EXPECT_THROW(compile(R"(
    model "m" {
      data A { elements 100; element_size 8; }
      pattern A reuse { rounds 2; other_bytes 64; occupancy 3; }
    })"),
               SemanticError);
}

TEST(Analyzer, RejectsSemanticMistakes) {
  EXPECT_THROW(compile("param a = 1; param a = 2;"), SemanticError);
  EXPECT_THROW(compile(R"(model "m" { data A { elements 1; }
                           data A { elements 1; } })"),
               SemanticError);
  EXPECT_THROW(compile(R"(model "m" { pattern A stream { } })"),
               SemanticError);
  EXPECT_THROW(compile(R"(model "m" { data A { elements 4; }
                           pattern A wiggle { } })"),
               SemanticError);
  EXPECT_THROW(compile(R"(model "m" { data A { elements 4; }
                           pattern A stream { bogus 3; } })"),
               SemanticError);
  EXPECT_THROW(compile(R"(model "m" { data A { element_size 8; } })"),
               SemanticError);
  // reuse without rounds and without an order mentioning the structure.
  EXPECT_THROW(compile(R"(model "m" { data A { elements 4; }
                           pattern A reuse { } })"),
               SemanticError);
  // non-integer count
  EXPECT_THROW(compile(R"(model "m" { data A { elements 2.5; } })"),
               SemanticError);
}

TEST(Analyzer, RejectsFitAndEccTogether) {
  EXPECT_THROW(compile(R"(
    machine "m" {
      cache { associativity 2; sets 2; line 32; }
      memory { fit 100; ecc "secded"; }
    })"),
               SemanticError);
}

}  // namespace
}  // namespace dvf::dsl
