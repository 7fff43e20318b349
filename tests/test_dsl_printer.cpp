// Tests for the DSL pretty-printer: round-trip stability and expression
// formatting.
#include "dvf/dsl/printer.hpp"

#include <gtest/gtest.h>

#include <string>

#include "dvf/dsl/analyzer.hpp"
#include "dvf/dsl/parser.hpp"

namespace dvf::dsl {
namespace {

std::string fmt_expr(const std::string& text) {
  const Program p = parse("param x = " + text + ";");
  return print(*p.params[0].value);
}

TEST(Printer, ExpressionsUseMinimalParens) {
  EXPECT_EQ(fmt_expr("1 + 2 * 3"), "1 + 2 * 3");
  EXPECT_EQ(fmt_expr("(1 + 2) * 3"), "(1 + 2) * 3");
  EXPECT_EQ(fmt_expr("1 - (2 - 3)"), "1 - (2 - 3)");
  EXPECT_EQ(fmt_expr("2 ^ 3 ^ 4"), "2 ^ 3 ^ 4");
  EXPECT_EQ(fmt_expr("(2 ^ 3) ^ 4"), "(2 ^ 3) ^ 4");
  EXPECT_EQ(fmt_expr("-x + 1"), "-x + 1");
  EXPECT_EQ(fmt_expr("-(x + 1)"), "-(x + 1)");
}

TEST(Printer, ExpressionValuePreservedThroughRoundTrip) {
  const auto value_of = [](const std::string& expr) {
    return compile("param n = 7; param x = " + expr + ";").params.at("x");
  };
  for (const char* text :
       {"1 + 2 * n - 4 / 2", "n ^ 2 % 5", "-(n - 2) * (n + 2)",
        "((n))", "2 ^ -1 + n"}) {
    const Program original = parse(std::string("param x = ") + text + ";");
    const std::string printed = print(*original.params[0].value);
    EXPECT_DOUBLE_EQ(value_of(text), value_of(printed))
        << text << " -> " << printed;
  }
}

TEST(Printer, ProgramRoundTripIsSemanticallyStable) {
  const std::string source = R"dsl(
    param n = 32;
    machine "m" {
      cache { associativity 4; sets 64; line 32; }
      memory { ecc "secded"; }
    }
    model "MG" {
      time 0.12;
      order "r(Ap)p";
      data R { elements n * n; element_size 16; }
      pattern R template { start (2 * n + 1, 3 * n + 1); step 1; count n; }
      data r { elements n; element_size 8; }
      pattern r reuse { rounds 3; other_bytes 8 * n * n; }
    }
  )dsl";

  const std::string printed = print(parse(source));
  // The printed form compiles to the same machines/models.
  const CompiledProgram original = compile(source);
  const CompiledProgram reparsed = compile(printed);
  ASSERT_EQ(reparsed.models.size(), original.models.size());
  ASSERT_EQ(reparsed.machines.size(), original.machines.size());
  EXPECT_DOUBLE_EQ(reparsed.machine("m").memory.fit(),
                   original.machine("m").memory.fit());
  const ModelSpec& a = original.model("MG");
  const ModelSpec& b = reparsed.model("MG");
  ASSERT_EQ(a.structures.size(), b.structures.size());
  for (std::size_t i = 0; i < a.structures.size(); ++i) {
    EXPECT_EQ(a.structures[i].name, b.structures[i].name);
    EXPECT_EQ(a.structures[i].size_bytes, b.structures[i].size_bytes);
    EXPECT_EQ(a.structures[i].patterns.size(), b.structures[i].patterns.size());
  }
}

TEST(Printer, PrintingIsIdempotent) {
  const std::string source =
      "param a = 1; machine \"x\" { cache { associativity 2; sets 2; "
      "line 32; } memory { fit 10; } } model \"m\" { data D { elements a; } "
      "pattern D stream { stride 1; } }";
  const std::string once = print(parse(source));
  const std::string twice = print(parse(once));
  EXPECT_EQ(once, twice);
}

}  // namespace
}  // namespace dvf::dsl
