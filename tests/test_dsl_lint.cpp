// Golden-file tests for the diagnostics engine and the `dvfc lint` rule
// pass. Every file under tests/lint_cases/ carries `// expect:` comments
// pinning the exact code, severity and span of each diagnostic it must
// produce — no more, no less. The repository's models/*.aspen must stay
// lint-clean (notes are allowed; the paper's own MG model trips DVF-N202).
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dvf/dsl/analyzer.hpp"
#include "dvf/dsl/diagnostics.hpp"
#include "dvf/dsl/lint.hpp"

namespace dvf::dsl {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

/// "code severity line:column:length" — the golden shape of one diagnostic.
std::string fingerprint(const std::string& code, const std::string& severity,
                        int line, int column, int length) {
  std::ostringstream out;
  out << code << ' ' << severity << ' ' << line << ':' << column << ':'
      << length;
  return out.str();
}

std::vector<std::string> expected_fingerprints(const std::string& source) {
  std::vector<std::string> expects;
  std::istringstream lines(source);
  std::string line;
  const std::string marker = "// expect: ";
  while (std::getline(lines, line)) {
    const std::size_t at = line.find(marker);
    if (at == std::string::npos) {
      continue;
    }
    std::istringstream fields(line.substr(at + marker.size()));
    std::string code, severity, span;
    fields >> code >> severity >> span;
    int l = 0, c = 0, len = 0;
    char colon = 0;
    std::istringstream span_in(span);
    span_in >> l >> colon >> c >> colon >> len;
    expects.push_back(fingerprint(code, severity, l, c, len));
  }
  std::sort(expects.begin(), expects.end());
  return expects;
}

std::vector<std::string> actual_fingerprints(const LintResult& result) {
  std::vector<std::string> actual;
  for (const Diagnostic& d : result.diagnostics) {
    actual.push_back(fingerprint(d.code, to_string(d.severity), d.span.line,
                                 d.span.column, d.span.length));
  }
  std::sort(actual.begin(), actual.end());
  return actual;
}

TEST(LintGolden, EveryCaseMatchesItsExpectComments) {
  const fs::path dir = DVF_LINT_CASES_DIR;
  ASSERT_TRUE(fs::is_directory(dir)) << dir;
  std::size_t cases = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".aspen") {
      continue;
    }
    ++cases;
    const std::string source = read_file(entry.path());
    const std::vector<std::string> expected = expected_fingerprints(source);
    EXPECT_FALSE(expected.empty())
        << entry.path() << " has no // expect: comments";
    const LintResult result = lint(source);
    EXPECT_EQ(actual_fingerprints(result), expected)
        << entry.path().filename();
  }
  // One known-bad file per diagnostic code, plus the multi-defect case.
  EXPECT_GE(cases, 30u);
}

TEST(LintGolden, BundledModelsAreLintClean) {
  const fs::path dir = DVF_MODELS_DIR;
  ASSERT_TRUE(fs::is_directory(dir)) << dir;
  std::size_t models = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".aspen") {
      continue;
    }
    ++models;
    const LintResult result = lint_file(entry.path().string());
    EXPECT_EQ(result.errors, 0u) << entry.path();
    EXPECT_EQ(result.warnings, 0u) << entry.path();
  }
  EXPECT_GE(models, 4u);  // vm, cg, mg, nbody
}

// The acceptance criterion from the diagnostics-engine design: one
// invocation over a file with several seeded defects reports all of them,
// with stable codes and correct spans, in both renderings.
TEST(LintGolden, MultiDefectFileReportsEverythingInOnePass) {
  const fs::path path = fs::path(DVF_LINT_CASES_DIR) / "multi_defects.aspen";
  const LintResult result = lint_file(path.string());
  EXPECT_GE(result.diagnostics.size(), 3u);
  EXPECT_GE(result.errors, 2u);
  EXPECT_GE(result.warnings, 2u);
  EXPECT_FALSE(result.clean());

  const std::string human =
      render_human(result.diagnostics, result.source, "multi_defects.aspen");
  const std::string json = render_json(result.diagnostics, "multi_defects.aspen");
  for (const char* code : {"DVF-E012", "DVF-E014", "DVF-W101", "DVF-W102"}) {
    EXPECT_NE(human.find(code), std::string::npos) << code;
    EXPECT_NE(json.find(code), std::string::npos) << code;
  }
  // Spans survive into both renderings (visits 500 sits at 9:5).
  EXPECT_NE(human.find("multi_defects.aspen:9:5: error[DVF-E012]"),
            std::string::npos)
      << human;
  EXPECT_NE(json.find("\"line\":9,\"column\":5,\"length\":6,"
                      "\"severity\":\"error\",\"code\":\"DVF-E012\""),
            std::string::npos)
      << json;
}

TEST(LintGolden, LintOnlyErrorsDoNotBlockCompile) {
  // E012/E013-bounds/E014-ratio live in the lint rule pass; the throwing
  // compile() keeps exactly its historical accept set.
  const fs::path path =
      fs::path(DVF_LINT_CASES_DIR) / "e012_random_infeasible.aspen";
  EXPECT_NO_THROW((void)compile_file(path.string()));
  const LintResult result = lint_file(path.string());
  EXPECT_EQ(result.errors, 1u);
}

TEST(LintRuleCatalog, NamesAndCodesAreWellFormed) {
  const auto catalog = lint_rule_catalog();
  ASSERT_FALSE(catalog.empty());
  std::vector<std::string> names;
  for (const LintRuleInfo& rule : catalog) {
    names.emplace_back(rule.name);
    EXPECT_NE(std::string_view(rule.codes).find("DVF-"), std::string::npos)
        << rule.name;
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end())
      << "duplicate rule name";
}

TEST(DiagnosticEngine, CountsAndSortsBySourcePosition) {
  DiagnosticEngine diags;
  diags.warning(codes::kUnusedParam, {5, 2, 3}, "later");
  diags.note(codes::kReuseNoInterference, {1, 9, 1}, "note after error");
  diags.error(codes::kSyntax, {1, 9, 1}, "error first on ties");
  diags.error(codes::kDivisionByZero, {1, 2, 1}, "earliest column");
  EXPECT_EQ(diags.error_count(), 2u);
  EXPECT_EQ(diags.warning_count(), 1u);
  EXPECT_TRUE(diags.has_errors());
  ASSERT_NE(diags.first_error(), nullptr);
  EXPECT_EQ(diags.first_error()->message, "error first on ties");

  const std::vector<Diagnostic> sorted = diags.sorted();
  ASSERT_EQ(sorted.size(), 4u);
  EXPECT_EQ(sorted[0].message, "earliest column");
  EXPECT_EQ(sorted[1].message, "error first on ties");
  EXPECT_EQ(sorted[2].message, "note after error");
  EXPECT_EQ(sorted[3].message, "later");
}

TEST(DiagnosticRendering, CaretPreservesTabsForAlignment) {
  DiagnosticEngine diags;
  // "\tparam n = x;" — x at column 12 (the tab counts as one column).
  diags.error(codes::kUnknownIdentifier, {1, 12, 1}, "unknown parameter 'x'");
  const std::string out =
      render_human(diags.diagnostics(), "\tparam n = x;", "t.aspen");
  EXPECT_NE(out.find("t.aspen:1:12: error[DVF-E002]"), std::string::npos)
      << out;
  // The pad before the caret copies the source tab so the caret lands under
  // 'x' however wide the terminal renders tabs.
  EXPECT_NE(out.find("      | \t          ^"), std::string::npos) << out;
}

TEST(DiagnosticRendering, UnderlineClampsToLineEnd) {
  DiagnosticEngine diags;
  diags.error(codes::kSyntax, {1, 7, 50}, "span longer than the line");
  const std::string out = render_human(diags.diagnostics(), "param x", "f");
  // 50-character underline clamps to the single character left on the line.
  EXPECT_NE(out.find("      |       ^\n"), std::string::npos) << out;
}

TEST(DiagnosticRendering, JsonEscapesControlAndQuoteCharacters) {
  DiagnosticEngine diags;
  diags.error(codes::kSyntax, {2, 3, 4}, "expected '\"'", "quote \"it\"");
  const std::string json = render_json(diags.diagnostics(), "a\"b.aspen");
  EXPECT_NE(json.find("\"file\":\"a\\\"b.aspen\""), std::string::npos);
  EXPECT_NE(json.find("\"message\":\"expected '\\\"'\""), std::string::npos);
  EXPECT_NE(json.find("\"hint\":\"quote \\\"it\\\"\""), std::string::npos);
}

TEST(DiagnosticRendering, EmptyDiagnosticsRenderAsEmptyArray) {
  EXPECT_EQ(render_json({}, "f.aspen"), "[]\n");
  EXPECT_EQ(render_human({}, "source", "f.aspen"), "");
}

TEST(DiagnosticRendering, WholeProgramFindingsOmitExcerpt) {
  DiagnosticEngine diags;
  diags.warning(codes::kNoMachine, {0, 0, 1}, "no machine anywhere");
  const std::string out = render_human(diags.diagnostics(), "x", "f.aspen");
  EXPECT_EQ(out, "f.aspen: warning[DVF-W103]: no machine anywhere\n");
}

}  // namespace
}  // namespace dvf::dsl
