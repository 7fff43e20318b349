// `dvfc lint`: the model-sanity rule pass over DVF DSL programs.
//
// Linting runs the whole front end in multi-error mode (lexer/parser
// diagnostics, then the collecting analyzer) and layers a registry of
// semantic rules grounded in the paper's math on top: streaming
// stride/element/cache-line consistency (Eqs. 3-4), random-pattern
// feasibility (Eqs. 5-7 need k <= N), template indices versus declared
// bounds and reuse distance versus cache capacity, reuse degeneracies
// (Eqs. 8-15), unit sanity for FIT/size/time, and hygiene (unused
// declarations, zero-work patterns). A program can compile yet still carry
// warnings — lint is the stricter tool.
//
// The model and pattern rules read every value from the lowered program
// (the typed specs `analyze` produced); the AST supplies only source spans
// and whether a key was given. A model with a lowering error therefore
// reports its front-end errors and the program hygiene rules (W101, W103,
// W111) only.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "dvf/dsl/analyzer.hpp"
#include "dvf/dsl/diagnostics.hpp"

namespace dvf::dsl {

/// One registered rule, for documentation and tooling (`docs/dsl.md` lists
/// the full diagnostic catalog).
struct LintRuleInfo {
  const char* name;   ///< kebab-case rule id, e.g. "random-feasibility"
  const char* codes;  ///< comma-separated diagnostic codes it can emit
};

/// The registry of semantic model-sanity rules, in execution order.
[[nodiscard]] std::span<const LintRuleInfo> lint_rule_catalog();

/// Everything one lint invocation produced.
struct LintResult {
  std::string source;                   ///< the program text (for rendering)
  std::vector<Diagnostic> diagnostics;  ///< sorted by source position
  CompiledProgram program;              ///< the cleanly lowered declarations
  std::size_t errors = 0;
  std::size_t warnings = 0;

  /// No error-severity diagnostics (warnings/notes may remain).
  [[nodiscard]] bool clean() const noexcept { return errors == 0; }
};

/// Lints a program: collects front-end diagnostics and runs every rule in
/// the registry. Never throws on model mistakes (only on internal errors).
[[nodiscard]] LintResult lint(std::string_view source);

/// Reads and lints a model file. Throws dvf::Error when unreadable.
[[nodiscard]] LintResult lint_file(const std::string& path);

}  // namespace dvf::dsl
