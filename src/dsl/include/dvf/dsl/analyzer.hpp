// Semantic analysis and lowering: AST → machines + typed ModelSpecs.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dvf/dsl/ast.hpp"
#include "dvf/dsl/diagnostics.hpp"
#include "dvf/dvf/model_spec.hpp"
#include "dvf/machine/machine.hpp"

namespace dvf::dsl {

/// Maps one pattern declaration back to the spec phases it lowered to: lint's
/// pattern rules read their values through it, and they and `dvfc analyze`
/// point diagnostics at the declaration's source span. `phase_count` can be
/// 0 (e.g. a stream with `repeat 0` emits no phases) or > 1 (template
/// expansion).
struct PatternProvenance {
  std::string model;      ///< lowered ModelSpec name
  std::string structure;  ///< target DataStructureSpec name
  int line = 0;           ///< pattern keyword location
  int column = 0;
  std::size_t first_phase = 0;  ///< index into the structure's patterns
  std::size_t phase_count = 0;
};

/// The result of compiling a DSL program.
struct CompiledProgram {
  std::map<std::string, double> params;
  std::vector<Machine> machines;
  std::vector<ModelSpec> models;
  /// One entry per pattern declaration of each fully-lowered model, in
  /// declaration order. Models with lowering errors contribute none.
  std::vector<PatternProvenance> provenance;

  /// Named lookups; throw SemanticError when absent.
  [[nodiscard]] const Machine& machine(std::string_view name) const;
  [[nodiscard]] const ModelSpec& model(std::string_view name) const;
};

/// Evaluates an expression against a parameter environment. Exposed for the
/// expression-evaluator tests. Throws SemanticError on unknown identifiers
/// or division by zero.
[[nodiscard]] double evaluate(const Expr& expr,
                              const std::map<std::string, double>& env);

/// Multi-error analysis: reports every problem into `diags` and returns the
/// declarations that lowered cleanly (a declaration with an error-severity
/// diagnostic is skipped, the rest of the program still lowers). Never
/// throws on model mistakes.
[[nodiscard]] CompiledProgram analyze(const Program& program,
                                      DiagnosticEngine& diags);

/// Throwing wrapper over the diagnostic pass: raises SemanticError (with
/// the source location) on the first error-severity diagnostic. Kept for
/// the many callers that want fail-fast validation (dvfc check, tests).
[[nodiscard]] CompiledProgram analyze(const Program& program);

/// Convenience: parse + analyze.
[[nodiscard]] CompiledProgram compile(std::string_view source);

/// Reads and compiles a model file. Throws Error when unreadable.
[[nodiscard]] CompiledProgram compile_file(const std::string& path);

/// The multi-error front end shared by lint() and analyze_models().
struct FrontEnd {
  std::optional<Program> ast;  ///< nullopt when the source did not parse
  CompiledProgram program;     ///< the cleanly lowered declarations
};

/// Parses `source` and lowers it with analyze(program, diags). A parse error
/// becomes one diagnostic, without the "parse error at L:C: " prefix its
/// message carries (the span holds the location), and nothing is lowered.
[[nodiscard]] FrontEnd parse_and_analyze(std::string_view source,
                                         DiagnosticEngine& diags);

/// The text of a model file. Throws Error("cannot open model file: PATH")
/// when unreadable.
[[nodiscard]] std::string read_model_file(const std::string& path);

}  // namespace dvf::dsl
