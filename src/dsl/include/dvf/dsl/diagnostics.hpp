// Multi-error diagnostics for the DVF DSL front end.
//
// Instead of throwing on the first problem, the analyzer and the lint rule
// pass report every finding into a DiagnosticEngine. Each Diagnostic carries
// a stable code (DVF-Exxx / DVF-Wxxx / DVF-Nxxx), a severity, a source span
// (line/column/length from the token locations threaded through the AST), a
// message, and an optional fix-it hint. Renderers produce human-readable
// caret output and machine-readable JSON (one object per diagnostic) for CI.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dvf::dsl {

enum class Severity {
  kError,    ///< the program is rejected / its DVF would be meaningless
  kWarning,  ///< almost certainly a mistake, but lowering proceeds
  kNote,     ///< model-sanity observation worth a human look
};

[[nodiscard]] const char* to_string(Severity severity) noexcept;

/// Half-open source region: `length` characters starting at line:column
/// (both 1-based, tabs count as one column). line 0 = no location (e.g. a
/// whole-program finding).
struct SourceSpan {
  int line = 0;
  int column = 0;
  int length = 1;
};

/// One finding. `code` is stable across releases (documented in
/// docs/dsl.md's diagnostics catalog) so CI can match on it.
struct Diagnostic {
  std::string code;      ///< e.g. "DVF-E012"
  Severity severity = Severity::kError;
  SourceSpan span;
  std::string message;
  std::string hint;      ///< optional fix-it suggestion
};

/// Stable diagnostic codes. Exxx are errors, Wxxx warnings, Nxxx notes;
/// numbers never get reused. The catalog in docs/dsl.md explains each.
namespace codes {
inline constexpr const char* kSyntax = "DVF-E001";
inline constexpr const char* kUnknownIdentifier = "DVF-E002";
inline constexpr const char* kDivisionByZero = "DVF-E003";
inline constexpr const char* kDuplicateDeclaration = "DVF-E004";
inline constexpr const char* kDuplicateProperty = "DVF-E005";
inline constexpr const char* kUnknownProperty = "DVF-E006";
inline constexpr const char* kMissingProperty = "DVF-E007";
inline constexpr const char* kNotACount = "DVF-E008";
inline constexpr const char* kUndeclaredData = "DVF-E009";
inline constexpr const char* kUnknownPatternKind = "DVF-E010";
inline constexpr const char* kBadTuple = "DVF-E011";
inline constexpr const char* kRandomInfeasible = "DVF-E012";
inline constexpr const char* kTemplateOutOfBounds = "DVF-E013";
inline constexpr const char* kValueOutOfRange = "DVF-E014";
inline constexpr const char* kInconsistentSize = "DVF-E015";
inline constexpr const char* kConflictingMemorySpec = "DVF-E016";
inline constexpr const char* kNegativeQuantity = "DVF-E017";
inline constexpr const char* kNumberOverflow = "DVF-E018";
inline constexpr const char* kTiledGeometry = "DVF-E019";
inline constexpr const char* kUnusedParam = "DVF-W101";
inline constexpr const char* kDataNeverAccessed = "DVF-W102";
inline constexpr const char* kNoMachine = "DVF-W103";
inline constexpr const char* kStrideExceedsExtent = "DVF-W104";
inline constexpr const char* kStrideSkipsLines = "DVF-W105";
inline constexpr const char* kElementSpansLines = "DVF-W106";
inline constexpr const char* kZeroWorkPattern = "DVF-W107";
inline constexpr const char* kCacheShareBelowElement = "DVF-W108";
inline constexpr const char* kReuseOverflowsCache = "DVF-W109";
inline constexpr const char* kTriviallyZeroDvf = "DVF-W110";
inline constexpr const char* kEmptyModel = "DVF-W111";
inline constexpr const char* kTileExceedsFootprint = "DVF-W112";
inline constexpr const char* kTileNoReuse = "DVF-W113";
inline constexpr const char* kReuseNoInterference = "DVF-N201";
inline constexpr const char* kTemplateExceedsShare = "DVF-N202";
inline constexpr const char* kTileExceedsShare = "DVF-N203";
// A3xx: facts proved by the semantic analysis (dvfc analyze). Warnings and
// notes only — a model that parses and lowers always analyzes.
inline constexpr const char* kAnalysisDeadStructure = "DVF-A301";
inline constexpr const char* kAnalysisZeroWork = "DVF-A302";
inline constexpr const char* kAnalysisExceedsAllShares = "DVF-A303";
inline constexpr const char* kAnalysisRejectsEverywhere = "DVF-A304";
}  // namespace codes

/// Collects diagnostics across a front-end pass. Never throws; callers that
/// want throwing behavior raise on the first error after the pass finishes
/// (see dsl::analyze / dsl::compile).
class DiagnosticEngine {
 public:
  void report(Diagnostic diagnostic);
  void error(const char* code, SourceSpan span, std::string message,
             std::string hint = "");
  void warning(const char* code, SourceSpan span, std::string message,
               std::string hint = "");
  void note(const char* code, SourceSpan span, std::string message,
            std::string hint = "");

  [[nodiscard]] bool has_errors() const noexcept { return error_count_ != 0; }
  [[nodiscard]] std::size_t error_count() const noexcept {
    return error_count_;
  }
  [[nodiscard]] std::size_t warning_count() const noexcept {
    return warning_count_;
  }
  [[nodiscard]] bool empty() const noexcept { return diagnostics_.empty(); }

  /// In report order (the analyzer reports roughly top-to-bottom already).
  [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const noexcept {
    return diagnostics_;
  }
  /// First error-severity diagnostic, or nullptr.
  [[nodiscard]] const Diagnostic* first_error() const noexcept;
  /// Copy sorted by (line, column, severity) for stable presentation.
  [[nodiscard]] std::vector<Diagnostic> sorted() const;

 private:
  std::vector<Diagnostic> diagnostics_;
  std::size_t error_count_ = 0;
  std::size_t warning_count_ = 0;
};

/// Human-readable rendering with source excerpt and caret underline:
///
///   file.aspen:4:15: error[DVF-E012]: random pattern visits 500 ...
///       4 |   pattern T random { visits 500; iterations 10; }
///         |                      ^~~~~~
///     hint: Eqs. 5-7 need k <= N
///
/// `source` is the full program text (used for the excerpt; tabs are
/// preserved so the caret stays aligned); `filename` prefixes each line.
[[nodiscard]] std::string render_human(std::span<const Diagnostic> diagnostics,
                                       std::string_view source,
                                       std::string_view filename);

/// Machine-readable rendering: a JSON array, one object per diagnostic,
/// each on its own line:
///   {"file":"x.aspen","line":4,"column":15,"length":6,
///    "severity":"error","code":"DVF-E012","message":"...","hint":"..."}
[[nodiscard]] std::string render_json(std::span<const Diagnostic> diagnostics,
                                      std::string_view filename);

/// One diagnostic as a JSON object (no surrounding array). Lets callers
/// combine diagnostics from several files into a single array.
[[nodiscard]] std::string render_json_object(const Diagnostic& diagnostic,
                                             std::string_view filename);

}  // namespace dvf::dsl
