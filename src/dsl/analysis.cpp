#include "dvf/dsl/analysis.hpp"

#include <utility>

namespace dvf::dsl {

namespace {

const ModelDecl* find_model_decl(const Program& ast, const std::string& name) {
  for (const ModelDecl& model : ast.models) {
    if (model.name == name) {
      return &model;
    }
  }
  return nullptr;
}

const DataDecl* find_data_decl(const ModelDecl& model,
                               const std::string& name) {
  for (const DataDecl& data : model.data) {
    if (data.name == name) {
      return &data;
    }
  }
  return nullptr;
}

}  // namespace

bool provably_zero_work(const PatternProvenance& row,
                        const CompiledProgram& program) {
  const ModelSpec* model = nullptr;
  for (const ModelSpec& m : program.models) {
    if (m.name == row.model) {
      model = &m;
      break;
    }
  }
  if (model == nullptr) {
    return false;
  }
  const DataStructureSpec* target = model->find(row.structure);
  if (target == nullptr) {
    return false;
  }
  if (row.phase_count == 0) {
    return true;  // the declaration emitted nothing at all
  }
  for (std::size_t i = 0; i < row.phase_count; ++i) {
    const std::size_t phase = row.first_phase + i;
    if (phase >= target->patterns.size() ||
        !analysis::zero_steady_work(target->patterns[phase])) {
      return false;
    }
  }
  return true;
}

namespace {

void report_verdicts(const Program& ast, const SemanticAnalysis& result,
                     DiagnosticEngine& diags) {
  const analysis::AnalysisReport& report = *result.report;
  const bool has_machines = !report.machines.empty();

  for (const analysis::ModelBounds& model : report.models) {
    const ModelDecl* decl = find_model_decl(ast, model.name);
    if (decl == nullptr) {
      continue;  // defensive: compiled models always have a declaration
    }
    for (const analysis::StructureBounds& s : model.structures) {
      const DataDecl* data = find_data_decl(*decl, s.name);
      const SourceSpan span = data != nullptr
                                  ? SourceSpan{data->line, data->column, 4}
                                  : SourceSpan{decl->line, decl->column, 5};
      if (s.dead) {
        diags.warning(codes::kAnalysisDeadStructure, span,
                      "data '" + s.name + "' in model '" + model.name +
                          "' lowers to zero access phases; its N_ha and DVF "
                          "contribution are provably 0 on every machine",
                      "attach a non-empty pattern or drop the declaration");
      }
      if (has_machines && s.rejects_everywhere) {
        const char* kind =
            to_string(s.per_machine.front().reject_kind);
        diags.warning(
            codes::kAnalysisRejectsEverywhere, span,
            "evaluating '" + s.name + "' in model '" + model.name +
                "' provably fails on every configured machine (" +
                std::string(kind) + "); the model's DVF cannot be computed",
            "fix the pattern parameters the evaluator rejects");
      }
      if (has_machines && s.exceeds_all_shares && !s.rejects_everywhere) {
        diags.note(
            codes::kAnalysisExceedsAllShares, span,
            "a pattern over '" + s.name + "' in model '" + model.name +
                "' has a working set that provably exceeds its cache share "
                "on every configured machine; steady-state reuse misses "
                "dominate N_ha");
      }
    }
  }

  // Zero-work declarations, via lowering provenance (a declaration can be
  // zero-work even when its structure is not dead — other patterns may
  // still access it).
  for (const PatternProvenance& row : result.program.provenance) {
    if (!provably_zero_work(row, result.program)) {
      continue;
    }
    diags.warning(codes::kAnalysisZeroWork,
                  {row.line, row.column, 7},
                  "pattern on '" + row.structure + "' in model '" + row.model +
                      "' provably performs no steady-state work" +
                      (row.phase_count == 0 ? " (it lowers to zero phases)"
                                            : ""),
                  "a zero repeat/iteration/round count models nothing");
  }
}

}  // namespace

SemanticAnalysis analyze_models(std::string_view source,
                                const analysis::AnalysisOptions& options) {
  SemanticAnalysis result;
  result.source.assign(source);

  DiagnosticEngine diags;
  FrontEnd front = parse_and_analyze(source, diags);
  result.program = std::move(front.program);
  if (front.ast) {
    result.report = analysis::analyze(result.program.machines,
                                      result.program.models, options);
    report_verdicts(*front.ast, result, diags);
  }

  result.diagnostics = diags.sorted();
  result.errors = diags.error_count();
  result.warnings = diags.warning_count();
  return result;
}

SemanticAnalysis analyze_models_file(const std::string& path,
                                     const analysis::AnalysisOptions& options) {
  return analyze_models(read_model_file(path), options);
}

}  // namespace dvf::dsl
