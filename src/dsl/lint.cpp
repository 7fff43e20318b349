#include "dvf/dsl/lint.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <utility>
#include <variant>
#include <vector>

#include "dvf/analysis/bounds.hpp"
#include "dvf/dsl/analysis.hpp"
#include "dvf/obs/obs.hpp"

namespace dvf::dsl {

namespace {

SourceSpan key_span(const KeyValue& kv) {
  return {kv.line, kv.column, static_cast<int>(kv.key.size())};
}

SourceSpan tuple_span(const KeyTuple& tuple) {
  return {tuple.line, tuple.column, static_cast<int>(tuple.key.size())};
}

std::string num_str(double value) {
  std::ostringstream out;
  out << value;
  return out.str();
}

std::string bytes_str(double bytes) {
  std::ostringstream out;
  if (bytes >= 1024.0 * 1024.0) {
    out << bytes / (1024.0 * 1024.0) << " MB";
  } else if (bytes >= 1024.0) {
    out << bytes / 1024.0 << " KB";
  } else {
    out << bytes << " bytes";
  }
  return out.str();
}

/// First occurrence of a property key, or nullptr.
const KeyValue* find(const std::vector<KeyValue>& kvs, std::string_view key) {
  for (const KeyValue& kv : kvs) {
    if (kv.key == key) {
      return &kv;
    }
  }
  return nullptr;
}

/// The tuple the analyzer lowered (the last one with this key), or nullptr.
const KeyTuple* find_tuple(const PatternDecl& pattern, std::string_view key) {
  const KeyTuple* found = nullptr;
  for (const KeyTuple& tuple : pattern.tuples) {
    if (tuple.key == key) {
      found = &tuple;
    }
  }
  return found;
}

/// A declaration of a lowered model, with the model it lowered to.
struct LoweredModel {
  const ModelDecl& decl;
  const ModelSpec& spec;
};

/// A pattern declaration of a lowered model: its source (for spans and for
/// which keys were given) and what it lowered to (for every value).
struct LoweredPattern {
  const PatternDecl& decl;
  const PatternProvenance& row;
  const DataStructureSpec& structure;
  const PatternSpec* phase;  ///< first lowered phase; nullptr when none

  /// The lowered spec when the declaration lowered to a `Spec`, else nullptr.
  template <typename Spec>
  [[nodiscard]] const Spec* spec() const {
    return std::get_if<Spec>(phase);
  }

  [[nodiscard]] SourceSpan span() const {
    return {decl.line, decl.column, 7};
  }

  /// Span of a property key, or the declaration when the key is absent.
  [[nodiscard]] SourceSpan prop_span(std::string_view key) const {
    const KeyValue* kv = find(decl.properties, key);
    return kv == nullptr ? span() : key_span(*kv);
  }
};

struct LintContext {
  LintContext(const Program& ast_in, const CompiledProgram& program_in,
              DiagnosticEngine& diags_in,
              const analysis::AnalysisReport& report_in);

  const Program& ast;
  const CompiledProgram& program;
  DiagnosticEngine& diags;
  /// Bounds and verdicts over the compiled program (W102's deadness fact).
  const analysis::AnalysisReport& report;
  /// The model and pattern rules see only what lowered: a model with a
  /// lowering error gets its front-end errors and the hygiene rules.
  std::vector<LoweredModel> models;
  std::vector<LoweredPattern> patterns;  ///< in provenance order

  /// Bounds of a compiled structure, or nullptr.
  [[nodiscard]] const analysis::StructureBounds* bounds_of(
      const std::string& model, const std::string& data_name) const {
    const analysis::ModelBounds* bounds = report.find_model(model);
    if (bounds == nullptr) {
      return nullptr;
    }
    for (const analysis::StructureBounds& s : bounds->structures) {
      if (s.name == data_name) {
        return &s;
      }
    }
    return nullptr;
  }
};

LintContext::LintContext(const Program& ast_in,
                         const CompiledProgram& program_in,
                         DiagnosticEngine& diags_in,
                         const analysis::AnalysisReport& report_in)
    : ast(ast_in), program(program_in), diags(diags_in), report(report_in) {
  // Pattern keywords sit at distinct source positions, so a provenance row's
  // position names its declaration exactly.
  std::map<std::pair<int, int>, const PatternDecl*> at;
  for (const ModelDecl& model : ast.models) {
    for (const PatternDecl& pattern : model.patterns) {
      at.emplace(std::make_pair(pattern.line, pattern.column), &pattern);
    }
  }
  for (const PatternProvenance& row : program.provenance) {
    const DataStructureSpec* structure =
        program.model(row.model).find(row.structure);
    const auto decl = at.find({row.line, row.column});
    if (structure == nullptr || decl == at.end()) {
      continue;  // defensive: lowering records only what it lowered
    }
    const PatternSpec* phase =
        row.phase_count > 0 && row.first_phase < structure->patterns.size()
            ? &structure->patterns[row.first_phase]
            : nullptr;
    patterns.push_back({*decl->second, row, *structure, phase});
  }
  // A model's declaration is the first of its name whose every pattern
  // lowered (those of a failed declaration have no provenance row).
  std::set<const PatternDecl*> lowered;
  for (const LoweredPattern& p : patterns) {
    lowered.insert(&p.decl);
  }
  for (const ModelSpec& spec : program.models) {
    for (const ModelDecl& decl : ast.models) {
      if (decl.name == spec.name &&
          std::all_of(decl.patterns.begin(), decl.patterns.end(),
                      [&](const PatternDecl& pattern) {
                        return lowered.count(&pattern) != 0;
                      })) {
        models.push_back({decl, spec});
        break;
      }
    }
  }
}

// ---- hygiene rules -------------------------------------------------------

void rule_unused_param(LintContext& ctx) {
  std::set<std::string> used;
  const std::function<void(const Expr&)> walk = [&](const Expr& expr) {
    if (expr.kind == Expr::Kind::kIdentifier) {
      used.insert(expr.identifier);
    }
    if (expr.lhs) walk(*expr.lhs);
    if (expr.rhs) walk(*expr.rhs);
  };
  const auto walk_kvs = [&](const std::vector<KeyValue>& kvs) {
    for (const KeyValue& kv : kvs) {
      walk(*kv.value);
    }
  };
  for (const ParamDecl& param : ctx.ast.params) {
    walk(*param.value);
  }
  for (const MachineDecl& machine : ctx.ast.machines) {
    walk_kvs(machine.cache);
    walk_kvs(machine.memory);
  }
  for (const ModelDecl& model : ctx.ast.models) {
    if (model.time) walk(*model.time);
    for (const DataDecl& data : model.data) {
      walk_kvs(data.properties);
    }
    for (const PatternDecl& pattern : model.patterns) {
      walk_kvs(pattern.properties);
      for (const KeyTuple& tuple : pattern.tuples) {
        for (const ExprPtr& e : tuple.values) {
          walk(*e);
        }
      }
    }
  }

  std::set<std::string> reported;
  for (const ParamDecl& param : ctx.ast.params) {
    if (used.count(param.name) == 0 && reported.insert(param.name).second) {
      ctx.diags.warning(codes::kUnusedParam,
                        {param.line, param.column, 5},
                        "parameter '" + param.name + "' is never used",
                        "remove it, or reference it in an expression");
    }
  }
}

void rule_data_never_accessed(LintContext& ctx) {
  for (const LoweredModel& model : ctx.models) {
    for (const DataDecl& data : model.decl.data) {
      // A structure whose declarations all lower to zero phases is dead
      // too, but that is DVF-A302's finding, not W102's.
      const analysis::StructureBounds* bounds =
          ctx.bounds_of(model.spec.name, data.name);
      const bool has_pattern = std::any_of(
          ctx.patterns.begin(), ctx.patterns.end(),
          [&](const LoweredPattern& p) {
            return p.row.model == model.spec.name &&
                   p.row.structure == data.name;
          });
      if (bounds != nullptr && bounds->dead && !has_pattern) {
        ctx.diags.warning(
            codes::kDataNeverAccessed, {data.line, data.column, 4},
            "data '" + data.name + "' in model '" + model.spec.name +
                "' has no access pattern; it contributes footprint S_d but "
                "zero N_ha",
            "attach a 'pattern " + data.name +
                " <stream|random|template|reuse|tiled> { ... }' or drop it");
      }
    }
  }
}

void rule_machine_coverage(LintContext& ctx) {
  if (ctx.ast.models.empty() || !ctx.ast.machines.empty()) {
    return;
  }
  const ModelDecl& first = ctx.ast.models.front();
  ctx.diags.warning(codes::kNoMachine, {first.line, first.column, 5},
                    "program declares model(s) but no machine; there is "
                    "nothing to evaluate DVF against",
                    "add: machine \"name\" { cache { associativity ...; "
                    "sets ...; line ...; } memory { fit ...; } }");
}

void rule_empty_model(LintContext& ctx) {
  for (const ModelDecl& model : ctx.ast.models) {
    if (model.data.empty()) {
      ctx.diags.warning(codes::kEmptyModel, {model.line, model.column, 5},
                        "model '" + model.name +
                            "' declares no data structures; its DVF is "
                            "trivially zero");
    }
  }
}

// ---- model-sanity rules --------------------------------------------------

void rule_streaming_geometry(LintContext& ctx) {
  for (const LoweredPattern& p : ctx.patterns) {
    const auto* s = p.spec<StreamingSpec>();
    if (s == nullptr) {
      continue;  // not a stream, or `repeat 0` (no phase to check)
    }
    const SourceSpan span = p.prop_span("stride");
    if (s->element_count > 1 && s->stride_elements >= s->element_count) {
      ctx.diags.warning(
          codes::kStrideExceedsExtent, span,
          "stream over '" + p.decl.target + "' strides " +
              std::to_string(s->stride_elements) +
              " elements but the structure has only " +
              std::to_string(s->element_count) +
              "; only the first element is ever touched",
          "stride is measured in elements, not bytes");
    }
    for (const Machine& machine : ctx.program.machines) {
      const std::uint32_t line = machine.llc.line_bytes();
      if (s->element_bytes > line) {
        ctx.diags.warning(
            codes::kElementSpansLines, span,
            "element size " + std::to_string(s->element_bytes) + " of '" +
                p.decl.target + "' exceeds machine '" + machine.name +
                "' cache line (" + std::to_string(line) +
                " bytes); Eqs. 3-4 assume an element fits in one line");
      } else if (s->stride_bytes() > line) {
        ctx.diags.warning(
            codes::kStrideSkipsLines, span,
            "stream stride of " + std::to_string(s->stride_bytes()) +
                " bytes skips whole cache lines on machine '" +
                machine.name + "' (line = " + std::to_string(line) +
                " bytes); every reference misses and Eqs. 3-4 lose all "
                "spatial reuse");
      }
    }
  }
}

void rule_random_feasibility(LintContext& ctx) {
  for (const LoweredPattern& p : ctx.patterns) {
    const auto* r = p.spec<RandomSpec>();
    if (r == nullptr) {
      continue;
    }
    if (r->visits_per_iteration > static_cast<double>(r->element_count)) {
      ctx.diags.error(
          codes::kRandomInfeasible, p.prop_span("visits"),
          "random pattern visits " + num_str(r->visits_per_iteration) +
              " distinct elements per iteration but '" + p.decl.target +
              "' declares only " + std::to_string(r->element_count),
          "Eqs. 5-7 sample k of N elements without replacement: k <= N");
    }
    if (r->cache_ratio <= 0.0 || r->cache_ratio > 1.0) {
      continue;  // out-of-range ratio is reported by cache-share-range
    }
    for (const Machine& machine : ctx.program.machines) {
      const double share =
          r->cache_ratio * static_cast<double>(machine.llc.capacity_bytes());
      if (share < static_cast<double>(r->element_bytes)) {
        ctx.diags.warning(
            codes::kCacheShareBelowElement, p.prop_span("ratio"),
            "the cache share of '" + p.decl.target + "' on machine '" +
                machine.name + "' (r*C = " + bytes_str(share) +
                ") holds no complete element; Eq. 6's hit probability "
                "collapses to zero",
            "raise 'ratio' or model a larger cache");
      }
    }
  }
}

void rule_cache_share_range(LintContext& ctx) {
  for (const LoweredPattern& p : ctx.patterns) {
    const KeyValue* ratio_kv = find(p.decl.properties, "ratio");
    if (ratio_kv == nullptr) {
      continue;  // the default share, 1, is in range
    }
    std::optional<double> ratio;
    if (const auto* r = p.spec<RandomSpec>()) {
      ratio = r->cache_ratio;
    } else if (const auto* t = p.spec<TemplateSpec>()) {
      ratio = t->cache_ratio;
    } else if (const auto* b = p.spec<TiledSpec>()) {
      ratio = b->cache_ratio;
    }
    if (ratio && (*ratio <= 0.0 || *ratio > 1.0)) {
      ctx.diags.error(codes::kValueOutOfRange, key_span(*ratio_kv),
                      "cache-share ratio must be in (0, 1], got " +
                          num_str(*ratio),
                      "r is the structure's fraction of the LLC "
                      "(size-proportional for concurrent structures)");
    }
  }
}

void rule_template_bounds(LintContext& ctx) {
  for (const LoweredPattern& p : ctx.patterns) {
    const auto* t = p.spec<TemplateSpec>();
    const KeyTuple* start = find_tuple(p.decl, "start");
    if (t == nullptr || start == nullptr || t->starts.empty()) {
      continue;
    }
    const std::uint64_t elements = p.structure.size_bytes / t->element_bytes;
    // Lowering kept every index in range, so the last iteration reaches
    // the top under a positive step and the first one otherwise.
    const std::uint64_t reach =
        t->step > 0 ? (t->count - 1) * static_cast<std::uint64_t>(t->step) : 0;
    const std::uint64_t max_index =
        *std::max_element(t->starts.begin(), t->starts.end()) + reach;
    if (max_index >= elements) {
      ctx.diags.error(
          codes::kTemplateOutOfBounds, tuple_span(*start),
          "template reaches element " + std::to_string(max_index) + " but '" +
              p.decl.target + "' declares only " + std::to_string(elements) +
              " elements",
          "shrink 'count'/'end' or grow the data declaration");
    }

    // Reuse distance vs. capacity: repeated sweeps can only hit when the
    // whole template working set fits the structure's cache share. The
    // analysis counts the distinct cache lines the reference string touches
    // and compares them against the share in block units.
    if (t->repetitions < 2) {
      continue;
    }
    for (const Machine& machine : ctx.program.machines) {
      const analysis::PatternFacts facts =
          analysis::pattern_bounds(*p.phase, machine.llc, false);
      if (facts.exceeds_share) {
        ctx.diags.note(
            codes::kTemplateExceedsShare, p.prop_span("repeat"),
            "the template working set over '" + p.decl.target + "' (" +
                std::to_string(facts.working_set_blocks) +
                " cache lines) exceeds its cache share on machine '" +
                machine.name + "' (" + std::to_string(facts.capacity_blocks) +
                " lines); repeated sweeps mostly miss (reuse distance beyond "
                "capacity)");
      }
    }
  }
}

void rule_reuse_footprint(LintContext& ctx) {
  for (const LoweredPattern& p : ctx.patterns) {
    const auto* u = p.spec<ReuseSpec>();
    if (u == nullptr) {
      continue;
    }
    for (const Machine& machine : ctx.program.machines) {
      if (analysis::pattern_bounds(*p.phase, machine.llc, false)
              .exceeds_share) {
        ctx.diags.warning(
            codes::kReuseOverflowsCache, p.span(),
            "'" + p.decl.target + "' alone (" +
                bytes_str(static_cast<double>(u->self_bytes)) +
                ") overflows machine '" + machine.name + "' (" +
                bytes_str(static_cast<double>(machine.llc.capacity_bytes())) +
                "); Eq. 8's occupancy saturates and every reuse round misses",
            "a streaming pattern models this traversal more faithfully");
      }
    }
    const KeyValue* other_kv = find(p.decl.properties, "other_bytes");
    if (other_kv != nullptr && u->other_bytes == 0) {
      ctx.diags.note(
          codes::kReuseNoInterference, key_span(*other_kv),
          "reuse over '" + p.decl.target + "' declares zero interferer "
          "bytes: every reuse round hits and N_ha is just the initial "
          "load (Eqs. 9-15 degenerate)");
    }
  }
}

void rule_tiled_geometry(LintContext& ctx) {
  for (const LoweredPattern& p : ctx.patterns) {
    const auto* b = p.spec<TiledSpec>();
    const KeyTuple* tile = find_tuple(p.decl, "tile");
    if (b == nullptr || tile == nullptr) {
      continue;
    }

    // W112: a tile wider or taller than the matrix is vacuous blocking —
    // the evaluator clamps to the matrix edge, so the declared geometry
    // buys nothing.
    if (b->tile_rows > b->rows || b->tile_cols > b->cols) {
      ctx.diags.warning(
          codes::kTileExceedsFootprint, tuple_span(*tile),
          "tile (" + std::to_string(b->tile_rows) + ", " +
              std::to_string(b->tile_cols) + ") over '" + p.decl.target +
              "' exceeds the " + std::to_string(b->rows) + " x " +
              std::to_string(b->cols) +
              " matrix; the tiling degenerates to a whole-matrix sweep",
          "shrink the tile to at most the matrix dimensions");
    }

    // W113: a tile never re-read (one pass, no intra-tile reuse) gets no
    // benefit from blocking; the streaming model says the same thing with
    // fewer parameters.
    if (b->intra_reuse == 0 && b->passes == 1) {
      ctx.diags.warning(
          codes::kTileNoReuse, p.span(),
          "tiled pattern on '" + p.decl.target +
              "' has no reuse (passes 1, intra_reuse 0): a single cold "
              "sweep that a stream pattern models with fewer parameters",
          "add 'passes'/'intra_reuse', or use 'pattern " + p.decl.target +
              " stream { ... }'");
    }

    // N203: the tile itself overflows the structure's cache share — the
    // blocking is mis-sized for the machine and every intra-tile re-read
    // misses.
    for (const Machine& machine : ctx.program.machines) {
      const analysis::PatternFacts facts =
          analysis::pattern_bounds(*p.phase, machine.llc, false);
      if (facts.exceeds_share) {
        ctx.diags.note(
            codes::kTileExceedsShare, tuple_span(*tile),
            "one tile of '" + p.decl.target + "' (" +
                std::to_string(facts.working_set_blocks) +
                " cache lines) exceeds its cache share on machine '" +
                machine.name + "' (" + std::to_string(facts.capacity_blocks) +
                " lines); every intra-tile re-read misses",
            "shrink the tile or raise 'ratio'");
      }
    }
  }
}

void rule_zero_work(LintContext& ctx) {
  for (const LoweredPattern& p : ctx.patterns) {
    // Dataflow confirmation: the declaration must be provably zero-work
    // (zero phases, or every phase requesting zero steady-state work).
    if (!provably_zero_work(p.row, ctx.program)) {
      continue;
    }
    // Points at the key that made it so, when that key was given.
    const auto report = [&](const char* key, bool zero, const char* meaning) {
      const KeyValue* kv = find(p.decl.properties, key);
      if (kv != nullptr && zero) {
        ctx.diags.warning(codes::kZeroWorkPattern, key_span(*kv),
                          "pattern " + p.decl.kind + " on '" + p.decl.target +
                              "' has " + std::string(key) + " 0; " + meaning);
      }
    };
    if (p.decl.kind == "stream") {
      report("repeat", p.row.phase_count == 0, "it emits no phases at all");
    } else if (const auto* r = p.spec<RandomSpec>()) {
      report("iterations", r->iterations == 0, "it performs no accesses");
      report("visits", r->visits_per_iteration == 0.0,
             "it performs no accesses");
    } else if (const auto* t = p.spec<TemplateSpec>()) {
      report("repeat", t->repetitions == 0, "the template is never replayed");
    } else if (const auto* u = p.spec<ReuseSpec>()) {
      report("rounds", u->reuse_rounds == 0, "nothing is ever re-read");
    }
  }
}

void rule_unit_sanity(LintContext& ctx) {
  // Non-positive FIT rates and negative times are analyzer errors
  // (DVF-E017); here only the subtler degeneracy is left: a zero time.
  for (const LoweredModel& model : ctx.models) {
    if (model.decl.time && model.spec.exec_time_seconds == 0.0) {
      ctx.diags.warning(codes::kTriviallyZeroDvf,
                        {model.decl.time->line, model.decl.time->column, 1},
                        "model '" + model.spec.name +
                            "': execution time 0 makes N_error and DVF "
                            "trivially zero");
    }
  }
}

struct LintRule {
  LintRuleInfo info;
  void (*run)(LintContext&);
};

// The registry. Order is presentation-neutral (diagnostics are sorted by
// source position afterwards) but kept hygiene-first for readability.
constexpr LintRule kRules[] = {
    {{"unused-param", "DVF-W101"}, rule_unused_param},
    {{"data-never-accessed", "DVF-W102"}, rule_data_never_accessed},
    {{"machine-coverage", "DVF-W103"}, rule_machine_coverage},
    {{"empty-model", "DVF-W111"}, rule_empty_model},
    {{"streaming-geometry", "DVF-W104,DVF-W105,DVF-W106"},
     rule_streaming_geometry},
    {{"random-feasibility", "DVF-E012,DVF-W108"}, rule_random_feasibility},
    {{"cache-share-range", "DVF-E014"}, rule_cache_share_range},
    {{"template-bounds", "DVF-E013,DVF-N202"}, rule_template_bounds},
    {{"reuse-footprint", "DVF-W109,DVF-N201"}, rule_reuse_footprint},
    {{"tiled-geometry", "DVF-W112,DVF-W113,DVF-N203"}, rule_tiled_geometry},
    {{"zero-work", "DVF-W107"}, rule_zero_work},
    {{"unit-sanity", "DVF-W110"}, rule_unit_sanity},
};

}  // namespace

std::span<const LintRuleInfo> lint_rule_catalog() {
  static const std::vector<LintRuleInfo> catalog = [] {
    std::vector<LintRuleInfo> out;
    for (const LintRule& rule : kRules) {
      out.push_back(rule.info);
    }
    return out;
  }();
  return catalog;
}

LintResult lint(std::string_view source) {
  LintResult result;
  result.source.assign(source);

  DiagnosticEngine diags;
  FrontEnd front = parse_and_analyze(source, diags);
  result.program = std::move(front.program);
  if (front.ast) {
    // Facts only, no exact-refinement runs: lint never evaluates a model,
    // it just reads the analysis' verdict bits.
    analysis::AnalysisOptions options;
    options.refine_exact = false;
    const analysis::AnalysisReport report = analysis::analyze(
        result.program.machines, result.program.models, options);
    LintContext ctx(*front.ast, result.program, diags, report);
    const obs::ScopedSpan span("dsl.lint_rules");
    for (const LintRule& rule : kRules) {
      rule.run(ctx);
    }
  }

  result.diagnostics = diags.sorted();
  result.errors = diags.error_count();
  result.warnings = diags.warning_count();
  return result;
}

LintResult lint_file(const std::string& path) {
  return lint(read_model_file(path));
}

}  // namespace dvf::dsl
