#include "dvf/dsl/analyzer.hpp"

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "dvf/common/error.hpp"
#include "dvf/dsl/parser.hpp"
#include "dvf/obs/obs.hpp"
#include "dvf/dsl/template_expander.hpp"

namespace dvf::dsl {

namespace {

SourceSpan expr_span(const Expr& expr) { return {expr.line, expr.column, 1}; }

SourceSpan key_span(const KeyValue& kv) {
  return {kv.line, kv.column, static_cast<int>(kv.key.size())};
}

SourceSpan tuple_span(const KeyTuple& tuple) {
  return {tuple.line, tuple.column, static_cast<int>(tuple.key.size())};
}

/// Recursive evaluator; `poisoned` names parameters whose own definitions
/// already failed, so uses of them stay quiet instead of cascading E002.
std::optional<double> eval_expr(const Expr& expr,
                                const std::map<std::string, double>& env,
                                const std::set<std::string>& poisoned,
                                DiagnosticEngine& diags) {
  switch (expr.kind) {
    case Expr::Kind::kNumber:
      return expr.number;
    case Expr::Kind::kIdentifier: {
      const auto it = env.find(expr.identifier);
      if (it != env.end()) {
        return it->second;
      }
      if (poisoned.count(expr.identifier) == 0) {
        diags.error(codes::kUnknownIdentifier,
                    {expr.line, expr.column,
                     static_cast<int>(expr.identifier.size())},
                    "unknown parameter '" + expr.identifier + "'",
                    "declare it first: param " + expr.identifier + " = ...;");
      }
      return std::nullopt;
    }
    case Expr::Kind::kUnary: {
      const auto v = eval_expr(*expr.lhs, env, poisoned, diags);
      return v ? std::optional<double>(-*v) : std::nullopt;
    }
    case Expr::Kind::kBinary: {
      const auto a = eval_expr(*expr.lhs, env, poisoned, diags);
      const auto b = eval_expr(*expr.rhs, env, poisoned, diags);
      if (!a || !b) {
        return std::nullopt;
      }
      switch (expr.op) {
        case '+': return *a + *b;
        case '-': return *a - *b;
        case '*': return *a * *b;
        case '/':
        case '%':
          if (*b == 0.0) {
            diags.error(codes::kDivisionByZero, expr_span(expr),
                        expr.op == '/' ? "division by zero"
                                       : "modulo by zero");
            return std::nullopt;
          }
          return expr.op == '/' ? *a / *b : std::fmod(*a, *b);
        case '^': return std::pow(*a, *b);
        default: break;
      }
      break;
    }
  }
  diags.error(codes::kSyntax, expr_span(expr), "malformed expression node");
  return std::nullopt;
}

class Analyzer;

/// Property bag with required/optional accessors and unknown-key detection.
/// All values are evaluated up front (reporting expression errors inline);
/// accessors return nullopt for a property whose expression failed, without
/// reporting anything further.
class Properties {
 public:
  Properties(const std::vector<KeyValue>& kvs, Analyzer& analyzer,
             std::string context);

  /// Reports E007 when absent; nullopt when absent or failed-to-evaluate.
  [[nodiscard]] std::optional<double> require(const std::string& key,
                                              SourceSpan missing_span);

  /// `fallback` when absent; nullopt when present but failed to evaluate.
  [[nodiscard]] std::optional<double> get(const std::string& key,
                                          double fallback);

  [[nodiscard]] bool has(const std::string& key) const {
    return entries_.count(key) != 0;
  }

  /// Span of the property's key, or `fallback` when the key is absent.
  [[nodiscard]] SourceSpan span(const std::string& key,
                                SourceSpan fallback) const {
    const auto it = entries_.find(key);
    return it == entries_.end() ? fallback : it->second.span;
  }

  /// Call after all accesses: reports E006 for every leftover key (typos).
  void reject_unknown();

 private:
  struct Entry {
    std::optional<double> value;
    SourceSpan span;
    bool used = false;
  };
  std::map<std::string, Entry> entries_;
  std::string context_;
  DiagnosticEngine& diags_;
};

class Analyzer {
 public:
  Analyzer(const Program& program, DiagnosticEngine& diags)
      : program_(program), diags_(diags) {}

  CompiledProgram run() {
    for (const ParamDecl& param : program_.params) {
      lower_param(param);
    }
    for (const MachineDecl& machine : program_.machines) {
      lower_machine(machine);
    }
    for (const ModelDecl& model : program_.models) {
      lower_model(model);
    }
    return std::move(out_);
  }

  [[nodiscard]] std::optional<double> eval(const Expr& expr) {
    return eval_expr(expr, out_.params, poisoned_params_, diags_);
  }

  [[nodiscard]] DiagnosticEngine& diags() { return diags_; }

 private:
  /// Rejects negative, fractional and absurdly large values (E008).
  std::optional<std::uint64_t> count_of(std::optional<double> v,
                                        const std::string& what,
                                        SourceSpan span) {
    if (!v) {
      return std::nullopt;
    }
    if (*v < 0.0 || *v != std::floor(*v) || *v > 9.0e15) {
      diags_.error(codes::kNotACount, span,
                   what + " must be a non-negative integer (got " +
                       std::to_string(*v) + ")");
      return std::nullopt;
    }
    return static_cast<std::uint64_t>(*v);
  }

  void lower_param(const ParamDecl& decl) {
    const SourceSpan span{decl.line, decl.column, 5};
    if (out_.params.count(decl.name) != 0 ||
        poisoned_params_.count(decl.name) != 0) {
      diags_.error(codes::kDuplicateDeclaration, span,
                   "duplicate parameter '" + decl.name + "'");
      return;
    }
    const auto value = eval(*decl.value);
    if (value) {
      out_.params[decl.name] = *value;
    } else {
      poisoned_params_.insert(decl.name);
    }
  }

  void lower_machine(const MachineDecl& decl) {
    const SourceSpan decl_span{decl.line, decl.column, 7};
    for (const Machine& existing : out_.machines) {
      if (existing.name == decl.name) {
        diags_.error(codes::kDuplicateDeclaration, decl_span,
                     "duplicate machine '" + decl.name + "'");
        return;
      }
    }

    Properties cache(decl.cache, *this, "machine '" + decl.name + "' cache");
    const auto assoc =
        count_of(cache.require("associativity", decl_span),
                 "cache associativity", cache.span("associativity", decl_span));
    const auto sets = count_of(cache.require("sets", decl_span), "cache sets",
                               cache.span("sets", decl_span));
    const auto line = count_of(cache.require("line", decl_span), "cache line",
                               cache.span("line", decl_span));
    cache.reject_unknown();

    Properties memory(decl.memory, *this, "machine '" + decl.name + "' memory");
    std::optional<double> fit;
    if (!decl.ecc.empty()) {
      const SourceSpan ecc_span{decl.ecc_line, decl.ecc_column, 3};
      if (memory.has("fit")) {
        (void)memory.get("fit", 0.0);  // consume: the conflict is the error
        diags_.error(codes::kConflictingMemorySpec, ecc_span,
                     "machine '" + decl.name +
                         "': give either 'fit' or 'ecc', not both");
      } else {
        try {
          fit = fit_rate(ecc_from_string(decl.ecc));
        } catch (const Error& err) {
          diags_.error(codes::kConflictingMemorySpec, ecc_span,
                       "machine '" + decl.name + "': " + err.what(),
                       "known schemes: none, secded, chipkill");
        }
      }
    } else {
      fit = memory.get("fit", fit_rate(EccScheme::kNone));
      if (fit && *fit <= 0.0) {
        diags_.error(codes::kNegativeQuantity,
                     memory.span("fit", decl_span),
                     "machine '" + decl.name +
                         "': FIT rate must be positive (got " +
                         std::to_string(*fit) + ")",
                     "FIT is failures per 10^9 device-hours per Mbit");
        fit.reset();
      }
    }
    memory.reject_unknown();

    if (!assoc || !sets || !line || !fit) {
      return;
    }
    try {
      out_.machines.emplace_back(
          decl.name,
          CacheConfig(decl.name + "-llc", static_cast<std::uint32_t>(*assoc),
                      static_cast<std::uint32_t>(*sets),
                      static_cast<std::uint32_t>(*line)),
          MemoryModel(*fit));
    } catch (const Error& err) {
      // CacheConfig rejects zero fields and non-power-of-two line lengths.
      diags_.error(codes::kValueOutOfRange, decl_span,
                   "machine '" + decl.name + "': " + err.what());
    }
  }

  std::optional<ReuseScenario> scenario_from(std::optional<double> code,
                                             SourceSpan span) {
    if (!code) {
      return std::nullopt;
    }
    switch (static_cast<int>(*code)) {
      case 0: return ReuseScenario::kLruProtects;
      case 1: return ReuseScenario::kUniformEviction;
      case 2: return ReuseScenario::kBlend;
      default:
        diags_.error(codes::kValueOutOfRange, span,
                     "reuse scenario must be 0 (lru), 1 (uniform) or 2 "
                     "(blend)");
        return std::nullopt;
    }
  }

  void lower_model(const ModelDecl& decl) {
    const SourceSpan decl_span{decl.line, decl.column, 5};
    for (const ModelSpec& existing : out_.models) {
      if (existing.name == decl.name) {
        diags_.error(codes::kDuplicateDeclaration, decl_span,
                     "duplicate model '" + decl.name + "'");
        return;
      }
    }

    bool failed = false;
    ModelSpec spec;
    spec.name = decl.name;
    if (decl.time) {
      const auto t = eval(*decl.time);
      if (!t) {
        failed = true;
      } else if (*t < 0.0) {
        diags_.error(codes::kNegativeQuantity, expr_span(*decl.time),
                     "model '" + decl.name + "': time must be >= 0");
        failed = true;
      } else {
        spec.exec_time_seconds = *t;
      }
    }

    // Element sizes and counts, needed when lowering patterns.
    std::map<std::string, std::uint32_t> element_bytes;
    std::map<std::string, std::uint64_t> element_count;

    for (const DataDecl& data : decl.data) {
      if (!lower_data(decl, data, spec, element_bytes, element_count)) {
        failed = true;
      }
    }

    AccessOrder order;
    if (!decl.order.empty()) {
      try {
        order = parse_access_order(decl.order);
      } catch (const Error& err) {
        diags_.error(codes::kSyntax,
                     {decl.order_line, decl.order_column,
                      static_cast<int>(decl.order.size()) + 2},
                     "model '" + decl.name + "': bad access order: " +
                         err.what());
        failed = true;
      }
    }

    std::vector<PatternProvenance> provenance;
    provenance.reserve(decl.patterns.size());
    for (const PatternDecl& pattern : decl.patterns) {
      // The target structure's phase list grows by whatever this declaration
      // lowers to (0..n phases); record the slice for provenance. The
      // structures vector does not change during pattern lowering, so the
      // pointer stays valid across the call.
      const DataStructureSpec* target = spec.find(pattern.target);
      const std::size_t before = target != nullptr ? target->patterns.size() : 0;
      if (!lower_pattern(decl, pattern, spec, order, element_bytes,
                         element_count)) {
        failed = true;
      } else if (target != nullptr) {
        provenance.push_back({decl.name, pattern.target, pattern.line,
                              pattern.column, before,
                              target->patterns.size() - before});
      }
    }

    // A partially lowered model would feed meaningless numbers to the
    // calculator; only clean models make it into the compiled program.
    if (!failed) {
      out_.models.push_back(std::move(spec));
      out_.provenance.insert(out_.provenance.end(),
                             std::make_move_iterator(provenance.begin()),
                             std::make_move_iterator(provenance.end()));
    }
  }

  bool lower_data(const ModelDecl& model, const DataDecl& data,
                  ModelSpec& spec,
                  std::map<std::string, std::uint32_t>& element_bytes,
                  std::map<std::string, std::uint64_t>& element_count) {
    const SourceSpan decl_span{data.line, data.column, 4};
    if (spec.find(data.name) != nullptr) {
      diags_.error(codes::kDuplicateDeclaration, decl_span,
                   "model '" + model.name + "': duplicate data '" + data.name +
                       "'");
      return false;
    }
    Properties props(data.properties, *this,
                     "data '" + data.name + "' in model '" + model.name + "'");
    const auto esize = count_of(props.get("element_size", 8.0), "element_size",
                                props.span("element_size", decl_span));
    std::optional<std::uint64_t> count;
    if (props.has("elements")) {
      count = count_of(props.require("elements", decl_span), "elements",
                       props.span("elements", decl_span));
    } else if (props.has("size")) {
      const auto size = count_of(props.require("size", decl_span), "size",
                                 props.span("size", decl_span));
      if (size && esize) {
        if (*esize == 0 || *size % *esize != 0) {
          diags_.error(codes::kInconsistentSize,
                       props.span("size", decl_span),
                       "data '" + data.name +
                           "': size must be a multiple of element_size");
        } else {
          count = *size / *esize;
        }
      }
    } else {
      diags_.error(codes::kMissingProperty, decl_span,
                   "data '" + data.name + "': needs 'elements' or 'size'",
                   "give the footprint as elements N; or size N;");
    }
    props.reject_unknown();
    if (!esize || !count) {
      return false;
    }
    if (*esize == 0 || *count == 0) {
      diags_.error(codes::kInconsistentSize, decl_span,
                   "data '" + data.name +
                       "': element_size and elements must be positive");
      return false;
    }

    DataStructureSpec ds;
    ds.name = data.name;
    ds.size_bytes = *count * *esize;
    spec.structures.push_back(std::move(ds));
    element_bytes[data.name] = static_cast<std::uint32_t>(*esize);
    element_count[data.name] = *count;
    return true;
  }

  bool lower_pattern(const ModelDecl& model, const PatternDecl& pattern,
                     ModelSpec& spec, const AccessOrder& order,
                     const std::map<std::string, std::uint32_t>& element_bytes,
                     const std::map<std::string, std::uint64_t>& element_count) {
    const SourceSpan decl_span{pattern.line, pattern.column, 7};
    DataStructureSpec* target = nullptr;
    for (auto& ds : spec.structures) {
      if (ds.name == pattern.target) {
        target = &ds;
        break;
      }
    }
    if (target == nullptr) {
      diags_.error(codes::kUndeclaredData, decl_span,
                   "pattern for undeclared data '" + pattern.target +
                       "' in model '" + model.name + "'",
                   "declare it first: data " + pattern.target + " { ... }");
      return false;
    }
    const std::string context = "pattern " + pattern.kind + " on '" +
                                pattern.target + "' in model '" + model.name +
                                "'";
    Properties props(pattern.properties, *this, context);
    const auto no_tuples = [&]() {
      if (pattern.tuples.empty()) {
        return true;
      }
      diags_.error(codes::kBadTuple, tuple_span(pattern.tuples.front()),
                   context + ": " + pattern.kind + " patterns take no tuples");
      return false;
    };

    if (pattern.kind == "stream") {
      const bool tuples_ok = no_tuples();
      StreamingSpec s;
      s.element_bytes = element_bytes.at(pattern.target);
      s.element_count = element_count.at(pattern.target);
      const auto stride = count_of(props.get("stride", 1.0), "stride",
                                   props.span("stride", decl_span));
      const auto repeats = count_of(props.get("repeat", 1.0), "repeat",
                                    props.span("repeat", decl_span));
      props.reject_unknown();
      if (!tuples_ok || !stride || !repeats) {
        return false;
      }
      s.stride_elements = *stride;
      for (std::uint64_t i = 0; i < *repeats; ++i) {
        target->patterns.emplace_back(s);
      }
      return true;
    }

    if (pattern.kind == "random") {
      const bool tuples_ok = no_tuples();
      RandomSpec r;
      r.element_count = element_count.at(pattern.target);
      r.element_bytes = element_bytes.at(pattern.target);
      const auto visits = props.require("visits", decl_span);
      const auto iterations =
          count_of(props.require("iterations", decl_span), "iterations",
                   props.span("iterations", decl_span));
      const auto ratio = props.get("ratio", 1.0);
      props.reject_unknown();
      if (!tuples_ok || !visits || !iterations || !ratio) {
        return false;
      }
      r.visits_per_iteration = *visits;
      r.iterations = *iterations;
      r.cache_ratio = *ratio;
      target->patterns.emplace_back(r);
      return true;
    }

    if (pattern.kind == "template") {
      return lower_template(pattern, props, context, decl_span, target,
                            element_bytes.at(pattern.target));
    }

    if (pattern.kind == "reuse") {
      const bool tuples_ok = no_tuples();
      ReuseSpec u;
      u.self_bytes = target->size_bytes;
      std::optional<std::uint64_t> other;
      if (props.has("other_bytes")) {
        other = count_of(props.require("other_bytes", decl_span),
                         "other_bytes", props.span("other_bytes", decl_span));
      } else {
        // Derive the interferer footprint from the access order: every other
        // structure sharing a phase with the target.
        std::uint64_t derived = 0;
        for (const std::string& name : order.concurrent_with(pattern.target)) {
          if (const DataStructureSpec* ds = spec.find(name)) {
            derived += ds->size_bytes;
          }
        }
        other = derived;
      }
      std::optional<std::uint64_t> rounds;
      if (props.has("rounds")) {
        rounds = count_of(props.require("rounds", decl_span), "rounds",
                          props.span("rounds", decl_span));
      } else {
        const std::uint64_t appearances = order.appearances(pattern.target);
        if (appearances < 2) {
          diags_.error(codes::kMissingProperty, decl_span,
                       context +
                           ": reuse needs 'rounds' or an access order in "
                           "which the structure appears at least twice");
        } else {
          rounds = appearances - 1;
        }
      }
      const auto scenario = scenario_from(props.get("scenario", 0.0),
                                          props.span("scenario", decl_span));
      // occupancy: 0 = Bernoulli (paper Eq. 8, default), 1 = contiguous.
      const auto occupancy = props.get("occupancy", 0.0);
      bool occupancy_ok = occupancy.has_value();
      if (occupancy) {
        if (*occupancy == 1.0) {
          u.occupancy = ReuseOccupancy::kContiguous;
        } else if (*occupancy != 0.0) {
          diags_.error(codes::kValueOutOfRange,
                       props.span("occupancy", decl_span),
                       context +
                           ": occupancy must be 0 (bernoulli) or 1 "
                           "(contiguous)");
          occupancy_ok = false;
        }
      }
      props.reject_unknown();
      if (!tuples_ok || !other || !rounds || !scenario || !occupancy_ok) {
        return false;
      }
      u.other_bytes = *other;
      u.reuse_rounds = *rounds;
      u.scenario = *scenario;
      target->patterns.emplace_back(u);
      return true;
    }

    if (pattern.kind == "tiled") {
      return lower_tiled(pattern, props, context, decl_span, target,
                         element_bytes.at(pattern.target),
                         element_count.at(pattern.target));
    }

    diags_.error(codes::kUnknownPatternKind, decl_span,
                 context + ": unknown pattern kind '" + pattern.kind +
                     "' (expected stream|random|template|reuse|tiled)");
    return false;
  }

  /// Records `tuple` as the first of its key, or reports DVF-E005 on a
  /// repeat; as for scalar properties, the first one stays in effect.
  bool claim_tuple(const KeyTuple*& first, const KeyTuple& tuple,
                   const std::string& context) {
    if (first == nullptr) {
      first = &tuple;
      return true;
    }
    diags_.error(codes::kDuplicateProperty, tuple_span(tuple),
                 context + ": duplicate tuple '" + tuple.key + "'",
                 "first given at " + std::to_string(first->line) + ":" +
                     std::to_string(first->column));
    return false;
  }

  bool lower_template(const PatternDecl& pattern, Properties& props,
                      const std::string& context, SourceSpan decl_span,
                      DataStructureSpec* target, std::uint32_t esize) {
    std::vector<std::int64_t> start;
    const KeyTuple* start_tuple = nullptr;
    const KeyTuple* end_tuple = nullptr;
    bool tuples_ok = true;
    for (const KeyTuple& tuple : pattern.tuples) {
      if (tuple.key == "start") {
        if (!claim_tuple(start_tuple, tuple, context)) {
          continue;
        }
        for (const ExprPtr& e : tuple.values) {
          const auto v = eval(*e);
          if (!v) {
            tuples_ok = false;
          } else {
            start.push_back(
                static_cast<std::int64_t>(std::llround(*v)));
          }
        }
      } else if (tuple.key == "end") {
        // Validated against count below; the end tuple documents the
        // boundary (paper's MG template) but count drives expansion.
        claim_tuple(end_tuple, tuple, context);
      } else {
        diags_.error(codes::kUnknownProperty, tuple_span(tuple),
                     context + ": unknown tuple '" + tuple.key + "'",
                     "templates take 'start (...)' and 'end (...)' tuples");
        tuples_ok = false;
      }
    }
    if (start_tuple == nullptr) {
      diags_.error(codes::kMissingProperty, decl_span,
                   context + ": template needs a 'start (...)' tuple");
      tuples_ok = false;
    }

    std::optional<std::int64_t> step;
    if (const auto step_value = props.get("step", 1.0)) {
      step = static_cast<std::int64_t>(std::llround(*step_value));
    }
    std::optional<std::uint64_t> count;
    if (props.has("count")) {
      count = count_of(props.require("count", decl_span), "count",
                       props.span("count", decl_span));
    } else if (tuples_ok && step) {
      // Derive the iteration count from the end tuple's first component.
      if (end_tuple == nullptr || end_tuple->values.empty() || *step == 0) {
        diags_.error(codes::kBadTuple, decl_span,
                     context +
                         ": template needs 'count' or an 'end (...)' "
                         "tuple with a nonzero step");
      } else if (const auto end_value = eval(*end_tuple->values[0])) {
        const auto end0 =
            static_cast<std::int64_t>(std::llround(*end_value));
        const std::int64_t span = end0 - start[0];
        if (span % *step != 0 || span / *step < 0) {
          diags_.error(codes::kBadTuple, tuple_span(*end_tuple),
                       context +
                           ": end tuple is not reachable from start with "
                           "the given step");
        } else {
          count = static_cast<std::uint64_t>(span / *step) + 1;
        }
      }
    }

    const auto repeats = count_of(props.get("repeat", 1.0), "repeat",
                                  props.span("repeat", decl_span));
    const auto ratio = props.get("ratio", 1.0);
    props.reject_unknown();
    if (!tuples_ok || !step || !count || !repeats || !ratio) {
      return false;
    }

    // Total validation: progressions that underflow element 0, overflow the
    // index range, or exceed the expansion budget (template bombs) all
    // degrade into a diagnostic on the start tuple instead of an exception
    // or an OOM kill.
    auto progression = try_progression(start, *step, *count);
    if (!progression.ok()) {
      diags_.error(codes::kTemplateOutOfBounds, tuple_span(*start_tuple),
                   context + ": " + progression.error().describe());
      return false;
    }
    TemplateSpec t = *std::move(progression);
    t.element_bytes = esize;
    t.repetitions = *repeats;
    t.cache_ratio = *ratio;
    target->patterns.emplace_back(std::move(t));
    return true;
  }

  bool lower_tiled(const PatternDecl& pattern, Properties& props,
                   const std::string& context, SourceSpan decl_span,
                   DataStructureSpec* target, std::uint32_t esize,
                   std::uint64_t elements) {
    // tile (TR, TC) — the blocking geometry; the only tuple tiled takes.
    const KeyTuple* tile_tuple = nullptr;
    bool tuples_ok = true;
    for (const KeyTuple& tuple : pattern.tuples) {
      if (tuple.key == "tile") {
        claim_tuple(tile_tuple, tuple, context);
      } else {
        diags_.error(codes::kUnknownProperty, tuple_span(tuple),
                     context + ": unknown tuple '" + tuple.key + "'",
                     "tiled takes one 'tile (rows, cols)' tuple");
        tuples_ok = false;
      }
    }
    std::optional<std::uint64_t> tile_rows;
    std::optional<std::uint64_t> tile_cols;
    if (tile_tuple == nullptr) {
      diags_.error(codes::kMissingProperty, decl_span,
                   context + ": tiled needs a 'tile (rows, cols)' tuple");
      tuples_ok = false;
    } else if (tile_tuple->values.size() != 2) {
      diags_.error(codes::kBadTuple, tuple_span(*tile_tuple),
                   context + ": 'tile' takes exactly two components "
                             "(rows, cols)");
      tuples_ok = false;
    } else {
      const auto tr = eval(*tile_tuple->values[0]);
      const auto tc = eval(*tile_tuple->values[1]);
      if (tr && tc) {
        tile_rows = count_of(tr, "tile rows", tuple_span(*tile_tuple));
        tile_cols = count_of(tc, "tile cols", tuple_span(*tile_tuple));
      }
      if (!tile_rows || !tile_cols) {
        tuples_ok = false;
      } else if (*tile_rows == 0 || *tile_cols == 0) {
        diags_.error(codes::kTiledGeometry, tuple_span(*tile_tuple),
                     context + ": tile dimensions must be at least 1");
        tuples_ok = false;
      }
    }

    const auto rows = count_of(props.require("rows", decl_span), "rows",
                               props.span("rows", decl_span));
    std::optional<std::uint64_t> cols;
    const bool cols_given = props.has("cols");
    if (cols_given) {
      cols = count_of(props.require("cols", decl_span), "cols",
                      props.span("cols", decl_span));
    }
    const auto intra = count_of(props.get("intra_reuse", 0.0), "intra_reuse",
                                props.span("intra_reuse", decl_span));
    const auto passes = count_of(props.get("passes", 1.0), "passes",
                                 props.span("passes", decl_span));
    const auto ratio = props.get("ratio", 1.0);
    props.reject_unknown();
    if (!tuples_ok || !rows || (cols_given && !cols) || !intra || !passes ||
        !ratio) {
      return false;
    }

    // The matrix must tile the declared footprint exactly: rows * cols ==
    // elements, with cols derived from the element count when omitted.
    if (*rows == 0) {
      diags_.error(codes::kTiledGeometry, props.span("rows", decl_span),
                   context + ": rows must be at least 1");
      return false;
    }
    if (!cols_given) {
      if (elements % *rows != 0) {
        diags_.error(codes::kTiledGeometry, props.span("rows", decl_span),
                     context + ": rows (" + std::to_string(*rows) +
                         ") does not divide the element count (" +
                         std::to_string(elements) + ")",
                     "give 'cols' explicitly or pick a divisor of the count");
        return false;
      }
      cols = elements / *rows;
    } else if (*cols == 0 || *rows > elements / *cols ||
               *rows * *cols != elements) {
      diags_.error(codes::kTiledGeometry, props.span("cols", decl_span),
                   context + ": rows * cols must equal the declared element "
                             "count (" +
                       std::to_string(elements) + ")");
      return false;
    }

    TiledSpec b;
    b.element_bytes = esize;
    b.rows = *rows;
    b.cols = *cols;
    b.tile_rows = *tile_rows;
    b.tile_cols = *tile_cols;
    b.intra_reuse = *intra;
    b.passes = *passes;
    b.cache_ratio = *ratio;
    target->patterns.emplace_back(b);
    return true;
  }

  const Program& program_;
  DiagnosticEngine& diags_;
  CompiledProgram out_;
  std::set<std::string> poisoned_params_;
};

Properties::Properties(const std::vector<KeyValue>& kvs, Analyzer& analyzer,
                       std::string context)
    : context_(std::move(context)), diags_(analyzer.diags()) {
  for (const KeyValue& kv : kvs) {
    Entry entry{analyzer.eval(*kv.value), key_span(kv), false};
    const auto [it, inserted] = entries_.emplace(kv.key, std::move(entry));
    if (!inserted) {
      diags_.error(codes::kDuplicateProperty, key_span(kv),
                   context_ + ": duplicate property '" + kv.key + "'",
                   "first given at " + std::to_string(it->second.span.line) +
                       ":" + std::to_string(it->second.span.column));
    }
  }
}

std::optional<double> Properties::require(const std::string& key,
                                          SourceSpan missing_span) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    diags_.error(codes::kMissingProperty, missing_span,
                 context_ + ": missing required property '" + key + "'");
    return std::nullopt;
  }
  it->second.used = true;
  return it->second.value;
}

std::optional<double> Properties::get(const std::string& key,
                                      double fallback) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    return fallback;
  }
  it->second.used = true;
  return it->second.value;
}

void Properties::reject_unknown() {
  for (const auto& [key, entry] : entries_) {
    if (!entry.used) {
      diags_.error(codes::kUnknownProperty, entry.span,
                   context_ + ": unknown property '" + key + "'");
    }
  }
}

}  // namespace

const Machine& CompiledProgram::machine(std::string_view name) const {
  for (const Machine& m : machines) {
    if (m.name == name) {
      return m;
    }
  }
  throw SemanticError("no machine named '" + std::string(name) + "'");
}

const ModelSpec& CompiledProgram::model(std::string_view name) const {
  for (const ModelSpec& m : models) {
    if (m.name == name) {
      return m;
    }
  }
  throw SemanticError("no model named '" + std::string(name) + "'");
}

CompiledProgram analyze(const Program& program, DiagnosticEngine& diags) {
  const obs::ScopedSpan span("dsl.analyze");
  return Analyzer(program, diags).run();
}

CompiledProgram analyze(const Program& program) {
  DiagnosticEngine diags;
  CompiledProgram out = analyze(program, diags);
  if (const Diagnostic* first = diags.first_error()) {
    std::string message = first->message + " [" + first->code + "]";
    if (first->span.line > 0) {
      message += " at " + std::to_string(first->span.line) + ":" +
                 std::to_string(first->span.column);
    }
    throw SemanticError(std::move(message), first->span.line,
                        first->span.column);
  }
  return out;
}

CompiledProgram compile(std::string_view source) {
  return analyze(parse(source));
}

CompiledProgram compile_file(const std::string& path) {
  return compile(read_model_file(path));
}

FrontEnd parse_and_analyze(std::string_view source, DiagnosticEngine& diags) {
  FrontEnd out;
  try {
    out.ast = parse(source);
  } catch (const ParseError& err) {
    // Strip the "parse error at L:C: " prefix; the span carries the
    // location already.
    const std::string prefix = "parse error at " +
                               std::to_string(err.line()) + ":" +
                               std::to_string(err.column()) + ": ";
    std::string message = err.what();
    if (message.rfind(prefix, 0) == 0) {
      message = message.substr(prefix.size());
    }
    // Lexer errors that map to a specific catalog entry (e.g. DVF-E018
    // numeric overflow) carry their code and span width; generic syntax
    // errors fall back to kSyntax with a one-character span.
    const char* code = err.code() != nullptr ? err.code() : codes::kSyntax;
    diags.error(code, {err.line(), err.column(), err.length()},
                std::move(message));
    return out;
  }
  out.program = analyze(*out.ast, diags);
  return out;
}

std::string read_model_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw Error("cannot open model file: " + path);
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

}  // namespace dvf::dsl
