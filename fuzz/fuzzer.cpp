#include "dvf/fuzz/fuzzer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "dvf/analysis/bounds.hpp"
#include "dvf/cachesim/cache_simulator.hpp"
#include "dvf/common/budget.hpp"
#include "dvf/common/error.hpp"
#include "dvf/common/failpoint.hpp"
#include "dvf/common/math.hpp"
#include "dvf/common/result.hpp"
#include "dvf/common/rng.hpp"
#include "dvf/dsl/analysis.hpp"
#include "dvf/dsl/analyzer.hpp"
#include "dvf/dsl/diagnostics.hpp"
#include "dvf/dsl/lint.hpp"
#include "dvf/dsl/parser.hpp"
#include "dvf/dsl/printer.hpp"
#include "dvf/dsl/template_expander.hpp"
#include "dvf/dvf/calculator.hpp"
#include "dvf/kernels/injection_campaign.hpp"
#include "dvf/kernels/campaign_journal.hpp"
#include "dvf/kernels/suite.hpp"
#include "dvf/kernels/vm.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/machine/machine.hpp"
#include "dvf/patterns/estimate.hpp"
#include "dvf/patterns/random.hpp"
#include "dvf/patterns/reuse.hpp"
#include "dvf/patterns/streaming.hpp"
#include "dvf/patterns/template_access.hpp"
#include "dvf/patterns/tiled.hpp"
#include "dvf/serve/engine.hpp"
#include "dvf/serve/json.hpp"
#include "dvf/serve/protocol.hpp"
#include "dvf/trace/trace_io.hpp"

namespace dvf::fuzz {
namespace {

// ---- shared plumbing ------------------------------------------------------

/// Wall-clock box for one target run (0 = unbounded).
class TimeBox {
 public:
  explicit TimeBox(double seconds) {
    if (seconds > 0.0) {
      deadline_ = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(seconds));
      armed_ = true;
    }
  }
  [[nodiscard]] bool expired() const {
    return armed_ && std::chrono::steady_clock::now() >= deadline_;
  }

 private:
  std::chrono::steady_clock::time_point deadline_{};
  bool armed_ = false;
};

void record(FuzzReport& report, const FuzzOptions& options,
            std::string finding) {
  if (options.verbose) {
    std::cerr << "fuzz finding: " << finding << "\n";
  }
  report.findings.push_back(std::move(finding));
}

std::vector<std::string> load_corpus(const std::string& dir) {
  std::vector<std::string> sources;
  if (dir.empty()) {
    return sources;
  }
  std::error_code ec;
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".aspen") {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());  // deterministic corpus order
  for (const auto& path : paths) {
    std::ifstream in(path);
    std::ostringstream contents;
    contents << in.rdbuf();
    sources.push_back(std::move(contents).str());
  }
  return sources;
}

/// Per-case guardrails: tight enough that a runaway evaluation turns into a
/// classified resource_limit / deadline_exceeded error within milliseconds
/// instead of stalling the harness.
EvalLimits case_limits() {
  EvalLimits limits;
  limits.max_references = std::uint64_t{1} << 20;
  limits.max_expansion = std::uint64_t{1} << 18;
  limits.wall_seconds = 0.25;
  return limits;
}

CacheConfig cache8k() { return {"c8k", 4, 64, 32}; }

CacheConfig random_cache(Xoshiro256& rng) {
  static constexpr std::uint32_t kAssoc[] = {1, 2, 4, 8, 16};
  static constexpr std::uint32_t kSets[] = {1, 16, 64, 256, 1024};
  static constexpr std::uint32_t kLines[] = {16, 32, 64, 128};
  return {"fuzz", kAssoc[rng.below(5)], kSets[rng.below(5)],
          kLines[rng.below(4)]};
}

// ---- roundtrip target -----------------------------------------------------

std::string random_number_literal(Xoshiro256& rng) {
  switch (rng.below(9)) {
    case 0: return std::to_string(rng.below(10));
    case 1: return std::to_string(rng.below(std::uint64_t{1} << 20));
    case 2: return "4611686018427387904";  // 2^62
    case 3: return "1e999";                // overflows: DVF-E018 path
    case 4: return "1.5e-3";
    case 5: return std::to_string(1 + rng.below(64)) + "KB";
    case 6: return "0";
    case 7: return std::to_string(rng.below(8)) + "." +
                   std::to_string(rng.below(100));
    default: return std::to_string(1 + rng.below(4096));
  }
}

std::string random_name(Xoshiro256& rng) {
  static const char* const kNames[] = {"A", "B",    "C",   "grid", "tree",
                                       "n", "elem", "tmp", "x1",   "share"};
  return kNames[rng.below(10)];
}

std::string random_expr(Xoshiro256& rng, int depth) {
  if (depth <= 0 || rng.below(2) == 0) {
    return rng.below(4) == 0 ? random_name(rng) : random_number_literal(rng);
  }
  static const char kOps[] = {'+', '-', '*', '/', '%', '^'};
  std::string expr = random_expr(rng, depth - 1);
  expr += ' ';
  expr += kOps[rng.below(6)];
  expr += ' ';
  expr += random_expr(rng, depth - 1);
  return rng.below(3) == 0 ? "(" + expr + ")" : expr;
}

void append_pattern(std::string& out, const std::string& data,
                    Xoshiro256& rng) {
  static const char* const kKinds[] = {"stream", "random", "template",
                                       "reuse",  "tiled",  "stream", "banana"};
  const std::string kind = kKinds[rng.below(7)];
  out += "  pattern " + data + " " + kind + " { ";
  if (kind == "stream") {
    out += "stride " + random_expr(rng, 1) + "; ";
    if (rng.below(2) == 0) out += "repeat " + random_number_literal(rng) + "; ";
  } else if (kind == "random") {
    out += "visits " + random_expr(rng, 1) + "; ";
    out += "iterations " + random_number_literal(rng) + "; ";
    if (rng.below(2) == 0) out += "ratio 0." + std::to_string(rng.below(10)) + "; ";
  } else if (kind == "template") {
    out += "start (" + random_number_literal(rng);
    for (std::uint64_t i = rng.below(3); i > 0; --i) {
      out += ", " + random_number_literal(rng);
    }
    out += "); step " + random_number_literal(rng) + "; ";
    out += "count " + random_number_literal(rng) + "; ";
  } else if (kind == "reuse") {
    out += "rounds " + random_number_literal(rng) + "; ";
    if (rng.below(2) == 0) {
      out += "other_bytes " + random_number_literal(rng) + "; ";
    }
  } else if (kind == "tiled") {
    out += "tile (" + random_number_literal(rng) + ", " +
           random_number_literal(rng) + "); ";
    out += "rows " + random_expr(rng, 1) + "; ";
    if (rng.below(2) == 0) out += "cols " + random_number_literal(rng) + "; ";
    if (rng.below(2) == 0) out += "passes " + random_number_literal(rng) + "; ";
    if (rng.below(3) == 0) {
      out += "intra_reuse " + random_number_literal(rng) + "; ";
    }
    if (rng.below(3) == 0) {
      out += "ratio 0." + std::to_string(rng.below(10)) + "; ";
    }
  } else {
    out += random_name(rng) + " " + random_number_literal(rng) + "; ";
  }
  out += "}\n";
}

std::string generate_program(Xoshiro256& rng) {
  std::string out;
  for (std::uint64_t i = rng.below(4); i > 0; --i) {
    out += "param " + random_name(rng) + " = " + random_expr(rng, 2) + ";\n";
  }
  for (std::uint64_t i = rng.below(3); i > 0; --i) {
    out += "machine \"m" + std::to_string(i) + "\" {\n";
    out += "  cache { associativity " + random_number_literal(rng) +
           "; sets " + random_number_literal(rng) + "; line " +
           random_number_literal(rng) + "; }\n";
    if (rng.below(3) == 0) {
      out += "  memory { ecc \"chipkill\"; }\n";
    } else {
      out += "  memory { fit " + random_expr(rng, 1) + "; }\n";
    }
    out += "}\n";
  }
  for (std::uint64_t i = 1 + rng.below(2); i > 0; --i) {
    out += "model \"M" + std::to_string(i) + "\" {\n";
    if (rng.below(4) != 0) {
      out += "  time " + random_number_literal(rng) + ";\n";
    }
    for (std::uint64_t d = 1 + rng.below(3); d > 0; --d) {
      const std::string data = random_name(rng);
      out += "  data " + data + " { elements " + random_expr(rng, 1) +
             "; element_size " + random_number_literal(rng) + "; }\n";
      append_pattern(out, data, rng);
    }
    out += "}\n";
  }
  return out;
}

std::string mutate(std::string source, Xoshiro256& rng) {
  static const char kAlphabet[] =
      "{}();=,*/+-%^\"0123456789e.KMGB \nparmodeltis";
  const std::uint64_t edits = 1 + rng.below(8);
  for (std::uint64_t i = 0; i < edits && !source.empty(); ++i) {
    const std::size_t at = rng.below(source.size());
    switch (rng.below(5)) {
      case 0:  // flip a byte
        source[at] = kAlphabet[rng.below(sizeof(kAlphabet) - 1)];
        break;
      case 1:  // insert a byte
        source.insert(at, 1, kAlphabet[rng.below(sizeof(kAlphabet) - 1)]);
        break;
      case 2: {  // delete a short span
        const std::size_t len =
            std::min<std::size_t>(1 + rng.below(16), source.size() - at);
        source.erase(at, len);
        break;
      }
      case 3: {  // duplicate a short span
        const std::size_t len =
            std::min<std::size_t>(1 + rng.below(16), source.size() - at);
        source.insert(at, source.substr(at, len));
        break;
      }
      default:  // truncate
        source.resize(at);
        break;
    }
  }
  return source;
}

/// Evaluates every machine × model combination of a compiled program under
/// the per-case guardrails: the analytical pipeline must produce either a
/// finite DVF or a classified error, never an exception or silent NaN.
void check_compiled_totality(const dsl::CompiledProgram& compiled,
                             const std::string& label, FuzzReport& report,
                             const FuzzOptions& options) {
  for (const auto& machine : compiled.machines) {
    EvalBudget budget(case_limits());
    DvfCalculator calc(machine);
    calc.set_budget(&budget);
    for (const auto& model : compiled.models) {
      const Result<ApplicationDvf> result = calc.try_for_model(model);
      if (result.ok() && !std::isfinite(result.value().total)) {
        record(report, options,
               label + ": model '" + model.name + "' on machine '" +
                   machine.name + "' produced unclassified non-finite DVF");
      }
      budget.reset();
    }
  }
}

void check_roundtrip(const std::string& source, const std::string& label,
                     FuzzReport& report, const FuzzOptions& options) {
  dsl::Program ast;
  try {
    ast = dsl::parse(source);
  } catch (const ParseError& err) {
    // Classified rejection; the position must still make sense.
    if (err.line() < 1 || err.column() < 1 || err.length() < 1) {
      record(report, options,
             label + ": ParseError with invalid span " +
                 std::to_string(err.line()) + ":" +
                 std::to_string(err.column()) + ":" +
                 std::to_string(err.length()) + " (" + err.what() + ")");
    }
    return;
  } catch (const std::exception& err) {
    record(report, options,
           label + ": parse threw non-ParseError: " + err.what());
    return;
  }

  std::string once;
  std::string twice;
  try {
    once = dsl::print(ast);
    twice = dsl::print(dsl::parse(once));
  } catch (const std::exception& err) {
    record(report, options,
           label + ": canonical print does not re-parse: " + err.what());
    return;
  }
  if (once != twice) {
    record(report, options, label + ": printer fixpoint violated");
    return;
  }

  try {
    dsl::DiagnosticEngine diags;
    const dsl::CompiledProgram compiled = dsl::analyze(ast, diags);
    check_compiled_totality(compiled, label, report, options);
  } catch (const std::exception& err) {
    record(report, options,
           label + ": diagnostic analyze threw: " + err.what());
  }
}

// ---- eval target ----------------------------------------------------------

double adversarial_double(Xoshiro256& rng) {
  switch (rng.below(12)) {
    case 0: return 0.0;
    case 1: return -1.0;
    case 2: return 1.0;
    case 3: return std::numeric_limits<double>::quiet_NaN();
    case 4: return std::numeric_limits<double>::infinity();
    case 5: return -std::numeric_limits<double>::infinity();
    case 6: return 1e308;
    case 7: return 1e-308;
    case 8: return 4.6e18;  // ~2^62
    case 9: return -0.0;
    case 10: return rng.uniform() * 1000.0;
    default: return rng.uniform();
  }
}

std::uint64_t adversarial_u64(Xoshiro256& rng) {
  switch (rng.below(9)) {
    case 0: return 0;
    case 1: return 1;
    case 2: return 2;
    case 3: return rng.below(1024);
    case 4: return std::uint64_t{1} << 20;
    case 5: return std::uint64_t{1} << 40;
    case 6: return std::uint64_t{1} << 62;
    case 7: return ~std::uint64_t{0};
    default: return rng.below(std::uint64_t{1} << 30);
  }
}

std::uint32_t adversarial_u32(Xoshiro256& rng) {
  switch (rng.below(6)) {
    case 0: return 0;
    case 1: return 1;
    case 2: return 8;
    case 3: return 32;
    case 4: return static_cast<std::uint32_t>(rng.below(4096));
    default: return ~std::uint32_t{0};
  }
}

PatternSpec adversarial_spec(Xoshiro256& rng) {
  switch (rng.below(5)) {
    case 0: {
      StreamingSpec s;
      s.element_bytes = adversarial_u32(rng);
      s.element_count = adversarial_u64(rng);
      s.stride_elements = adversarial_u64(rng);
      return s;
    }
    case 1: {
      RandomSpec s;
      s.element_count = adversarial_u64(rng);
      s.element_bytes = adversarial_u32(rng);
      s.visits_per_iteration = adversarial_double(rng);
      s.iterations = adversarial_u64(rng);
      s.cache_ratio = adversarial_double(rng);
      if (rng.below(3) == 0) {
        for (std::uint64_t i = rng.below(8); i > 0; --i) {
          s.sorted_visit_fractions.push_back(adversarial_double(rng));
        }
      }
      return s;
    }
    case 2: {
      TemplateSpec s;
      s.element_bytes = adversarial_u32(rng);
      s.repetitions = adversarial_u64(rng);
      s.cache_ratio = adversarial_double(rng);
      s.distance = rng.below(2) == 0 ? DistanceKind::kStack : DistanceKind::kRaw;
      for (std::uint64_t i = rng.below(64); i > 0; --i) {
        s.element_indices.push_back(adversarial_u64(rng));
      }
      return s;
    }
    case 3: {
      TiledSpec s;
      s.element_bytes = adversarial_u32(rng);
      s.rows = adversarial_u64(rng);
      s.cols = adversarial_u64(rng);
      s.tile_rows = adversarial_u64(rng);
      s.tile_cols = adversarial_u64(rng);
      s.intra_reuse = adversarial_u64(rng);
      s.passes = adversarial_u64(rng);
      s.cache_ratio = adversarial_double(rng);
      return s;
    }
    default: {
      ReuseSpec s;
      s.self_bytes = adversarial_u64(rng);
      s.other_bytes = adversarial_u64(rng);
      s.reuse_rounds = adversarial_u64(rng);
      s.scenario = static_cast<ReuseScenario>(rng.below(3));
      s.occupancy = rng.below(2) == 0 ? ReuseOccupancy::kBernoulli
                                      : ReuseOccupancy::kContiguous;
      return s;
    }
  }
}

/// A Result is well-formed when ok with a finite non-negative value, or an
/// error with a non-empty classified message.
template <typename Check>
void expect_total(const std::string& label, FuzzReport& report,
                  const FuzzOptions& options, Check&& check) {
  try {
    check();
  } catch (const std::exception& err) {
    record(report, options,
           label + ": total evaluator threw: " + std::string(err.what()));
  } catch (...) {
    record(report, options, label + ": total evaluator threw a non-exception");
  }
}

void check_eval_case(std::uint64_t index, Xoshiro256& rng, FuzzReport& report,
                     const FuzzOptions& options) {
  const std::string label = "[eval case " + std::to_string(index) + "]";
  const CacheConfig cache = random_cache(rng);
  EvalBudget budget(case_limits());

  switch (rng.below(3)) {
    case 0: {  // pattern evaluators
      const PatternSpec spec = adversarial_spec(rng);
      expect_total(label, report, options, [&] {
        const Result<double> result =
            try_estimate_accesses(spec, cache, &budget);
        if (result.ok()) {
          if (!std::isfinite(*result) || *result < 0.0) {
            std::ostringstream out;
            out << label << ": pattern '" << pattern_letter(spec)
                << "' estimate " << *result
                << " is unclassified non-finite/negative on "
                << cache.describe();
            record(report, options, out.str());
          }
        } else if (result.error().message.empty()) {
          record(report, options, label + ": classified error with no message");
        }
      });
      break;
    }
    case 1: {  // template-expansion guardrails
      std::vector<std::int64_t> start;
      for (std::uint64_t i = rng.below(6); i > 0; --i) {
        switch (rng.below(5)) {
          case 0: start.push_back(std::numeric_limits<std::int64_t>::min()); break;
          case 1: start.push_back(std::numeric_limits<std::int64_t>::max()); break;
          case 2: start.push_back(-static_cast<std::int64_t>(rng.below(100))); break;
          default: start.push_back(static_cast<std::int64_t>(rng.below(10000)));
        }
      }
      const std::int64_t step =
          rng.below(4) == 0 ? std::numeric_limits<std::int64_t>::max()
                            : static_cast<std::int64_t>(rng.below(100)) - 50;
      const std::uint64_t count = adversarial_u64(rng);
      expect_total(label, report, options, [&] {
        const auto result = dsl::try_expand_progression(
            std::span<const std::int64_t>(start), step, count, &budget);
        if (result.ok() &&
            result.value().size() > case_limits().max_expansion) {
          record(report, options, label + ": expansion exceeded its budget");
        }
      });
      break;
    }
    default: {  // full Eq. 1 pipeline with adversarial time and size
      DataStructureSpec ds;
      ds.name = "fuzz";
      ds.size_bytes = adversarial_u64(rng);
      ds.patterns.push_back(adversarial_spec(rng));
      const double time = adversarial_double(rng);
      expect_total(label, report, options, [&] {
        DvfCalculator calc(Machine::with_cache(cache));
        calc.set_budget(&budget);
        const Result<StructureDvf> result = calc.try_for_structure(ds, time);
        if (result.ok() && !std::isfinite(result.value().dvf)) {
          record(report, options,
                 label + ": structure DVF is unclassified non-finite");
        }
      });
      break;
    }
  }
}

// ---- differential oracle --------------------------------------------------

void oracle_finding(FuzzReport& report, const FuzzOptions& options,
                    const std::string& label, const char* pattern,
                    double predicted, double simulated, double tolerance) {
  std::ostringstream out;
  out.precision(12);
  out << label << ": " << pattern << " analytical estimate " << predicted
      << " vs simulated " << simulated << " exceeds tolerance " << tolerance;
  record(report, options, out.str());
}

void check_oracle_streaming(const std::string& label, Xoshiro256& rng,
                            FuzzReport& report, const FuzzOptions& options) {
  // The deterministic regimes of Eqs. 3-4: a contiguous traversal of
  // line-sized-or-larger elements, or a stride that stays within a cache
  // line, both predict exactly ceil(D/CL) compulsory misses. (The strided
  // E < CL < S regime is an expectation over random line alignment and has
  // no single simulated ground truth.) Counts are stride-aligned so the
  // traversal covers the whole footprint.
  StreamingSpec spec;
  if (rng.below(4) == 0) {
    spec.element_bytes = rng.below(2) == 0 ? 32 : 64;
    spec.stride_elements = 1;
    spec.element_count = 16 + rng.below(2048);
  } else {
    static constexpr std::uint32_t kBytes[] = {4, 8, 16};
    spec.element_bytes = kBytes[rng.below(3)];
    // Keep the stride strictly inside a 32-byte line (Eq. 4's case 3), and
    // end the traversal exactly at the footprint's last element so every
    // line of D is genuinely touched.
    const std::uint64_t max_stride = 31 / spec.element_bytes;
    spec.stride_elements = 1 + rng.below(max_stride);
    spec.element_count = spec.stride_elements * (16 + rng.below(2048)) + 1;
  }

  const CacheConfig cache = cache8k();
  CacheSimulator sim(cache);
  for (std::uint64_t e = 0; e < spec.element_count;
       e += spec.stride_elements) {
    sim.on_load(0, e * spec.element_bytes, spec.element_bytes);
  }
  const double predicted = try_estimate_streaming(spec, cache).value_or_throw();
  const double simulated = static_cast<double>(sim.stats(0).misses);
  if (math::relative_error(predicted, simulated) >
      kStreamingOracleTolerance + 1e-12) {
    oracle_finding(report, options, label, "streaming", predicted, simulated,
                   kStreamingOracleTolerance);
  }
}

void check_oracle_random(const std::string& label, Xoshiro256& rng,
                         FuzzReport& report, const FuzzOptions& options) {
  RandomSpec spec;
  spec.element_count = 200 + rng.below(1800);
  spec.element_bytes = rng.below(2) == 0 ? 16 : 32;
  const std::uint64_t visits =
      4 + rng.below(std::min<std::uint64_t>(36, spec.element_count / 8));
  spec.visits_per_iteration = static_cast<double>(visits);
  spec.iterations = 100 + rng.below(400);

  const CacheConfig cache = cache8k();
  CacheSimulator sim(cache);
  for (std::uint64_t e = 0; e < spec.element_count; ++e) {
    sim.on_load(0, e * spec.element_bytes, spec.element_bytes);
  }
  std::vector<std::uint64_t> picks(visits);
  for (std::uint64_t it = 0; it < spec.iterations; ++it) {
    for (std::uint64_t v = 0; v < visits; ++v) {
      std::uint64_t e;
      bool fresh;
      do {
        e = rng.below(spec.element_count);
        fresh = true;
        for (std::uint64_t w = 0; w < v; ++w) {
          fresh = fresh && picks[w] != e;
        }
      } while (!fresh);
      picks[v] = e;
      sim.on_load(0, e * spec.element_bytes, spec.element_bytes);
    }
  }
  const double predicted = try_estimate_random(spec, cache).value_or_throw();
  const double simulated = static_cast<double>(sim.stats(0).misses);
  if (math::relative_error(predicted, simulated) > kRandomOracleTolerance) {
    oracle_finding(report, options, label, "random", predicted, simulated,
                   kRandomOracleTolerance);
  }
}

void check_oracle_template(const std::string& label, Xoshiro256& rng,
                           FuzzReport& report, const FuzzOptions& options) {
  // Three regimes the stack-distance model covers on the 256-block
  // validation cache: repeated scans with stack distances clearly below or
  // above capacity (predicted exactly), arbitrary segment scans inside a
  // fitting working set (all hits after the compulsory load), and the
  // paper-style stencil sweep whose distances straddle the boundary (the
  // ±15% band). Distances *at* the capacity boundary depend on the exact
  // set mapping and are not a single-valued ground truth.
  TemplateSpec spec;
  switch (rng.below(3)) {
    case 0: {  // repeated full scan, away from the capacity boundary
      spec.element_bytes = 32;
      spec.repetitions = 1 + rng.below(5);
      const std::uint64_t blocks =
          rng.below(2) == 0 ? 16 + rng.below(180) : 320 + rng.below(2048);
      for (std::uint64_t i = 0; i < blocks; ++i) {
        spec.element_indices.push_back(i);
      }
      break;
    }
    case 1: {  // random segment scans inside a fitting working set
      spec.element_bytes = 32;
      spec.repetitions = 1 + rng.below(3);
      const std::uint64_t working_set = 16 + rng.below(112);  // <= 128 blocks
      for (std::uint64_t s = 1 + rng.below(6); s > 0; --s) {
        const std::uint64_t base = rng.below(working_set);
        const std::uint64_t length = 1 + rng.below(working_set - base);
        for (std::uint64_t i = 0; i < length; ++i) {
          spec.element_indices.push_back(base + i);
        }
      }
      break;
    }
    default: {  // 5-point stencil over a grid exceeding the cache
      spec.element_bytes = 8;
      spec.repetitions = 1 + rng.below(4);
      const std::uint64_t n = 48 + 16 * rng.below(4);  // 48..96
      for (std::uint64_t i = 1; i + 1 < n; ++i) {
        for (std::uint64_t j = 1; j + 1 < n; ++j) {
          const std::uint64_t center = i * n + j;
          spec.element_indices.push_back(center - 1);
          spec.element_indices.push_back(center + 1);
          spec.element_indices.push_back(center - n);
          spec.element_indices.push_back(center + n);
          spec.element_indices.push_back(center);
        }
      }
      break;
    }
  }

  const CacheConfig cache = cache8k();
  CacheSimulator sim(cache);
  for (std::uint64_t rep = 0; rep < spec.repetitions; ++rep) {
    for (const std::uint64_t idx : spec.element_indices) {
      sim.on_load(0, idx * spec.element_bytes, spec.element_bytes);
    }
  }
  const double predicted = try_estimate_template(spec, cache).value_or_throw();
  const double simulated = static_cast<double>(sim.stats(0).misses);
  if (math::relative_error(predicted, simulated) > kTemplateOracleTolerance) {
    oracle_finding(report, options, label, "template", predicted, simulated,
                   kTemplateOracleTolerance);
  }
}

void check_oracle_reuse(const std::string& label, Xoshiro256& rng,
                        FuzzReport& report, const FuzzOptions& options) {
  // The interference regimes Eqs. 8-15 are validated in (the Fig. 4 band):
  // everything fits together, the interferer flushes the target every
  // round, or the target alone exceeds the cache. Partial interference
  // near the capacity boundary deviates beyond the band and is excluded
  // (docs/resilience.md documents the oracle's regimes).
  ReuseSpec spec;
  switch (rng.below(3)) {
    case 0:  // both fit: one compulsory load
      spec.self_bytes = 8 * (32 + rng.below(352));    // 256 B – 3 KiB
      spec.other_bytes = 8 * rng.below(128);          // <= 1 KiB
      break;
    case 1:  // interferer flushes the target every round
      spec.self_bytes = 8 * (128 + rng.below(896));   // 1 – 8 KiB
      spec.other_bytes = 65536 + 8 * rng.below(24576);  // 64 – 256 KiB
      break;
    default:  // the target alone far exceeds the cache
      // At 4-6x the cache the LRU scan pathology (a cyclic scan keeps zero
      // survivors) puts the survivor model's error just past the band;
      // from 8x up the compulsory traffic dominates and the band holds.
      spec.self_bytes = 65536 + 8 * rng.below(4096);  // 64 – 96 KiB
      spec.other_bytes = rng.below(2) == 0 ? 0 : 65536 + 8 * rng.below(8192);
      break;
  }
  spec.reuse_rounds = 1 + rng.below(10);
  spec.occupancy = ReuseOccupancy::kContiguous;

  const CacheConfig cache = cache8k();
  CacheSimulator sim(cache);
  const auto traverse = [&](DsId ds, std::uint64_t base, std::uint64_t bytes) {
    for (std::uint64_t offset = 0; offset < bytes; offset += 8) {
      sim.on_load(ds, base + offset, 8);
    }
  };
  traverse(0, 0, spec.self_bytes);
  for (std::uint64_t round = 0; round < spec.reuse_rounds; ++round) {
    if (spec.other_bytes > 0) {
      traverse(1, std::uint64_t{1} << 26, spec.other_bytes);
    }
    traverse(0, 0, spec.self_bytes);
  }
  const double predicted = try_estimate_reuse(spec, cache).value_or_throw();
  const double simulated = static_cast<double>(sim.stats(0).misses);
  if (math::relative_error(predicted, simulated) > kReuseOracleTolerance) {
    oracle_finding(report, options,
                   label + " self=" + std::to_string(spec.self_bytes) +
                       " other=" + std::to_string(spec.other_bytes) +
                       " rounds=" + std::to_string(spec.reuse_rounds),
                   "reuse", predicted, simulated, kReuseOracleTolerance);
  }
}

void check_oracle_tiled(const std::string& label, Xoshiro256& rng,
                        FuzzReport& report, const FuzzOptions& options) {
  // The three closed-form regimes of the tiled model, each kept away from
  // the capacity boundary (docs/resilience.md "Differential oracle"):
  // the whole matrix fits (compulsory misses only), a small tile sweeping
  // a matrix several times the cache (each pass re-streams the footprint,
  // intra-tile re-reads hit), and a single tile that itself exceeds the
  // cache (the LRU cyclic-scan pathology: every sweep misses fully). Tile
  // widths are line-aligned (tc * 8 a multiple of the 32-byte line) and
  // column counts stay below 256 so row strides never alias whole sets.
  TiledSpec spec;
  spec.element_bytes = 8;
  std::uint64_t tiles_r = 1;
  std::uint64_t tiles_c = 1;
  switch (rng.below(3)) {
    case 0: {  // matrix fits in half the 8 KiB cache
      spec.tile_rows = 1 + rng.below(4);          // 1..4
      spec.tile_cols = 4 * (1 + rng.below(3));    // 4, 8, 12
      tiles_r = 1 + rng.below(3);
      tiles_c = 1 + rng.below(2);
      spec.passes = 1 + rng.below(2);
      spec.intra_reuse = rng.below(3);
      break;
    }
    case 1: {  // cache-fitting tile, matrix >= 4x the cache
      spec.tile_rows = 2 + rng.below(7);          // 2..8
      spec.tile_cols = 4 * (1 + rng.below(4));    // 4..16
      tiles_c = 4 + rng.below(8);                 // cols 16..176 (< 256)
      const std::uint64_t cols = spec.tile_cols * tiles_c;
      const std::uint64_t min_rows = 4096 / cols + 1;  // footprint > 32 KiB
      tiles_r = min_rows / spec.tile_rows + 1 + rng.below(3);
      spec.passes = 1 + rng.below(2);
      spec.intra_reuse = rng.below(3);
      break;
    }
    default: {  // one whole-matrix tile >= 2x the cache
      spec.tile_rows = 32 + rng.below(33);          // 32..64
      spec.tile_cols = 4 * (16 + rng.below(16));    // 64..124 (< 256)
      spec.passes = 1 + rng.below(2);
      spec.intra_reuse = rng.below(3);
      break;
    }
  }
  spec.rows = spec.tile_rows * tiles_r;
  spec.cols = spec.tile_cols * tiles_c;

  const CacheConfig cache = cache8k();
  CacheSimulator sim(cache);
  for (std::uint64_t pass = 0; pass < spec.passes; ++pass) {
    for (std::uint64_t bi = 0; bi < tiles_r; ++bi) {
      for (std::uint64_t bj = 0; bj < tiles_c; ++bj) {
        for (std::uint64_t sweep = 0; sweep <= spec.intra_reuse; ++sweep) {
          for (std::uint64_t r = 0; r < spec.tile_rows; ++r) {
            const std::uint64_t row = bi * spec.tile_rows + r;
            for (std::uint64_t c = 0; c < spec.tile_cols; ++c) {
              const std::uint64_t col = bj * spec.tile_cols + c;
              sim.on_load(0, (row * spec.cols + col) * 8, 8);
            }
          }
        }
      }
    }
  }
  const double predicted = try_estimate_tiled(spec, cache).value_or_throw();
  const double simulated = static_cast<double>(sim.stats(0).misses);
  if (math::relative_error(predicted, simulated) > kTiledOracleTolerance) {
    oracle_finding(report, options,
                   label + " rows=" + std::to_string(spec.rows) +
                       " cols=" + std::to_string(spec.cols) + " tile=" +
                       std::to_string(spec.tile_rows) + "x" +
                       std::to_string(spec.tile_cols) +
                       " passes=" + std::to_string(spec.passes) +
                       " intra=" + std::to_string(spec.intra_reuse),
                   "tiled", predicted, simulated, kTiledOracleTolerance);
  }
}

// ---- analyze target -------------------------------------------------------

/// An interval the analysis may legitimately report: a finite non-negative
/// lower bound, no NaN endpoint, and lo <= hi (hi = +inf is "unbounded").
bool interval_well_formed(const analysis::Interval& iv) {
  return std::isfinite(iv.lo) && iv.lo >= 0.0 && !std::isnan(iv.hi) &&
         iv.hi >= iv.lo;
}

void check_report_intervals(const analysis::AnalysisReport& bounds,
                            const std::string& label, FuzzReport& report,
                            const FuzzOptions& options) {
  const auto bad = [&](const std::string& what, const analysis::Interval& iv) {
    std::ostringstream out;
    out.precision(17);
    out << label << ": " << what << " interval [" << iv.lo << ", " << iv.hi
        << "] is malformed";
    record(report, options, out.str());
  };
  for (const analysis::ModelBounds& model : bounds.models) {
    if (!interval_well_formed(model.dvf)) {
      bad("model '" + model.name + "' DVF", model.dvf);
    }
    for (const auto& pm : model.per_machine) {
      if (!interval_well_formed(pm.dvf)) {
        bad("model '" + model.name + "' per-machine DVF", pm.dvf);
      }
    }
    for (const analysis::StructureBounds& ds : model.structures) {
      if (!interval_well_formed(ds.n_ha) || !interval_well_formed(ds.dvf)) {
        bad("structure '" + ds.name + "' hull", ds.n_ha);
      }
      for (const auto& pm : ds.per_machine) {
        if (!interval_well_formed(pm.n_ha) || !interval_well_formed(pm.dvf)) {
          bad("structure '" + ds.name + "' per-machine", pm.n_ha);
        }
      }
    }
  }
}

/// Differential soundness: wherever the evaluator succeeds, its value must
/// lie inside the analysis interval, and a structure the analysis claims
/// provably rejects must never evaluate successfully (provable rejection is
/// a for-every-budget statement).
void check_analysis_soundness(const dsl::CompiledProgram& program,
                              const analysis::AnalysisReport& bounds,
                              const std::string& label, FuzzReport& report,
                              const FuzzOptions& options) {
  for (std::size_t m = 0; m < program.machines.size(); ++m) {
    const Machine& machine = program.machines[m];
    EvalBudget budget(case_limits());
    for (const ModelSpec& model : program.models) {
      const analysis::ModelBounds* mb = bounds.find_model(model.name);
      if (mb == nullptr) {
        record(report, options,
               label + ": compiled model '" + model.name +
                   "' missing from the analysis report");
        continue;
      }
      for (const DataStructureSpec& ds : model.structures) {
        const analysis::StructureBounds* sb = nullptr;
        for (const analysis::StructureBounds& cand : mb->structures) {
          if (cand.name == ds.name) {
            sb = &cand;
          }
        }
        if (sb == nullptr || m >= sb->per_machine.size()) {
          record(report, options,
                 label + ": structure '" + ds.name +
                     "' missing from the analysis report");
          continue;
        }
        budget.reset();
        const Result<double> n_ha = try_estimate_accesses(
            std::span<const PatternSpec>(ds.patterns), machine.llc, &budget);
        if (!n_ha.ok()) {
          continue;  // budget- or domain-classified; nothing to contain
        }
        if (sb->per_machine[m].eval_rejects) {
          record(report, options,
                 label + ": analysis claims '" + ds.name + "' on machine '" +
                     machine.name +
                     "' provably rejects, but the evaluator succeeded");
          continue;
        }
        if (std::isfinite(*n_ha) && !sb->per_machine[m].n_ha.contains(*n_ha)) {
          std::ostringstream out;
          out.precision(17);
          out << label << ": N_ha " << *n_ha << " of '" << ds.name
              << "' on machine '" << machine.name << "' escapes bound ["
              << sb->per_machine[m].n_ha.lo << ", "
              << sb->per_machine[m].n_ha.hi << "]";
          record(report, options, out.str());
        }
      }
      if (model.exec_time_seconds.has_value() &&
          m < mb->per_machine.size()) {
        budget.reset();
        DvfCalculator calc(machine);
        calc.set_budget(&budget);
        const Result<ApplicationDvf> result = calc.try_for_model(model);
        if (result.ok() && std::isfinite(result.value().total) &&
            !mb->per_machine[m].dvf.contains(result.value().total)) {
          std::ostringstream out;
          out.precision(17);
          out << label << ": application DVF " << result.value().total
              << " of model '" << model.name << "' on machine '"
              << machine.name << "' escapes bound ["
              << mb->per_machine[m].dvf.lo << ", " << mb->per_machine[m].dvf.hi
              << "]";
          record(report, options, out.str());
        }
      }
    }
  }
}

/// lint() shares analyze_models' front end and only adds findings: it must
/// not throw, and every error analyze_models reports (code and span) must be
/// among lint's diagnostics.
void check_lint_keeps_errors(const std::string& source,
                             const dsl::SemanticAnalysis& analyzed,
                             const std::string& label, FuzzReport& report,
                             const FuzzOptions& options) {
  dsl::LintResult linted;
  try {
    linted = dsl::lint(source);
  } catch (const std::exception& err) {
    record(report, options, label + ": lint threw: " + std::string(err.what()));
    return;
  } catch (...) {
    record(report, options, label + ": lint threw a non-exception");
    return;
  }
  for (const dsl::Diagnostic& error : analyzed.diagnostics) {
    if (error.severity != dsl::Severity::kError) {
      continue;
    }
    const bool kept = std::any_of(
        linted.diagnostics.begin(), linted.diagnostics.end(),
        [&](const dsl::Diagnostic& d) {
          return d.code == error.code && d.span.line == error.span.line &&
                 d.span.column == error.span.column &&
                 d.span.length == error.span.length;
        });
    if (!kept) {
      record(report, options,
             label + ": lint drops " + error.code + " at " +
                 std::to_string(error.span.line) + ":" +
                 std::to_string(error.span.column));
    }
  }
}

void check_analyze_case(const std::string& source, const std::string& label,
                        FuzzReport& report, const FuzzOptions& options) {
  dsl::SemanticAnalysis first;
  try {
    first = dsl::analyze_models(source);
  } catch (const std::exception& err) {
    record(report, options,
           label + ": analyze_models threw: " + std::string(err.what()));
    return;
  } catch (...) {
    record(report, options, label + ": analyze_models threw a non-exception");
    return;
  }
  check_lint_keeps_errors(source, first, label, report, options);
  if (!first.report.has_value()) {
    return;  // unparseable: rejected through diagnostics, nothing to bound
  }
  const analysis::AnalysisReport& bounds = *first.report;
  check_report_intervals(bounds, label, report, options);

  try {
    // Hash determinism: a re-run must agree bit-for-bit.
    const dsl::SemanticAnalysis second = dsl::analyze_models(source);
    if (!second.report.has_value() ||
        second.report->canonical_hash != bounds.canonical_hash) {
      record(report, options, label + ": canonical hash differs across runs");
    }
  } catch (const std::exception& err) {
    record(report, options,
           label + ": deterministic re-analysis threw: " +
               std::string(err.what()));
  }

  check_analysis_soundness(first.program, bounds, label, report, options);
}

// ---- trace target ---------------------------------------------------------

/// Random structure table: short names, arbitrary extents. Built directly
/// (not via DataStructureRegistry) so the fuzzer can exercise degenerate
/// element sizes the registry would reject.
std::vector<DataStructureInfo> random_structures(Xoshiro256& rng) {
  const std::size_t count = rng.below(5);
  std::vector<DataStructureInfo> structures;
  structures.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    DataStructureInfo info;
    info.name = "s" + std::to_string(i) + std::string(rng.below(8), 'x');
    info.base_address = rng();
    info.size_bytes = rng.below(std::uint64_t{1} << 30);
    info.element_bytes = static_cast<std::uint32_t>(rng.below(64));
    structures.push_back(std::move(info));
  }
  return structures;
}

/// Adversarial record streams: random 64-bit jumps (including wraparound
/// near ~0), run-friendly constant strides, negative deltas, zero sizes,
/// unattributed records.
std::vector<MemoryRecord> random_trace_records(Xoshiro256& rng,
                                               std::size_t n_structures) {
  const std::uint64_t count = rng.below(600);
  std::vector<MemoryRecord> records;
  records.reserve(static_cast<std::size_t>(count));
  std::uint64_t addr = rng();
  std::uint32_t size = 8;
  for (std::uint64_t i = 0; i < count; ++i) {
    switch (rng.below(5)) {
      case 0: addr = rng(); break;                    // arbitrary jump
      case 1: addr += size; break;                    // run-friendly stride
      case 2: addr -= 16; break;                      // negative delta
      case 3: addr += rng.below(1u << 12); break;
      default: break;                                 // repeat (delta 0)
    }
    if (rng.below(4) == 0) {
      static constexpr std::uint32_t kSizes[] = {0, 1, 2, 4, 8, 64, 4096};
      size = kSizes[rng.below(7)];
    }
    const DsId ds = n_structures > 0 && rng.below(4) != 0
                        ? static_cast<DsId>(rng.below(n_structures))
                        : kNoDs;
    records.push_back({addr, size, ds, rng.below(2) == 0});
  }
  return records;
}

std::string serialize_trace(const std::vector<DataStructureInfo>& structures,
                            const std::vector<MemoryRecord>& records) {
  std::stringstream stream;
  write_trace(stream, std::span<const DataStructureInfo>(structures),
              std::span<const MemoryRecord>(records));
  return stream.str();
}

/// records → bytes → records must be the identity and re-encoding must be a
/// byte fixpoint.
void check_trace_roundtrip(const std::string& label, Xoshiro256& rng,
                           FuzzReport& report, const FuzzOptions& options) {
  const auto structures = random_structures(rng);
  const auto records = random_trace_records(rng, structures.size());
  const std::string bytes = serialize_trace(structures, records);
  std::stringstream in(bytes);
  const TraceFile decoded = read_trace(in);
  if (decoded.records != records) {
    record(report, options, label + ": decode is not the encoded stream");
    return;
  }
  if (decoded.structures.size() != structures.size()) {
    record(report, options, label + ": structure table changed size");
    return;
  }
  if (serialize_trace(decoded.structures, decoded.records) != bytes) {
    record(report, options, label + ": re-encode is not a byte fixpoint");
  }
}

/// Decode totality: a mutated or truncated byte stream must either decode
/// or raise a classified dvf::Error — never crash, loop, or throw anything
/// else (a bad_alloc here would mean a header field drove an unbounded
/// allocation).
void check_trace_totality(const std::string& label, std::string bytes,
                          Xoshiro256& rng, FuzzReport& report,
                          const FuzzOptions& options) {
  if (!bytes.empty()) {
    if (rng.below(3) == 0) {
      bytes.resize(rng.below(bytes.size()));  // truncate
    }
    const std::uint64_t flips = 1 + rng.below(8);
    for (std::uint64_t f = 0; f < flips && !bytes.empty(); ++f) {
      bytes[rng.below(bytes.size())] ^= static_cast<char>(1 + rng.below(255));
    }
  }
  try {
    std::stringstream in(bytes);
    const TraceFile decoded = read_trace(in);
    (void)decoded;
  } catch (const Error&) {
    // Classified rejection: exactly the contract.
  } catch (const std::exception& err) {
    record(report, options,
           label + ": mutated trace threw non-dvf error: " + err.what());
  }
}

std::vector<std::string> load_trace_corpus(const std::string& dir) {
  std::vector<std::string> traces;
  if (dir.empty()) {
    return traces;
  }
  std::error_code ec;
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".dvft") {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());  // deterministic corpus order
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream contents;
    contents << in.rdbuf();
    traces.push_back(std::move(contents).str());
  }
  return traces;
}

// ---- serve_proto target ---------------------------------------------------

/// Corpus frames: every line of every *.ndjson file in the corpus dir.
std::vector<std::string> load_ndjson_corpus(const std::string& dir) {
  std::vector<std::string> lines;
  if (dir.empty()) {
    return lines;
  }
  std::error_code ec;
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".ndjson") {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());  // deterministic corpus order
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    std::string line;
    while (std::getline(in, line)) {
      lines.push_back(line);
    }
  }
  return lines;
}

/// Tight engine guardrails, the serve analog of case_limits(): a hostile
/// frame degrades into a typed error within milliseconds.
serve::EngineConfig serve_case_config() {
  serve::EngineConfig config;
  config.cache_capacity = 8;
  config.max_request_bytes = 4096;
  config.default_deadline_s = 0.25;
  config.max_deadline_s = 0.25;
  config.max_references = std::uint64_t{1} << 20;
  config.max_expansion = std::uint64_t{1} << 18;
  config.span_drop_interval = 64;
  return config;
}

/// A structurally valid request frame around random content — the happy
/// paths the mutator then corrupts.
std::string random_request_frame(Xoshiro256& rng) {
  std::string out = "{";
  switch (rng.below(4)) {
    case 0: out += "\"id\":" + std::to_string(rng.below(1000)) + ","; break;
    case 1:
      out += "\"id\":\"req-" + std::to_string(rng.below(1000)) + "\",";
      break;
    case 2: out += "\"id\":null,"; break;
    default: break;  // no id
  }
  switch (rng.below(8)) {
    case 0: out += "\"op\":\"ping\""; break;
    case 1: out += "\"op\":\"metrics\""; break;
    case 2: out += "\"op\":\"restart\""; break;  // unknown op: bad_request
    case 3:  // hash-only eval; almost always unknown_hash
      out += "\"op\":\"eval\",\"hash\":\"" + serve::hash_hex(rng()) + "\"";
      break;
    default: {
      out += "\"op\":\"eval\",\"source\":" +
             serve::json_escape_string(generate_program(rng));
      if (rng.below(3) == 0) {
        out += ",\"deadline_s\":0.05";
      }
      if (rng.below(4) == 0) {
        out += ",\"exec_time_s\":" + std::to_string(rng.below(100)) + ".5";
      }
      if (rng.below(4) == 0) {
        out += ",\"model\":\"M1\"";
      }
      if (rng.below(4) == 0) {
        out += ",\"machine\":\"m1\"";
      }
      break;
    }
  }
  out += "}";
  return out;
}

bool known_wire_error_kind(const std::string& kind) {
  static const char* const kKinds[] = {
      serve::wire::kParseError,
      serve::wire::kBadRequest,
      serve::wire::kTooLarge,
      serve::wire::kModelError,
      serve::wire::kUnknownHash,
      serve::wire::kOverloaded,
      to_string(ErrorKind::kDomainError),
      to_string(ErrorKind::kOverflow),
      to_string(ErrorKind::kNonFinite),
      to_string(ErrorKind::kResourceLimit),
      to_string(ErrorKind::kDeadlineExceeded),
  };
  for (const char* known : kKinds) {
    if (kind == known) {
      return true;
    }
  }
  return false;
}

/// One frame through the engine: never throws, and the response is a JSON
/// object with boolean "ok", an "id", and on failure a known typed error
/// kind. `internal` counts as a finding — no input should reach the
/// engine's catch-all.
void check_serve_case(serve::Engine& engine, const std::string& input,
                      const std::string& label, FuzzReport& report,
                      const FuzzOptions& options) {
  std::string response;
  try {
    response = engine.handle_line(input);
  } catch (const std::exception& err) {
    record(report, options, label + ": handle_line threw: " + err.what());
    return;
  } catch (...) {
    record(report, options, label + ": handle_line threw a non-exception");
    return;
  }
  const bool blank =
      input.find_first_not_of(" \t\r\n") == std::string::npos;
  if (blank) {
    if (!response.empty()) {
      record(report, options, label + ": blank frame produced a response");
    }
    return;
  }
  if (response.empty()) {
    record(report, options, label + ": non-blank frame got no response");
    return;
  }
  const serve::JsonParsed parsed = serve::parse_json(response);
  if (!parsed.ok || !parsed.value.is_object()) {
    record(report, options,
           label + ": response is not a JSON object: " + response);
    return;
  }
  if (parsed.value.find("id") == nullptr) {
    record(report, options, label + ": response lacks 'id': " + response);
  }
  const serve::JsonValue* ok = parsed.value.find("ok");
  if (ok == nullptr || !ok->is_bool()) {
    record(report, options,
           label + ": response lacks boolean 'ok': " + response);
    return;
  }
  if (ok->boolean) {
    return;
  }
  const serve::JsonValue* error = parsed.value.find("error");
  const serve::JsonValue* kind =
      error != nullptr ? error->find("kind") : nullptr;
  if (kind == nullptr || !kind->is_string()) {
    record(report, options,
           label + ": error response lacks 'error.kind': " + response);
    return;
  }
  if (kind->string == serve::wire::kInternal) {
    record(report, options,
           label + ": input reached the internal catch-all: " + response);
    return;
  }
  if (!known_wire_error_kind(kind->string)) {
    record(report, options,
           label + ": unknown error kind '" + kind->string + "'");
  }
}

std::string hostile_frame(Xoshiro256& rng) {
  switch (rng.below(6)) {
    case 0: {  // nesting bomb: must hit the depth cap, not the stack guard
      const std::size_t depth = 65 + rng.below(1000);
      std::string out(depth, '[');
      if (rng.below(2) == 0) {
        out.append(depth, ']');  // balanced and hostile
      }
      return out;
    }
    case 1: {  // oversized frame: too_large without parsing
      return std::string(4097 + rng.below(4096), 'x');
    }
    case 2: {  // raw bytes, including NUL and high bits
      std::string out;
      const std::size_t len = rng.below(64);
      for (std::size_t i = 0; i < len; ++i) {
        out.push_back(static_cast<char>(rng.below(256)));
      }
      return out;
    }
    case 3:  // truncated valid request
      {
        std::string frame = random_request_frame(rng);
        frame.resize(rng.below(frame.size() + 1));
        return frame;
      }
    case 4:  // valid JSON, wrong shape
      return rng.below(2) == 0 ? "[1,2,3]" : "\"just a string\"";
    default:  // whitespace soup
      return std::string(rng.below(8), ' ') + "\t\r";
  }
}

}  // namespace

void FuzzReport::merge(FuzzReport other) {
  cases_run += other.cases_run;
  findings.insert(findings.end(),
                  std::make_move_iterator(other.findings.begin()),
                  std::make_move_iterator(other.findings.end()));
}

FuzzReport fuzz_roundtrip(const FuzzOptions& options) {
  FuzzReport report;
  const TimeBox box(options.max_seconds);
  Xoshiro256 rng(options.seed);

  std::vector<std::string> bases = load_corpus(options.corpus_dir);
  for (std::size_t i = 0; i < bases.size(); ++i) {
    check_roundtrip(bases[i], "[roundtrip corpus " + std::to_string(i) + "]",
                    report, options);
  }

  for (std::uint64_t c = 0; c < options.cases && !box.expired(); ++c) {
    std::string source;
    if (!bases.empty() && rng.below(2) == 0) {
      source = mutate(bases[rng.below(bases.size())], rng);
    } else {
      source = generate_program(rng);
      if (rng.below(2) == 0) {
        source = mutate(std::move(source), rng);
      }
    }
    check_roundtrip(source, "[roundtrip case " + std::to_string(c) + "]",
                    report, options);
    if (bases.size() < 64 && rng.below(8) == 0) {
      bases.push_back(std::move(source));  // feed interesting inputs back in
    }
    ++report.cases_run;
  }
  return report;
}

FuzzReport fuzz_eval(const FuzzOptions& options) {
  FuzzReport report;
  const TimeBox box(options.max_seconds);
  Xoshiro256 rng(options.seed ^ 0x9E3779B97F4A7C15ULL);
  for (std::uint64_t c = 0; c < options.cases && !box.expired(); ++c) {
    check_eval_case(c, rng, report, options);
    ++report.cases_run;
  }
  return report;
}

FuzzReport fuzz_oracle(const FuzzOptions& options) {
  FuzzReport report;
  const TimeBox box(options.max_seconds);
  Xoshiro256 rng(options.seed ^ 0xD1B54A32D192ED03ULL);
  for (std::uint64_t c = 0; c < options.cases && !box.expired(); ++c) {
    const std::string label = "[oracle case " + std::to_string(c) + "]";
    try {
      switch (rng.below(5)) {
        case 0: check_oracle_streaming(label, rng, report, options); break;
        case 1: check_oracle_random(label, rng, report, options); break;
        case 2: check_oracle_template(label, rng, report, options); break;
        case 3: check_oracle_tiled(label, rng, report, options); break;
        default: check_oracle_reuse(label, rng, report, options); break;
      }
    } catch (const std::exception& err) {
      record(report, options,
             label + ": oracle evaluation threw: " + err.what());
    }
    ++report.cases_run;
  }
  return report;
}

FuzzReport fuzz_analyze(const FuzzOptions& options) {
  FuzzReport report;
  const TimeBox box(options.max_seconds);
  Xoshiro256 rng(options.seed ^ 0x8BB84B93962EACC9ULL);

  std::vector<std::string> bases = load_corpus(options.corpus_dir);
  for (std::size_t i = 0; i < bases.size(); ++i) {
    check_analyze_case(bases[i], "[analyze corpus " + std::to_string(i) + "]",
                       report, options);
  }

  for (std::uint64_t c = 0; c < options.cases && !box.expired(); ++c) {
    std::string source;
    if (!bases.empty() && rng.below(2) == 0) {
      source = mutate(bases[rng.below(bases.size())], rng);
    } else {
      source = generate_program(rng);
      if (rng.below(3) == 0) {
        source = mutate(std::move(source), rng);
      }
    }
    check_analyze_case(source, "[analyze case " + std::to_string(c) + "]",
                       report, options);
    if (bases.size() < 64 && rng.below(8) == 0) {
      bases.push_back(std::move(source));
    }
    ++report.cases_run;
  }
  return report;
}

FuzzReport fuzz_serve_proto(const FuzzOptions& options) {
  FuzzReport report;
  const TimeBox box(options.max_seconds);
  Xoshiro256 rng(options.seed ^ 0xE7037ED1A0B428DBULL);

  // One engine across the whole run, like a real daemon: cache state and
  // counters carry over between frames, so a frame corrupted by an earlier
  // one would surface here.
  serve::Engine engine(serve_case_config());

  std::vector<std::string> bases = load_ndjson_corpus(options.corpus_dir);
  for (std::size_t i = 0; i < bases.size(); ++i) {
    check_serve_case(engine, bases[i],
                     "[serve_proto corpus " + std::to_string(i) + "]", report,
                     options);
  }

  for (std::uint64_t c = 0; c < options.cases && !box.expired(); ++c) {
    const std::string label = "[serve_proto case " + std::to_string(c) + "]";
    std::string frame;
    switch (rng.below(4)) {
      case 0:
        frame = !bases.empty() && rng.below(2) == 0
                    ? mutate(bases[rng.below(bases.size())], rng)
                    : mutate(random_request_frame(rng), rng);
        break;
      case 1: frame = hostile_frame(rng); break;
      default: frame = random_request_frame(rng); break;
    }
    check_serve_case(engine, frame, label, report, options);
    if (bases.size() < 64 && rng.below(8) == 0) {
      bases.push_back(std::move(frame));
    }
    ++report.cases_run;
  }
  return report;
}

FuzzReport fuzz_trace(const FuzzOptions& options) {
  FuzzReport report;
  const TimeBox box(options.max_seconds);
  Xoshiro256 rng(options.seed ^ 0xA0761D6478BD642FULL);

  // Corpus seeds (tests/fuzz_corpus/*.dvft): decode totality on the pristine
  // bytes, then again mutated.
  const std::vector<std::string> corpus = load_trace_corpus(options.corpus_dir);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const std::string label = "[trace corpus " + std::to_string(i) + "]";
    check_trace_totality(label, corpus[i], rng, report, options);
  }

  for (std::uint64_t c = 0; c < options.cases && !box.expired(); ++c) {
    const std::string label = "[trace case " + std::to_string(c) + "]";
    try {
      check_trace_roundtrip(label, rng, report, options);
      // Totality over a fresh stream (mutated in place), plus occasionally
      // over a mutated corpus seed.
      const auto structures = random_structures(rng);
      const auto records = random_trace_records(rng, structures.size());
      std::string bytes = serialize_trace(structures, records);
      if (!corpus.empty() && rng.below(4) == 0) {
        bytes = corpus[rng.below(corpus.size())];
      }
      check_trace_totality(label, std::move(bytes), rng, report, options);
    } catch (const std::exception& err) {
      record(report, options,
             label + ": well-formed trace path threw: " + err.what());
    }
    ++report.cases_run;
  }
  return report;
}

namespace {

// --- chaos target ----------------------------------------------------------

/// A random trigger suffix for a schedule entry: Nth-hit, every-Kth,
/// seeded-probability, or always. The probability seed is derived from the
/// case index so every case draws a distinct but replayable pattern.
std::string chaos_trigger(Xoshiro256& rng, std::uint64_t case_index) {
  switch (rng.below(4)) {
    case 0: return "@" + std::to_string(1 + rng.below(30));
    case 1: return "/" + std::to_string(1 + rng.below(8));
    case 2:
      return "%0." + std::to_string(1 + rng.below(9)) + ":" +
             std::to_string(case_index + 1);
    default: return "";  // fire on every hit
  }
}

std::string chaos_path(const FuzzOptions& options, std::uint64_t case_index,
                       const char* suffix) {
  return (std::filesystem::temp_directory_path() /
          ("dvf_fuzz_chaos_" + std::to_string(options.seed) + "_" +
           std::to_string(case_index) + suffix))
      .string();
}

kernels::KernelCaseAdapter<kernels::VectorMultiply> chaos_vm() {
  return kernels::KernelCaseAdapter<kernels::VectorMultiply>(
      "VM", "dense", kernels::VectorMultiply::Config{.iterations = 120});
}

std::string stats_mismatch(
    const std::vector<kernels::StructureInjectionStats>& got,
    const std::vector<kernels::StructureInjectionStats>& want) {
  if (got.size() != want.size()) {
    return "structure count " + std::to_string(got.size()) + " != " +
           std::to_string(want.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto& a = got[i];
    const auto& b = want[i];
    if (a.structure != b.structure || a.trials != b.trials ||
        a.injected != b.injected || a.masked != b.masked || a.sdc != b.sdc ||
        a.due_exception != b.due_exception || a.due_hang != b.due_hang ||
        a.due_invalid != b.due_invalid || a.corrupted != b.corrupted ||
        a.early_stopped != b.early_stopped) {
      return "structure '" + a.structure + "' diverged (trials " +
             std::to_string(a.trials) + "/" + std::to_string(b.trials) +
             ", sdc " + std::to_string(a.sdc) + "/" + std::to_string(b.sdc) +
             ")";
    }
  }
  return "";
}

/// Campaign under a randomized journal/pool fault schedule: the run must
/// complete with statistics bit-identical to the fault-free reference
/// (journaling degrades, results never change), and whatever journal
/// survived — absent, torn, partial or complete — must resume to the same
/// reference after the simulated kill.
void check_chaos_campaign(
    std::uint64_t case_index, Xoshiro256& rng,
    const std::vector<kernels::StructureInjectionStats>& reference,
    const kernels::CampaignConfig& base, const std::string& label,
    FuzzReport& report, const FuzzOptions& options) {
  std::string spec;
  const auto add = [&spec](const std::string& entry) {
    if (!spec.empty()) {
      spec += ";";
    }
    spec += entry;
  };
  if (rng.below(2) == 0) {
    add(std::string("campaign.journal.write=") +
        (rng.below(2) == 0 ? "error(28)" : "short") +
        chaos_trigger(rng, case_index));
  }
  if (rng.below(4) == 0) {
    add("campaign.journal.open=error(13)" + chaos_trigger(rng, case_index));
  }
  if (rng.below(4) == 0) {
    add("campaign.journal.truncate=error(28)" +
        chaos_trigger(rng, case_index));
  }
  if (rng.below(4) == 0) {
    add("pool.spawn=error(11)" + chaos_trigger(rng, case_index));
  }
  const Result<void> configured = failpoint::configure(spec);
  if (!configured.ok()) {
    record(report, options,
           label + ": generated spec '" + spec + "' rejected: " +
               configured.error().describe());
    return;
  }

  const std::string path = chaos_path(options, case_index, ".journal");
  kernels::CampaignConfig config = base;
  config.threads = 1 + static_cast<unsigned>(rng.below(4));
  config.journal_path = path;
  config.resume = false;

  std::vector<kernels::StructureInjectionStats> stats;
  try {
    auto kernel = chaos_vm();
    stats = kernels::run_injection_campaign(kernel, config);
  } catch (const std::exception& err) {
    record(report, options,
           label + ": campaign under schedule '" + spec + "' threw: " +
               err.what());
    failpoint::clear();
    std::remove(path.c_str());
    return;
  }
  std::string mismatch = stats_mismatch(stats, reference);
  if (!mismatch.empty()) {
    record(report, options,
           label + ": schedule '" + spec + "' changed campaign results: " +
               mismatch);
  }
  failpoint::clear();

  // Kill/resume: a journal the faults prevented from ever existing is the
  // one legitimate reason not to resume; anything readable must resume
  // bit-identically and leave a complete journal behind.
  try {
    (void)kernels::read_campaign_journal(path);
  } catch (const Error&) {
    std::remove(path.c_str());
    return;
  }
  config.resume = true;
  try {
    auto kernel = chaos_vm();
    const auto resumed = kernels::run_injection_campaign(kernel, config);
    mismatch = stats_mismatch(resumed, reference);
    if (!mismatch.empty()) {
      record(report, options,
             label + ": resume after schedule '" + spec +
                 "' diverged: " + mismatch);
    }
  } catch (const std::exception& err) {
    record(report, options,
           label + ": resume after schedule '" + spec + "' threw: " +
               err.what());
  }
  std::remove(path.c_str());
}

/// Serve request storm under allocation-failure schedules: every frame gets
/// exactly one well-formed typed response (check_serve_case) and the
/// request counters stay conserved (requests == ok + error).
void check_chaos_serve(std::uint64_t case_index, Xoshiro256& rng,
                       const std::string& label, FuzzReport& report,
                       const FuzzOptions& options) {
  const std::string spec =
      "eval.alloc=badalloc" + chaos_trigger(rng, case_index);
  const Result<void> configured = failpoint::configure(spec);
  if (!configured.ok()) {
    record(report, options,
           label + ": generated spec '" + spec + "' rejected: " +
               configured.error().describe());
    return;
  }
  serve::Engine engine(serve_case_config());
  const std::uint64_t storm = 8 + rng.below(9);
  for (std::uint64_t i = 0; i < storm; ++i) {
    check_serve_case(engine, random_request_frame(rng),
                     label + "[frame " + std::to_string(i) + "]", report,
                     options);
  }
  if (engine.requests_handled() != storm) {
    record(report, options,
           label + ": " + std::to_string(storm) + " frames but " +
               std::to_string(engine.requests_handled()) +
               " requests counted");
  }
  if (engine.responses_ok() + engine.responses_error() !=
      engine.requests_handled()) {
    record(report, options,
           label + ": counters not conserved (ok " +
               std::to_string(engine.responses_ok()) + " + error " +
               std::to_string(engine.responses_error()) + " != requests " +
               std::to_string(engine.requests_handled()) + ")");
  }
}

/// Trace artifact writes under write/rename fault schedules: the file under
/// the final name is always a complete, readable trace — the old one when
/// the write failed (with a typed dvf::Error), the new one when it
/// succeeded; never a torn prefix.
void check_chaos_trace(std::uint64_t case_index, Xoshiro256& rng,
                       const std::string& label, FuzzReport& report,
                       const FuzzOptions& options) {
  static std::int64_t buffer[16] = {};
  DataStructureRegistry registry;
  const DsId id = registry.register_structure("A", buffer, sizeof(buffer),
                                              sizeof(buffer[0]));
  const std::uint64_t baseline_count = 4 + rng.below(12);
  std::vector<MemoryRecord> records;
  for (std::uint64_t i = 0; i < baseline_count; ++i) {
    records.push_back({i * 8, 8, id, false});
  }
  const std::string path = chaos_path(options, case_index, ".dvft");
  try {
    write_trace_file(path, registry, records);
  } catch (const std::exception& err) {
    record(report, options,
           label + ": fault-free baseline write threw: " + err.what());
    return;
  }

  const std::string spec =
      (rng.below(2) == 0 ? "trace.write=throw" : "io.write_file=error(28)") +
      chaos_trigger(rng, case_index);
  const Result<void> configured = failpoint::configure(spec);
  if (!configured.ok()) {
    record(report, options,
           label + ": generated spec '" + spec + "' rejected: " +
               configured.error().describe());
    std::remove(path.c_str());
    return;
  }
  records.push_back({baseline_count * 8, 8, id, true});
  bool failed = false;
  try {
    write_trace_file(path, registry, records);
  } catch (const Error&) {
    failed = true;  // typed failure: the only acceptable way to not write
  } catch (const std::exception& err) {
    record(report, options,
           label + ": write under schedule '" + spec +
               "' threw an untyped exception: " + err.what());
    failed = true;
  }
  failpoint::clear();

  try {
    const TraceFile readback = read_trace_file(path);
    const std::uint64_t expected =
        failed ? baseline_count : baseline_count + 1;
    if (readback.records.size() != expected) {
      record(report, options,
             label + ": artifact under schedule '" + spec + "' holds " +
                 std::to_string(readback.records.size()) +
                 " records, expected " + std::to_string(expected));
    }
  } catch (const std::exception& err) {
    record(report, options,
           label + ": artifact under schedule '" + spec +
               "' is not readable (torn?): " + err.what());
  }
  std::remove(path.c_str());
}

}  // namespace

FuzzReport fuzz_chaos(const FuzzOptions& options) {
  FuzzReport report;
  const TimeBox box(options.max_seconds);
  Xoshiro256 rng(options.seed ^ 0x94D049BB133111EBULL);
  failpoint::clear();  // a leftover schedule would poison determinism

  // Fault-free reference statistics, computed once: every campaign case
  // must reproduce these exactly, whatever the environment does.
  kernels::CampaignConfig base;
  base.trials_per_structure = 6;
  auto reference_kernel = chaos_vm();
  const auto reference =
      kernels::run_injection_campaign(reference_kernel, base);

  for (std::uint64_t c = 0; c < options.cases && !box.expired(); ++c) {
    const std::string label = "[chaos case " + std::to_string(c) + "]";
    switch (c % 3) {
      case 0:
        check_chaos_campaign(c, rng, reference, base, label, report, options);
        break;
      case 1: check_chaos_serve(c, rng, label, report, options); break;
      default: check_chaos_trace(c, rng, label, report, options); break;
    }
    failpoint::clear();
    ++report.cases_run;
  }
  return report;
}

}  // namespace dvf::fuzz
