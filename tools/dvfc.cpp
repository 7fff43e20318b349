// dvfc — command-line front end for the DVF library.
//
//   dvfc check <file>... [--json]             validate model files
//                                             (fail-fast: first error each)
//   dvfc lint <file>... [--json] [--werror]   collect ALL diagnostics plus
//                                             model-sanity lint rules
//   dvfc analyze <file>... [--json] [--werror]
//                                             semantic analysis: provable
//                                             N_ha/DVF bounds, A3xx verdicts
//                                             and a canonical model hash
//   dvfc fmt <file>                           print canonical formatting
//   dvfc eval <file> [--model N] [--machine N] [--csv]
//                                             evaluate models on machines
//   dvfc caches <file> --model N              sweep the paper's four
//                                             profiling caches
//   dvfc ecc <file> --model N [--machine N]   ECC/performance trade-off
//   dvfc kernels [--suite verification|profiling]
//                                             DVF-profile the built-in
//                                             kernel suite (serial timing
//                                             runs)
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "dvf/common/budget.hpp"
#include "dvf/common/error.hpp"
#include "dvf/common/failpoint.hpp"
#include "dvf/common/math.hpp"
#include "dvf/common/robust_io.hpp"
#include "dvf/common/string_util.hpp"
#include "dvf/dsl/analysis.hpp"
#include "dvf/dsl/analyzer.hpp"
#include "dvf/dsl/diagnostics.hpp"
#include "dvf/dsl/lint.hpp"
#include "dvf/dsl/parser.hpp"
#include "dvf/dsl/printer.hpp"
#include "dvf/dvf/calculator.hpp"
#include "dvf/dvf/ecc.hpp"
#include "dvf/cachesim/cache_simulator.hpp"
#include "dvf/cachesim/replacement.hpp"
#include "dvf/cachesim/sharded_replay.hpp"
#include "dvf/dvf/inference.hpp"
#include "dvf/kernels/injection_campaign.hpp"
#include "dvf/kernels/suite.hpp"
#include "dvf/obs/obs.hpp"
#include "dvf/obs/trace_export.hpp"
#include "dvf/patterns/estimate.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/report/table.hpp"
#include "dvf/serve/protocol.hpp"
#include "dvf/serve/server.hpp"
#include "dvf/serve/signal_guard.hpp"
#include "dvf/trace/trace_io.hpp"
#include "dvf/trace/trace_reader.hpp"

namespace {

/// Malformed flag value. Thrown by the option parsers and caught in
/// run_command, so bad usage exits with code 2 through normal control flow
/// (stack unwinding, main's observability handling) instead of std::exit.
struct BadUsage {
  std::string message;
};

/// Wall-clock deadline for model evaluation, shared by every calculator the
/// running command creates (--deadline S). Commands attach it via
/// apply_budget; nullptr (no --deadline) keeps the process-default limits.
dvf::EvalBudget* g_eval_budget = nullptr;

dvf::DvfCalculator make_calculator(dvf::Machine machine) {
  dvf::DvfCalculator calc(std::move(machine));
  calc.set_budget(g_eval_budget);
  return calc;
}

struct Args {
  std::string command;
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;
  bool flag(const std::string& name) const { return options.count(name) != 0; }
  std::string option(const std::string& name, const std::string& fallback = "")
      const {
    const auto it = options.find(name);
    return it == options.end() ? fallback : it->second;
  }
};

/// Boolean flags never consume a following value, so `dvfc campaign --json
/// VM` keeps VM as the positional kernel name. `metrics` is boolean-style:
/// its optional mode is attached with `=` (--metrics=json).
bool is_boolean_flag(const std::string& name) {
  return name == "json" || name == "werror" || name == "csv" ||
         name == "resume" || name == "metrics" || name == "stdio";
}

Args parse_args(int argc, char** argv) {
  Args args;
  if (argc > 1) {
    args.command = argv[1];
  }
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const std::string name = arg.substr(2);
      const std::size_t eq = name.find('=');
      if (eq != std::string::npos) {
        // --name=value never consumes the next argument.
        args.options[name.substr(0, eq)] = name.substr(eq + 1);
      } else if (!is_boolean_flag(name) && i + 1 < argc &&
                 std::string(argv[i + 1]).rfind("--", 0) != 0) {
        args.options[name] = argv[++i];
      } else {
        args.options[name] = "";
      }
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

/// The global observability options (docs/observability.md), accepted by
/// every subcommand and removed from the option map before the per-command
/// flag audit. Trace and metrics output never mixes into a command's stdout:
/// the trace goes to its file, metrics go to stderr.
struct ObsRequest {
  std::string trace_path;   ///< --trace=FILE: Chrome trace-event JSON
  bool metrics = false;     ///< --metrics: end-of-run summary table
  bool metrics_json = false;  ///< --metrics=json: one JSON object line
  bool valid = true;

  [[nodiscard]] bool active() const {
    return !trace_path.empty() || metrics;
  }
};

ObsRequest extract_obs_options(Args& args) {
  ObsRequest request;
  if (const auto it = args.options.find("trace");
      it != args.options.end()) {
    request.trace_path = it->second;
    args.options.erase(it);
    if (request.trace_path.empty()) {
      std::cerr << "dvfc: --trace needs a file path (--trace=FILE)\n";
      request.valid = false;
    }
  }
  if (const auto it = args.options.find("metrics"); it != args.options.end()) {
    request.metrics = true;
    request.metrics_json = it->second == "json";
    if (!it->second.empty() && !request.metrics_json) {
      std::cerr << "dvfc: --metrics accepts only '=json', got '" << it->second
                << "'\n";
      request.valid = false;
    }
    args.options.erase(it);
  }
  return request;
}

/// The global evaluation-deadline option (--deadline S), accepted by every
/// subcommand and removed from the option map before the per-command flag
/// audit. A positive value arms a wall-clock EvalBudget shared by all model
/// evaluation the command performs; when it expires, evaluation degrades
/// into a classified deadline_exceeded error (exit 1) instead of running
/// unbounded.
struct DeadlineRequest {
  double seconds = 0.0;  ///< 0 = no deadline requested
  bool valid = true;
};

DeadlineRequest extract_deadline_option(Args& args) {
  DeadlineRequest request;
  const auto it = args.options.find("deadline");
  if (it == args.options.end()) {
    return request;
  }
  const std::string text = it->second;
  args.options.erase(it);
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || ec != std::errc() ||
      end != text.data() + text.size() || !std::isfinite(value) ||
      value <= 0.0) {
    std::cerr << "dvfc: --deadline expects a positive number of seconds, "
                 "got '" << text << "'\n";
    request.valid = false;
    return request;
  }
  request.seconds = value;
  return request;
}

/// The global fault-injection option (--failpoints SPEC, additive with the
/// DVF_FAILPOINTS env var; docs/resilience.md "Environment-fault
/// injection"), accepted by every subcommand and removed from the option
/// map before the per-command flag audit. A bad spec is bad usage (exit 2).
struct FailpointsRequest {
  bool valid = true;
};

FailpointsRequest extract_failpoints_option(Args& args) {
  FailpointsRequest request;
  std::string spec;
  if (const char* env = std::getenv("DVF_FAILPOINTS")) {
    spec = env;
  }
  if (const auto it = args.options.find("failpoints");
      it != args.options.end()) {
    if (it->second.empty()) {
      std::cerr << "dvfc: --failpoints needs a spec "
                   "(--failpoints 'point=action[@N|/K|%P]')\n";
      request.valid = false;
    } else {
      if (!spec.empty()) {
        spec += ';';
      }
      spec += it->second;
    }
    args.options.erase(it);
  }
  if (request.valid && !spec.empty()) {
    const auto configured = dvf::failpoint::configure(spec);
    if (!configured.ok()) {
      std::cerr << "dvfc: " << configured.error().message << "\n";
      request.valid = false;
    }
  }
  return request;
}

/// Flushes the requested observability outputs after the command ran.
/// Returns false when the trace file or metrics sink cannot be written.
bool emit_obs(const ObsRequest& request, const std::string& command) {
  bool ok = true;
  if (!request.trace_path.empty()) {
    try {
      dvf::obs::write_chrome_trace(request.trace_path, "dvfc " + command);
    } catch (const dvf::Error& err) {
      std::cerr << "dvfc: " << err.what() << "\n";
      ok = false;
    }
  }
  if (request.metrics) {
    const dvf::obs::MetricsSnapshot snapshot = dvf::obs::snapshot_metrics();
    std::string rendered;
    if (request.metrics_json) {
      rendered = dvf::obs::render_metrics_json(snapshot) + "\n";
    } else {
      rendered = dvf::obs::render_summary(snapshot,
                                          dvf::obs::snapshot_spans());
    }
    // Checked fd write (bounded EINTR retry) instead of unchecked iostream:
    // a broken stderr pipe surfaces as a failure, not silently lost metrics.
    std::cerr.flush();
    std::fflush(stderr);
    if (!dvf::io::write_all_fd(STDERR_FILENO, rendered.data(),
                               rendered.size())
             .ok()) {
      ok = false;
    }
  }
  return ok;
}

/// Per-command flag audit: an unrecognized --option is bad usage (exit 2),
/// not a silent no-op.
bool options_recognized(const Args& args) {
  static const std::map<std::string, std::vector<std::string>> kAllowed = {
      {"check", {"json"}},
      {"lint", {"json", "werror"}},
      {"analyze", {"json", "werror"}},
      {"fmt", {}},
      {"eval", {"model", "machine", "csv"}},
      {"caches", {"model"}},
      {"ecc", {"model", "machine"}},
      {"kernels", {"suite"}},
      {"trace", {}},
      {"replay", {"assoc", "sets", "line", "threads", "policy"}},
      {"infer", {"assoc", "sets", "line"}},
      {"campaign",
       {"trials", "seed", "threads", "journal", "resume", "ci-width",
        "hang-factor", "batch", "json"}},
      {"serve",
       {"socket", "stdio", "workers", "queue", "cache", "max-request-bytes",
        "default-deadline", "max-deadline", "max-connections",
        "retry-after-ms", "drain-grace", "metrics-interval"}},
  };
  const auto it = kAllowed.find(args.command);
  if (it == kAllowed.end()) {
    return true;  // unknown command: the dispatcher reports usage
  }
  bool ok = true;
  for (const auto& [name, value] : args.options) {
    (void)value;
    if (std::find(it->second.begin(), it->second.end(), name) ==
        it->second.end()) {
      std::cerr << "dvfc: unknown option --" << name << " for '"
                << args.command << "'\n";
      ok = false;
    }
  }
  return ok;
}

// Parses a numeric option, raising BadUsage (exit 2 + a clear message)
// instead of the uncaught-exception abort std::stoul would produce on e.g.
// --threads abc. An option given without a value
// ("dvfc campaign VM --threads") parses as the fallback.
std::uint32_t numeric_option(const Args& args, const std::string& name,
                             std::uint32_t fallback) {
  const std::string text = args.option(name, "");
  if (text.empty()) {
    return fallback;
  }
  std::uint32_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size()) {
    throw BadUsage{"--" + name + " expects a non-negative integer, got '" +
                   text + "'"};
  }
  return value;
}

// As numeric_option, for non-negative real-valued options (--ci-width,
// --hang-factor).
double real_option(const Args& args, const std::string& name,
                   double fallback) {
  const std::string text = args.option(name, "");
  if (text.empty()) {
    return fallback;
  }
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size() || value < 0.0 ||
      !std::isfinite(value)) {
    throw BadUsage{"--" + name + " expects a non-negative number, got '" +
                   text + "'"};
  }
  return value;
}

// Parses --policy (replay), raising BadUsage on anything the simulator does
// not implement. An option given without a value parses as the default.
dvf::ReplacementPolicy policy_option(const Args& args) {
  const std::string text = args.option("policy", "");
  if (text.empty()) {
    return dvf::ReplacementPolicy::kLru;
  }
  const auto parsed = dvf::parse_policy(text);
  if (!parsed.has_value()) {
    throw BadUsage{"--policy expects lru, plru or rrip, got '" + text + "'"};
  }
  return *parsed;
}

int usage() {
  std::cerr <<
      "usage: dvfc <command> [args]\n"
      "  check <file>... [--json]              validate model files\n"
      "                                        (fail-fast: reports the first\n"
      "                                        error per file)\n"
      "  lint <file>... [--json] [--werror]    report ALL diagnostics in one\n"
      "                                        pass, plus model-sanity lint\n"
      "                                        rules; --werror promotes\n"
      "                                        warnings to failures\n"
      "  analyze <file>... [--json] [--werror]\n"
      "                                        semantic analysis: provable\n"
      "                                        per-structure N_ha/DVF bounds,\n"
      "                                        A3xx verdicts and a canonical\n"
      "                                        64-bit model hash; --werror\n"
      "                                        promotes warnings to failures\n"
      "  fmt <file>                            canonical formatting\n"
      "  eval <file> [--model N] [--machine N] [--csv]\n"
      "  caches <file> --model N               profiling-cache sweep\n"
      "  ecc <file> --model N [--machine N]    ECC trade-off sweep\n"
      "  kernels [--suite verification|profiling]\n"
      "                                        time each kernel serially and\n"
      "                                        print its DVF\n"
      "  campaign <kernel> [--trials N] [--seed N] [--threads N]\n"
      "           [--journal FILE] [--resume] [--ci-width X]\n"
      "           [--hang-factor X] [--batch N] [--json]\n"
      "                                        fault-injection campaign with\n"
      "                                        classified outcomes (masked/\n"
      "                                        sdc/due_*); --journal makes it\n"
      "                                        crash-resumable (--resume runs\n"
      "                                        only missing trials), --ci-width\n"
      "                                        stops structures whose Wilson\n"
      "                                        95% SDC CI converged; N workers\n"
      "                                        (N=0: DVF_THREADS env var or\n"
      "                                        hardware default)\n"
      "  trace <kernel> <out.dvft>              record a kernel's references\n"
      "                                        (compact little-endian\n"
      "                                        chunked format)\n"
      "  replay <in.dvft> [--assoc A --sets S --line L]\n"
      "         [--threads N] [--policy lru|plru|rrip]\n"
      "                                        simulate a saved trace,\n"
      "                                        streamed chunk by chunk;\n"
      "                                        N>1 shards cache sets across\n"
      "                                        workers (bit-identical stats,\n"
      "                                        N=0: DVF_THREADS env var or\n"
      "                                        hardware default)\n"
      "  infer <in.dvft> [--assoc A --sets S --line L]\n"
      "                                        derive pattern specs from a\n"
      "                                        trace and compare estimates\n"
      "                                        against its replay\n"
      "  serve [--socket PATH | --stdio] [--workers N] [--queue N]\n"
      "        [--cache N] [--max-request-bytes N] [--default-deadline S]\n"
      "        [--max-deadline S] [--max-connections N] [--retry-after-ms N]\n"
      "        [--drain-grace S] [--metrics-interval S]\n"
      "                                        evaluation daemon speaking\n"
      "                                        newline-delimited JSON over a\n"
      "                                        Unix socket (--stdio: stdin/\n"
      "                                        stdout pipe mode); bounded\n"
      "                                        queue with overload shedding,\n"
      "                                        per-request deadlines, LRU\n"
      "                                        compiled-model cache, graceful\n"
      "                                        SIGTERM drain (docs/serve.md)\n"
      "global options (every command):\n"
      "  --trace FILE                          write a Chrome trace-event\n"
      "                                        JSON file (chrome://tracing,\n"
      "                                        Perfetto) of the run\n"
      "  --metrics[=json]                      print end-of-run metrics to\n"
      "                                        stderr: a summary table, or\n"
      "                                        with =json one JSON object\n"
      "  --deadline S                          abort model evaluation with a\n"
      "                                        classified deadline_exceeded\n"
      "                                        error once S wall-clock\n"
      "                                        seconds have passed\n"
      "  --failpoints SPEC                     arm deterministic fault\n"
      "                                        injection on the tool's own\n"
      "                                        I/O and transport paths;\n"
      "                                        SPEC is 'point=action' entries\n"
      "                                        joined with ';' and optional\n"
      "                                        '@N' '/K' '%P[:SEED]' triggers\n"
      "                                        (also: DVF_FAILPOINTS env var;\n"
      "                                        docs/resilience.md)\n"
      "exit codes: 0 success; 1 model/campaign errors (for lint --werror:\n"
      "errors or warnings); 2 bad usage, unknown flags or unreadable input;\n"
      "3 internal error\n";
  return 2;
}

// Prints the combined diagnostics of several files as one JSON array.
void print_json_array(const std::vector<std::string>& objects) {
  std::cout << "[";
  for (std::size_t i = 0; i < objects.size(); ++i) {
    std::cout << (i == 0 ? "\n" : ",\n") << "  " << objects[i];
  }
  std::cout << (objects.empty() ? "]\n" : "\n]\n");
}

int cmd_check(const Args& args) {
  if (args.positional.empty()) {
    return usage();
  }
  const bool json = args.flag("json");
  int failures = 0;
  std::vector<std::string> objects;
  for (const std::string& file : args.positional) {
    if (json) {
      // Same accept set as compile_file (analyzer errors only, no lint
      // rules), machine-readable: report the first error-severity
      // diagnostic — exactly what compile would throw.
      std::ifstream in(file);
      if (!in) {
        std::cerr << "dvfc: cannot open model file: " << file << "\n";
        return 2;
      }
      std::ostringstream contents;
      contents << in.rdbuf();
      dvf::dsl::DiagnosticEngine diags;
      try {
        const auto ast = dvf::dsl::parse(contents.str());
        (void)dvf::dsl::analyze(ast, diags);
      } catch (const dvf::ParseError& err) {
        const char* code = err.code() != nullptr ? err.code()
                                                 : dvf::dsl::codes::kSyntax;
        diags.error(code, {err.line(), err.column(), err.length()},
                    err.what());
      }
      if (const dvf::dsl::Diagnostic* first = diags.first_error()) {
        objects.push_back(dvf::dsl::render_json_object(*first, file));
        ++failures;
      }
      continue;
    }
    try {
      const auto program = dvf::dsl::compile_file(file);
      std::cout << file << ": OK (" << program.models.size() << " model(s), "
                << program.machines.size() << " machine(s))\n";
    } catch (const dvf::Error& err) {
      std::cout << file << ": " << err.what() << "\n";
      ++failures;
    }
  }
  if (json) {
    print_json_array(objects);
  }
  return failures == 0 ? 0 : 1;
}

int cmd_lint(const Args& args) {
  if (args.positional.empty()) {
    return usage();
  }
  const bool json = args.flag("json");
  const bool werror = args.flag("werror");
  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::vector<std::string> objects;
  for (const std::string& file : args.positional) {
    dvf::dsl::LintResult result;
    try {
      result = dvf::dsl::lint_file(file);
    } catch (const dvf::Error& err) {
      std::cerr << "dvfc: " << err.what() << "\n";
      return 2;
    }
    errors += result.errors;
    warnings += result.warnings;
    if (json) {
      for (const dvf::dsl::Diagnostic& d : result.diagnostics) {
        objects.push_back(dvf::dsl::render_json_object(d, file));
      }
    } else {
      std::cout << dvf::dsl::render_human(result.diagnostics, result.source,
                                          file);
      std::cout << file << ": " << result.errors << " error(s), "
                << result.warnings << " warning(s)\n";
    }
  }
  if (json) {
    print_json_array(objects);
  }
  return errors > 0 || (werror && warnings > 0) ? 1 : 0;
}

std::string json_interval(const dvf::analysis::Interval& iv) {
  // Infinite bounds (unbounded above) render as null, never a bare `inf`.
  return "{\"lo\":" + dvf::json_number(iv.lo) +
         ",\"hi\":" + dvf::json_number(iv.hi) +
         ",\"exact\":" + (iv.is_point() ? "true" : "false") + "}";
}

// Human-readable interval: a point prints as "= x", an unbounded interval
// as "[lo, inf)".
std::string show_interval(const dvf::analysis::Interval& iv) {
  if (iv.is_point()) {
    return "= " + dvf::num(iv.lo);
  }
  return "in [" + dvf::num(iv.lo) + ", " +
         (std::isfinite(iv.hi) ? dvf::num(iv.hi) : "inf") +
         (std::isfinite(iv.hi) ? "]" : ")");
}

// One analyzed file as a JSON object: the canonical hash, per-model /
// per-structure bounds and verdicts, and the diagnostics. When the file
// failed to parse there is no report — only "diagnostics" appears.
std::string analyze_json_object(const std::string& file,
                                const dvf::dsl::SemanticAnalysis& result) {
  std::ostringstream out;
  out << "{\"file\":" << dvf::json_escape_string(file);
  if (result.report.has_value()) {
    const dvf::analysis::AnalysisReport& report = *result.report;
    out << ",\"canonical_hash\":\""
        << dvf::serve::hash_hex(report.canonical_hash) << "\"";
    out << ",\"machines\":[";
    for (std::size_t i = 0; i < report.machines.size(); ++i) {
      out << (i == 0 ? "" : ",")
          << dvf::json_escape_string(report.machines[i]);
    }
    out << "],\"models\":[";
    for (std::size_t m = 0; m < report.models.size(); ++m) {
      const dvf::analysis::ModelBounds& model = report.models[m];
      out << (m == 0 ? "" : ",") << "{\"name\":"
          << dvf::json_escape_string(model.name) << ",\"dvf\":"
          << json_interval(model.dvf) << ",\"structures\":[";
      for (std::size_t s = 0; s < model.structures.size(); ++s) {
        const dvf::analysis::StructureBounds& ds = model.structures[s];
        bool exact = !ds.per_machine.empty();
        for (const auto& pm : ds.per_machine) {
          exact = exact && pm.exact;
        }
        out << (s == 0 ? "" : ",") << "{\"name\":"
            << dvf::json_escape_string(ds.name)
            << ",\"size_bytes\":" << ds.size_bytes
            << ",\"n_ha\":" << json_interval(ds.n_ha)
            << ",\"dvf\":" << json_interval(ds.dvf)
            << ",\"exact\":" << (exact ? "true" : "false")
            << ",\"dead\":" << (ds.dead ? "true" : "false")
            << ",\"exceeds_all_shares\":"
            << (ds.exceeds_all_shares ? "true" : "false")
            << ",\"rejects_everywhere\":"
            << (ds.rejects_everywhere ? "true" : "false")
            << ",\"monotone_in_capacity\":"
            << (ds.monotone_in_capacity ? "true" : "false") << "}";
      }
      out << "]}";
    }
    out << "]";
  }
  out << ",\"clean\":" << (result.diagnostics.empty() ? "true" : "false");
  out << ",\"diagnostics\":[";
  for (std::size_t i = 0; i < result.diagnostics.size(); ++i) {
    out << (i == 0 ? "" : ",")
        << dvf::dsl::render_json_object(result.diagnostics[i], file);
  }
  out << "]}";
  return out.str();
}

void print_analysis_report(const dvf::analysis::AnalysisReport& report) {
  for (const dvf::analysis::ModelBounds& model : report.models) {
    std::cout << "model " << model.name << ": DVF "
              << show_interval(model.dvf) << "\n";
    for (const dvf::analysis::StructureBounds& ds : model.structures) {
      std::cout << "  data " << ds.name << ": N_ha "
                << show_interval(ds.n_ha) << ", DVF "
                << show_interval(ds.dvf);
      if (ds.dead) {
        std::cout << " [dead]";
      }
      if (ds.exceeds_all_shares) {
        std::cout << " [exceeds-share]";
      }
      if (ds.rejects_everywhere && !ds.per_machine.empty()) {
        std::cout << " [rejects: "
                  << dvf::to_string(ds.per_machine.front().reject_kind)
                  << "]";
      }
      std::cout << "\n";
    }
  }
  std::cout << "canonical hash: "
            << dvf::serve::hash_hex(report.canonical_hash) << "\n";
}

int cmd_analyze(const Args& args) {
  if (args.positional.empty()) {
    return usage();
  }
  const bool json = args.flag("json");
  const bool werror = args.flag("werror");
  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::vector<std::string> objects;
  for (const std::string& file : args.positional) {
    dvf::dsl::SemanticAnalysis result;
    try {
      result = dvf::dsl::analyze_models_file(file);
    } catch (const dvf::Error& err) {
      std::cerr << "dvfc: " << err.what() << "\n";
      return 2;
    }
    errors += result.errors;
    warnings += result.warnings;
    if (json) {
      objects.push_back(analyze_json_object(file, result));
      continue;
    }
    std::cout << dvf::dsl::render_human(result.diagnostics, result.source,
                                        file);
    if (result.report.has_value()) {
      print_analysis_report(*result.report);
    }
    std::cout << file << ": " << result.errors << " error(s), "
              << result.warnings << " warning(s)\n";
  }
  if (json) {
    print_json_array(objects);
  }
  return errors > 0 || (werror && warnings > 0) ? 1 : 0;
}

int cmd_fmt(const Args& args) {
  if (args.positional.size() != 1) {
    return usage();
  }
  std::ifstream in(args.positional[0]);
  if (!in) {
    std::cerr << "dvfc: cannot open " << args.positional[0] << "\n";
    return 2;  // unreadable input, per the documented exit codes
  }
  std::ostringstream contents;
  contents << in.rdbuf();
  std::cout << dvf::dsl::print(dvf::dsl::parse(contents.str()));
  return 0;
}

void print_application(const dvf::ApplicationDvf& app, bool csv) {
  dvf::Table table({"structure", "S_d (bytes)", "N_ha", "N_error", "DVF"});
  for (const auto& s : app.structures) {
    table.add_row({s.name, dvf::num(s.size_bytes), dvf::num(s.n_ha),
                   dvf::num(s.n_error), dvf::num(s.dvf)});
  }
  table.add_row({"(application)", "", "", "", dvf::num(app.total)});
  std::cout << (csv ? table.to_csv() : table.to_text());
}

int cmd_eval(const Args& args) {
  if (args.positional.size() != 1) {
    return usage();
  }
  const auto program = dvf::dsl::compile_file(args.positional[0]);
  const std::string model_name = args.option("model");
  const std::string machine_name = args.option("machine");
  const bool csv = args.flag("csv");

  for (const dvf::ModelSpec& model : program.models) {
    if (!model_name.empty() && model.name != model_name) {
      continue;
    }
    for (const dvf::Machine& machine : program.machines) {
      if (!machine_name.empty() && machine.name != machine_name) {
        continue;
      }
      if (!csv) {
        std::cout << dvf::banner("model '" + model.name + "' on machine '" +
                                 machine.name + "'");
      }
      print_application(
          make_calculator(machine).try_for_model(model).value_or_throw(), csv);
    }
  }
  return 0;
}

int cmd_caches(const Args& args) {
  if (args.positional.size() != 1 || args.option("model").empty()) {
    return usage();
  }
  const auto program = dvf::dsl::compile_file(args.positional[0]);
  const dvf::ModelSpec& model = program.model(args.option("model"));

  std::vector<std::string> headers = {"structure"};
  const auto caches = dvf::caches::all_profiling();
  for (const auto& c : caches) {
    headers.push_back("DVF @" + c.name());
  }
  dvf::Table table(headers);
  std::vector<dvf::ApplicationDvf> results;
  for (const auto& cache : caches) {
    results.push_back(
        make_calculator(dvf::Machine::with_cache(cache))
            .try_for_model(model)
            .value_or_throw());
  }
  for (std::size_t s = 0; s < model.structures.size(); ++s) {
    std::vector<std::string> row = {model.structures[s].name};
    for (const auto& app : results) {
      row.push_back(dvf::num(app.structures[s].dvf));
    }
    table.add_row(std::move(row));
  }
  std::cout << table;
  return 0;
}

int cmd_ecc(const Args& args) {
  if (args.positional.size() != 1 || args.option("model").empty()) {
    return usage();
  }
  const auto program = dvf::dsl::compile_file(args.positional[0]);
  const dvf::ModelSpec& model = program.model(args.option("model"));
  const dvf::Machine machine =
      args.option("machine").empty()
          ? dvf::Machine::with_cache(dvf::caches::profiling_8mb())
          : program.machine(args.option("machine"));

  dvf::EccTradeoffExplorer explorer(machine, model);
  explorer.set_budget(g_eval_budget);
  dvf::Table table({"degradation_%", "DVF secded", "DVF chipkill"});
  dvf::EccSweepConfig secded;
  secded.scheme = dvf::EccScheme::kSecDed;
  dvf::EccSweepConfig chipkill;
  chipkill.scheme = dvf::EccScheme::kChipkill;
  const auto s = explorer.try_sweep(secded).value_or_throw();
  const auto c = explorer.try_sweep(chipkill).value_or_throw();
  for (std::size_t i = 0; i < s.size(); ++i) {
    table.add_row({dvf::num(100.0 * s[i].degradation, 3), dvf::num(s[i].dvf),
                   dvf::num(c[i].dvf)});
  }
  std::cout << table;
  return 0;
}

int cmd_kernels(const Args& args) {
  const std::string suite_name = args.option("suite", "verification");
  auto suite = suite_name == "profiling"
                   ? dvf::kernels::make_profiling_suite()
                   : dvf::kernels::make_verification_suite();

  dvf::Table table({"kernel", "method", "T (s)", "DVF_a @8MB"});
  const dvf::DvfCalculator calc =
      make_calculator(dvf::Machine::with_cache(dvf::caches::profiling_8mb()));
  for (const auto& result :
       dvf::kernels::evaluate_suite(suite, calc)) {
    table.add_row({result.kernel, result.method,
                   dvf::num(result.exec_time_seconds, 3),
                   dvf::num(result.dvf.total)});
  }
  std::cout << table;
  return 0;
}

int cmd_campaign(const Args& args) {
  if (args.positional.size() != 1) {
    return usage();
  }
  if (args.flag("resume") && args.option("journal").empty()) {
    std::cerr << "dvfc: --resume needs --journal FILE\n";
    return usage();
  }
  auto suite = dvf::kernels::make_extended_suite();
  dvf::kernels::KernelCase* kernel = nullptr;
  for (auto& candidate : suite) {
    if (candidate->name() == args.positional[0]) {
      kernel = candidate.get();
      break;
    }
  }
  if (kernel == nullptr) {
    std::cerr << "unknown kernel '" << args.positional[0]
              << "' (expected VM|CG|NB|MG|FT|MC|CGS)\n";
    return 1;
  }

  dvf::kernels::CampaignConfig config;
  config.trials_per_structure = numeric_option(args, "trials", 100);
  config.seed = numeric_option(args, "seed", 2014);
  config.threads = numeric_option(args, "threads", 0);
  config.hang_factor = real_option(args, "hang-factor", 8.0);
  config.ci_width = real_option(args, "ci-width", 0.0);
  config.batch_trials = numeric_option(args, "batch", 50);
  config.journal_path = args.option("journal");
  config.resume = args.flag("resume");

  const auto stats = dvf::kernels::run_injection_campaign(*kernel, config);

  if (args.flag("json")) {
    std::vector<std::string> objects;
    for (const auto& s : stats) {
      std::ostringstream out;
      out.precision(12);
      out << "{\"kernel\": " << dvf::json_escape_string(kernel->name())
          << ", \"structure\": " << dvf::json_escape_string(s.structure)
          << ", \"trials\": " << s.trials
          << ", \"injected\": " << s.injected << ", \"masked\": " << s.masked
          << ", \"sdc\": " << s.sdc
          << ", \"due_exception\": " << s.due_exception
          << ", \"due_hang\": " << s.due_hang
          << ", \"due_invalid\": " << s.due_invalid
          << ", \"corrupted\": " << s.corrupted
          << ", \"corruption_rate_injected\": " << s.corruption_rate_injected()
          << ", \"sdc_rate_injected\": " << s.sdc_rate_injected()
          << ", \"sdc_ci_half_width\": " << s.sdc_ci_half_width()
          << ", \"early_stopped\": " << (s.early_stopped ? "true" : "false")
          << "}";
      objects.push_back(out.str());
    }
    print_json_array(objects);
    return 0;
  }

  dvf::Table table({"structure", "trials", "injected", "masked", "sdc",
                    "due_exc", "due_hang", "due_inv", "sdc_rate|inj",
                    "ci95_half", "early"});
  for (const auto& s : stats) {
    table.add_row({s.structure, dvf::num(static_cast<double>(s.trials)),
                   dvf::num(static_cast<double>(s.injected)),
                   dvf::num(static_cast<double>(s.masked)),
                   dvf::num(static_cast<double>(s.sdc)),
                   dvf::num(static_cast<double>(s.due_exception)),
                   dvf::num(static_cast<double>(s.due_hang)),
                   dvf::num(static_cast<double>(s.due_invalid)),
                   dvf::num(s.sdc_rate_injected(), 4),
                   dvf::num(s.sdc_ci_half_width(), 4),
                   s.early_stopped ? "yes" : "no"});
  }
  std::cout << table;
  return 0;
}

int cmd_trace(const Args& args) {
  if (args.positional.size() != 2) {
    return usage();
  }
  auto suite = dvf::kernels::make_extended_suite();
  for (auto& kernel : suite) {
    if (kernel->name() != args.positional[0]) {
      continue;
    }
    dvf::TraceBuffer buffer;
    kernel->run_buffered(buffer);
    dvf::write_trace_file(args.positional[1], kernel->registry(),
                          buffer.records());
    std::cout << "wrote " << buffer.records().size() << " references ("
              << kernel->registry().size() << " structures) to "
              << args.positional[1] << "\n";
    return 0;
  }
  std::cerr << "unknown kernel '" << args.positional[0]
            << "' (expected VM|CG|NB|MG|FT|MC|CGS)\n";
  return 1;
}

int cmd_replay(const Args& args) {
  if (args.positional.size() != 1) {
    return usage();
  }
  const auto assoc = numeric_option(args, "assoc", 4);
  const auto sets = numeric_option(args, "sets", 64);
  const auto line = numeric_option(args, "line", 32);
  const auto threads = numeric_option(args, "threads", 1);
  const dvf::ReplacementPolicy policy = policy_option(args);
  const dvf::CacheConfig cache("replay", assoc, sets, line);

  // Streamed chunk by chunk: a multi-GB trace replays in O(chunk) memory.
  dvf::TraceReader reader(args.positional[0]);
  const auto structures = reader.structures();
  dvf::ShardedReplayer sim(cache, threads, policy);
  sim.replay_stream(reader);
  sim.flush();

  std::cout << "replayed " << reader.records_delivered() << " references on "
            << cache.describe() << " (policy " << dvf::policy_name(policy)
            << ", " << sim.shards() << " shard(s))\n\n";
  dvf::Table table({"structure", "accesses", "hits", "misses", "writebacks"});
  for (std::size_t i = 0; i < structures.size(); ++i) {
    const dvf::CacheStats st = sim.stats(static_cast<dvf::DsId>(i));
    table.add_row({structures[i].name,
                   dvf::num(static_cast<double>(st.accesses)),
                   dvf::num(static_cast<double>(st.hits)),
                   dvf::num(static_cast<double>(st.misses)),
                   dvf::num(static_cast<double>(st.writebacks))});
  }
  std::cout << table;
  return 0;
}

int cmd_infer(const Args& args) {
  if (args.positional.size() != 1) {
    return usage();
  }
  const dvf::TraceFile trace = dvf::read_trace_file(args.positional[0]);
  const auto assoc = numeric_option(args, "assoc", 4);
  const auto sets = numeric_option(args, "sets", 64);
  const auto line = numeric_option(args, "line", 32);
  const dvf::CacheConfig cache("infer", assoc, sets, line);

  const dvf::ModelSpec inferred = dvf::infer_model(trace);

  dvf::CacheSimulator sim(cache);
  sim.reserve_structures(trace.structures.size());
  sim.replay(trace.records);
  sim.flush();

  std::cout << "inferred model from " << trace.records.size()
            << " references; validating estimates on " << cache.describe()
            << "\n\n";
  dvf::Table table({"structure", "inferred pattern(s)", "sim_misses",
                    "estimate", "rel_err_%"});
  for (const auto& ds : inferred.structures) {
    std::string kinds;
    for (const auto& pattern : ds.patterns) {
      if (!kinds.empty()) {
        kinds += '+';
      }
      kinds += dvf::pattern_letter(pattern);
    }
    dvf::DsId id = dvf::kNoDs;
    for (std::size_t i = 0; i < trace.structures.size(); ++i) {
      if (trace.structures[i].name == ds.name) {
        id = static_cast<dvf::DsId>(i);
      }
    }
    const double simulated =
        static_cast<double>(sim.stats(id).misses);
    const double estimate =
        dvf::try_estimate_accesses(
            std::span<const dvf::PatternSpec>(ds.patterns), cache,
            g_eval_budget)
            .value_or_throw();
    table.add_row({ds.name, kinds, dvf::num(simulated), dvf::num(estimate),
                   dvf::num(100.0 * dvf::math::relative_error(estimate,
                                                              simulated),
                            3)});
  }
  std::cout << table;
  return 0;
}

// dvfc serve — the evaluation daemon (docs/serve.md). Runs until SIGTERM/
// SIGINT (graceful drain) or, in --stdio mode, until stdin reaches EOF.
int cmd_serve(const Args& args) {
  const bool stdio = args.flag("stdio");
  const std::string socket_path = args.option("socket", "");
  if (stdio == !socket_path.empty()) {
    throw BadUsage{"serve needs exactly one transport: --socket PATH or "
                   "--stdio"};
  }

  dvf::serve::ServerConfig config;
  config.socket_path = socket_path;
  config.workers = numeric_option(args, "workers", 2);
  config.queue_capacity = numeric_option(args, "queue", 64);
  config.max_connections = numeric_option(args, "max-connections", 64);
  config.retry_after_ms = numeric_option(args, "retry-after-ms", 100);
  config.drain_grace_s = real_option(args, "drain-grace", 5.0);
  config.metrics_interval_s = real_option(args, "metrics-interval", 0.0);
  config.engine.cache_capacity = numeric_option(args, "cache", 256);
  config.engine.max_request_bytes =
      numeric_option(args, "max-request-bytes", 1u << 20);
  config.engine.default_deadline_s =
      real_option(args, "default-deadline", 10.0);
  config.engine.max_deadline_s = real_option(args, "max-deadline", 60.0);
  if (config.queue_capacity == 0 || config.max_connections == 0 ||
      config.engine.max_request_bytes == 0) {
    throw BadUsage{"--queue, --max-connections and --max-request-bytes must "
                   "be positive"};
  }

  // The daemon's counters (cache hit/miss, shed, per-kind errors) are the
  // product, not a debugging aid: always record.
  dvf::obs::set_enabled(true);

  dvf::serve::Server server(config);
  // First signal: graceful drain. Second: the operator means it — exit now.
  auto signals = std::make_shared<std::atomic<int>>(0);
  dvf::serve::SignalGuard guard([&server, signals](int signo) {
    if (signals->fetch_add(1) == 0) {
      server.request_stop();
    } else {
      _exit(128 + signo);
    }
  });
  return server.run();
}

int run_command(const Args& args) {
  try {
    if (!options_recognized(args)) {
      return usage();
    }
    if (args.command == "check") {
      return cmd_check(args);
    }
    if (args.command == "lint") {
      return cmd_lint(args);
    }
    if (args.command == "analyze") {
      return cmd_analyze(args);
    }
    if (args.command == "fmt") {
      return cmd_fmt(args);
    }
    if (args.command == "eval") {
      return cmd_eval(args);
    }
    if (args.command == "caches") {
      return cmd_caches(args);
    }
    if (args.command == "ecc") {
      return cmd_ecc(args);
    }
    if (args.command == "kernels") {
      return cmd_kernels(args);
    }
    if (args.command == "campaign") {
      return cmd_campaign(args);
    }
    if (args.command == "trace") {
      return cmd_trace(args);
    }
    if (args.command == "replay") {
      return cmd_replay(args);
    }
    if (args.command == "infer") {
      return cmd_infer(args);
    }
    if (args.command == "serve") {
      return cmd_serve(args);
    }
    return usage();
  } catch (const BadUsage& err) {
    std::cerr << "dvfc: " << err.message
              << " (run 'dvfc' without arguments for usage)\n";
    return 2;
  } catch (const dvf::Error& err) {
    std::cerr << "dvfc: " << err.what() << "\n";
    return 1;
  } catch (const std::exception& err) {
    // Anything that is not a documented dvf::Error is an internal defect:
    // report it in one line and exit 3 instead of std::terminate.
    std::cerr << "dvfc: internal error: " << err.what() << "\n";
    return 3;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse_args(argc, argv);
  const ObsRequest obs_request = extract_obs_options(args);
  const DeadlineRequest deadline = extract_deadline_option(args);
  const FailpointsRequest failpoints = extract_failpoints_option(args);
  if (!obs_request.valid || !deadline.valid || !failpoints.valid) {
    return 2;
  }
  if (obs_request.active()) {
    dvf::obs::set_enabled(true);
  }
  dvf::EvalLimits limits;
  limits.wall_seconds = deadline.seconds;
  dvf::EvalBudget deadline_budget(limits);  // arms the deadline when > 0
  if (deadline.seconds > 0.0) {
    g_eval_budget = &deadline_budget;
  }
  // A SIGINT/SIGTERM mid-run must not lose the observability data collected
  // so far: flush the requested trace/metrics sinks, then exit with the
  // conventional signal code. `dvfc serve` pushes its own drain handler on
  // top of this one and pops it when the drain completes.
  std::optional<dvf::serve::SignalGuard> flush_guard;
  if (obs_request.active()) {
    flush_guard.emplace([&obs_request, &args](int signo) {
      emit_obs(obs_request, args.command);
      _exit(128 + signo);
    });
  }
  int code = run_command(args);
  // Flush trace/metrics even when the command failed (code 1/3): a failing
  // campaign's partial trace is exactly what one wants to look at. Bad
  // usage (2) produced no work worth reporting.
  if (obs_request.active() && code != 2) {
    if (!emit_obs(obs_request, args.command) && code == 0) {
      code = 1;
    }
  }
  return code;
}
