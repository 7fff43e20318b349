#include "dvf/serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <optional>
#include <vector>

#include "dvf/analysis/ir.hpp"
#include "dvf/common/error.hpp"
#include "dvf/common/failpoint.hpp"
#include "dvf/common/result.hpp"
#include "dvf/dsl/analyzer.hpp"
#include "dvf/dsl/diagnostics.hpp"
#include "dvf/dvf/calculator.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/obs/obs.hpp"

namespace dvf::serve {

namespace {

std::uint64_t steady_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Registers a request's budget for Engine::cancel_in_flight while the
/// request evaluates.
class InFlightGuard {
 public:
  InFlightGuard(std::mutex& mutex, std::unordered_set<EvalBudget*>& set,
                EvalBudget* budget)
      : mutex_(mutex), set_(set), budget_(budget) {
    const std::lock_guard<std::mutex> lock(mutex_);
    set_.insert(budget_);
  }
  ~InFlightGuard() {
    const std::lock_guard<std::mutex> lock(mutex_);
    set_.erase(budget_);
  }
  InFlightGuard(const InFlightGuard&) = delete;
  InFlightGuard& operator=(const InFlightGuard&) = delete;

 private:
  std::mutex& mutex_;
  std::unordered_set<EvalBudget*>& set_;
  EvalBudget* budget_;
};

std::string diagnostic_message(const dsl::Diagnostic& diagnostic) {
  std::string out = diagnostic.code;
  if (diagnostic.span.line > 0) {
    out += " at " + std::to_string(diagnostic.span.line) + ":" +
           std::to_string(diagnostic.span.column);
  }
  out += ": " + diagnostic.message;
  return out;
}

void append_structure(std::string& out, const StructureDvf& s) {
  out += "{\"name\":";
  out += json_escape_string(s.name);
  out += ",\"size_bytes\":";
  out += json_number(s.size_bytes);
  out += ",\"n_ha\":";
  out += json_number(s.n_ha);
  out += ",\"n_error\":";
  out += json_number(s.n_error);
  out += ",\"dvf\":";
  out += json_number(s.dvf);
  out += "}";
}

void append_result(std::string& out, const ApplicationDvf& app) {
  out += "{\"model\":";
  out += json_escape_string(app.model_name);
  out += ",\"machine\":";
  out += json_escape_string(app.machine_name);
  out += ",\"exec_time_s\":";
  out += json_number(app.exec_time_seconds);
  out += ",\"total\":";
  out += json_number(app.total);
  out += ",\"structures\":[";
  for (std::size_t i = 0; i < app.structures.size(); ++i) {
    if (i != 0) {
      out += ",";
    }
    append_structure(out, app.structures[i]);
  }
  out += "]}";
}

}  // namespace

Engine::Engine(EngineConfig config)
    : config_(config), cache_(config.cache_capacity) {}

std::size_t Engine::in_flight() const {
  const std::lock_guard<std::mutex> lock(in_flight_mutex_);
  return in_flight_.size();
}

void Engine::begin_drain(double grace_s) {
  const double clamped = std::max(grace_s, 0.001);
  drain_deadline_ns_.store(
      steady_ns() + static_cast<std::uint64_t>(clamped * 1e9),
      std::memory_order_relaxed);
}

void Engine::cancel_in_flight() {
  const std::lock_guard<std::mutex> lock(in_flight_mutex_);
  for (EvalBudget* budget : in_flight_) {
    budget->cancel();
  }
}

double Engine::effective_deadline_s(double requested) const {
  double deadline = requested > 0.0 ? requested : config_.default_deadline_s;
  if (config_.max_deadline_s > 0.0) {
    deadline = std::min(deadline, config_.max_deadline_s);
  }
  const std::uint64_t drain_end =
      drain_deadline_ns_.load(std::memory_order_relaxed);
  if (drain_end != 0) {
    const std::uint64_t now = steady_ns();
    const double remaining =
        now >= drain_end ? 0.0 : static_cast<double>(drain_end - now) * 1e-9;
    // 0 would mean "no deadline" to EvalLimits; the caller treats <= 0 as
    // "drain window exhausted" and fails fast instead.
    deadline = std::min(deadline, remaining);
  }
  return deadline;
}

std::string Engine::handle_line(std::string_view line) {
  if (line.find_first_not_of(" \t\r\n") == std::string_view::npos) {
    return {};
  }
  try {
    const obs::ScopedSpan span("serve.request");
    const std::uint64_t handled =
        requests_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (config_.span_drop_interval != 0 &&
        handled % config_.span_drop_interval == 0) {
      obs::drop_spans();
    }

    if (line.size() > config_.max_request_bytes) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      return error_response(
          "null", wire::kTooLarge,
          "request of " + std::to_string(line.size()) +
              " bytes exceeds the limit of " +
              std::to_string(config_.max_request_bytes) + " bytes");
    }

    const RequestParse parsed = parse_request(line);
    if (!parsed.ok) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      obs::counter("serve.error." + parsed.kind).add();
      return error_response(parsed.id_json, parsed.kind, parsed.message);
    }
    const EvalRequest& request = parsed.request;

    if (request.op == "ping") {
      ok_.fetch_add(1, std::memory_order_relaxed);
      return "{\"id\":" + request.id_json + ",\"ok\":true,\"op\":\"ping\"}";
    }
    if (request.op == "metrics") {
      ok_.fetch_add(1, std::memory_order_relaxed);
      return handle_metrics(request);
    }
    return handle_eval(request);
  } catch (const std::exception& e) {
    // A bug, not a client mistake — but the daemon answers and survives.
    errors_.fetch_add(1, std::memory_order_relaxed);
    return error_response("null", wire::kInternal, e.what());
  } catch (...) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return error_response("null", wire::kInternal, "unknown exception");
  }
}

std::string Engine::stats_json() const {
  std::string out = "{\"requests\":";
  out += std::to_string(requests_handled());
  out += ",\"ok\":";
  out += std::to_string(responses_ok());
  out += ",\"errors\":";
  out += std::to_string(responses_error());
  out += ",\"in_flight\":";
  out += std::to_string(in_flight());
  out += ",\"draining\":";
  out += drain_deadline_ns_.load(std::memory_order_relaxed) != 0 ? "true"
                                                                 : "false";
  out += ",\"cache\":{\"capacity\":";
  out += std::to_string(cache_.capacity());
  out += ",\"size\":";
  out += std::to_string(cache_.size());
  out += ",\"hits\":";
  out += std::to_string(cache_.hits());
  out += ",\"misses\":";
  out += std::to_string(cache_.misses());
  out += ",\"evictions\":";
  out += std::to_string(cache_.evictions());
  out += "}}";
  return out;
}

std::string Engine::handle_metrics(const EvalRequest& request) {
  std::string out = "{\"id\":" + request.id_json +
                    ",\"ok\":true,\"op\":\"metrics\",\"serve\":";
  out += stats_json();
  out += ",\"metrics\":";
  out += obs::render_metrics_json(obs::snapshot_metrics());
  out += "}";
  return out;
}

std::shared_ptr<const CompiledEntry> Engine::compile_source(
    const EvalRequest& request, std::uint64_t fingerprint,
    std::string& error_out) {
  dsl::DiagnosticEngine diags;
  auto entry = std::make_shared<CompiledEntry>();
  entry->program = dsl::parse_and_analyze(request.source, diags).program;
  if (const dsl::Diagnostic* first = diags.first_error()) {
    error_out = error_response(request.id_json, wire::kModelError,
                               diagnostic_message(*first));
    return nullptr;
  }
  entry->source = request.source;
  entry->source_fingerprint = fingerprint;
  entry->canonical_hash =
      analysis::canonical_hash(entry->program.machines, entry->program.models);
  return cache_.insert(std::move(entry));
}

std::string Engine::handle_eval(const EvalRequest& request) {
  std::shared_ptr<const CompiledEntry> entry;
  bool cache_hit = true;
  if (request.hash.has_value() && request.source.empty()) {
    entry = cache_.find_hash(*request.hash);
    if (entry == nullptr) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      obs::counter("serve.error.unknown_hash").add();
      return error_response(
          request.id_json, wire::kUnknownHash,
          "canonical hash " + hash_hex(*request.hash) +
              " is not resident in the compiled-model cache; resend the "
              "request with 'source'");
    }
  } else {
    const std::uint64_t fingerprint = fnv1a64(request.source);
    entry = cache_.find_source(request.source, fingerprint);
    if (entry == nullptr) {
      cache_hit = false;
      std::string error;
      entry = compile_source(request, fingerprint, error);
      if (entry == nullptr) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        obs::counter("serve.error.model_error").add();
        return error;
      }
    }
  }
  // Handles are registered on first use in each branch, so the metrics op
  // lists a name only once that outcome has happened.
  if (cache_hit) {
    static const obs::Counter hits = obs::counter("serve.cache.hit");
    hits.add();
  } else {
    static const obs::Counter misses = obs::counter("serve.cache.miss");
    misses.add();
  }
  const dsl::CompiledProgram& program = entry->program;

  // Resolve the machine set: a named machine must exist; an unnamed request
  // against a machine-less program falls back to the paper-default LLC.
  std::vector<const Machine*> machines;
  std::optional<Machine> fallback;
  if (!request.machine.empty()) {
    for (const Machine& m : program.machines) {
      if (m.name == request.machine) {
        machines.push_back(&m);
      }
    }
    if (machines.empty()) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      return error_response(
          request.id_json, wire::kBadRequest,
          "program declares no machine named '" + request.machine + "'");
    }
  } else if (!program.machines.empty()) {
    for (const Machine& m : program.machines) {
      machines.push_back(&m);
    }
  } else {
    fallback = Machine::with_cache(caches::profiling_8mb());
    machines.push_back(&*fallback);
  }

  std::vector<const ModelSpec*> models;
  for (const ModelSpec& m : program.models) {
    if (request.model.empty() || m.name == request.model) {
      models.push_back(&m);
    }
  }
  if (models.empty()) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return error_response(
        request.id_json, wire::kBadRequest,
        request.model.empty()
            ? std::string("program declares no models")
            : "program declares no model named '" + request.model + "'");
  }

  // Request-scoped admission control: this request's evaluation charges its
  // own budget with its own deadline; nothing leaks into the next request.
  const double deadline_s = effective_deadline_s(request.deadline_s);
  if (deadline_s <= 0.0) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    obs::counter("serve.error.deadline_exceeded").add();
    return error_response(request.id_json, to_string(ErrorKind::kDeadlineExceeded),
                          "daemon is draining; the grace window has expired");
  }
  EvalLimits limits;
  limits.max_references = config_.max_references;
  limits.max_expansion = config_.max_expansion;
  limits.wall_seconds = deadline_s;
  EvalBudget budget(limits);
  const InFlightGuard guard(in_flight_mutex_, in_flight_, &budget);

  const std::uint64_t eval_start = steady_ns();
  std::string results = "[";
  bool first = true;
  try {
    // The `eval.alloc` failpoint (action badalloc) lands here, where a real
    // allocation failure during evaluation would surface.
    if (DVF_FAILPOINT("eval.alloc")) {
      throw std::bad_alloc();
    }
    for (const Machine* machine : machines) {
      DvfCalculator calculator(*machine);
      calculator.set_budget(&budget);
      for (const ModelSpec* model : models) {
        Result<ApplicationDvf> result =
            request.exec_time_s.has_value()
                ? calculator.try_for_model(*model, *request.exec_time_s)
                : calculator.try_for_model(*model);
        if (!result.ok()) {
          const EvalError& error = result.error();
          errors_.fetch_add(1, std::memory_order_relaxed);
          obs::counter(std::string("serve.error.") + to_string(error.kind))
              .add();
          return error_response(request.id_json, to_string(error.kind),
                                "model '" + model->name + "' on machine '" +
                                    machine->name + "': " + error.message);
        }
        if (!first) {
          results += ",";
        }
        first = false;
        append_result(results, result.value());
      }
    }
  } catch (const std::bad_alloc&) {
    // Allocation pressure sheds this one request with a classified error;
    // it must never take the daemon (or its peer requests) down.
    errors_.fetch_add(1, std::memory_order_relaxed);
    obs::counter("serve.error.resource_limit").add();
    return error_response(
        request.id_json, to_string(ErrorKind::kResourceLimit),
        "evaluation ran out of memory; the request was shed");
  }
  results += "]";
  const std::uint64_t eval_us = (steady_ns() - eval_start) / 1000;

  ok_.fetch_add(1, std::memory_order_relaxed);
  static const obs::Counter evals_ok = obs::counter("serve.eval.ok");
  static const obs::Histogram eval_us_histogram =
      obs::histogram("serve.eval_us");
  evals_ok.add();
  eval_us_histogram.record(eval_us);

  std::string out = "{\"id\":" + request.id_json +
                    ",\"ok\":true,\"op\":\"eval\",\"cache\":";
  out += cache_hit ? "\"hit\"" : "\"miss\"";
  out += ",\"hash\":";
  out += json_escape_string(hash_hex(entry->canonical_hash));
  out += ",\"eval_us\":";
  out += std::to_string(eval_us);
  out += ",\"results\":";
  out += results;
  out += "}";
  return out;
}

}  // namespace dvf::serve
