// The serve engine: one NDJSON request line in, one response line out.
//
// Engine is the transport-agnostic core of `dvfc serve` — the Unix-socket
// and stdio transports, the tests, the fuzz target and the latency bench
// all drive exactly this class, so every robustness property is provable
// in-process:
//
//   - **Total.** handle_line never throws and never returns garbage: every
//     input maps to a well-formed response with either a result or a typed
//     error (protocol.hpp's taxonomy). A defensive catch-all converts any
//     unexpected exception into an `internal` error response.
//   - **Request-scoped state.** Each request evaluates under its own
//     EvalBudget with its own deadline; no global mutates between requests
//     beyond the (lock-guarded) compiled-model cache and (atomic) counters,
//     so one failing or adversarial request cannot poison another.
//   - **Cache hits skip the front end.** Repeat sources hit the
//     CompiledModelCache and never run lex/parse/analyze (no dsl.* spans
//     on the hit path — pinned in tests/test_serve.cpp).
//   - **Drainable.** begin_drain(grace) caps every subsequent request's
//     deadline by the remaining grace window; cancel_in_flight() flips the
//     budgets of currently evaluating requests so they return
//     deadline_exceeded at their next charge point.
//   - **Bounded observability.** Spans are dropped every
//     span_drop_interval requests so a long-lived daemon's span storage
//     cannot grow without bound (metrics keep accumulating).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>

#include "dvf/common/budget.hpp"
#include "dvf/serve/cache.hpp"
#include "dvf/serve/protocol.hpp"

namespace dvf::serve {

struct EngineConfig {
  std::size_t cache_capacity = 256;      ///< compiled-model LRU entries
  std::size_t max_request_bytes = std::size_t{1} << 20;  ///< per frame
  double default_deadline_s = 10.0;      ///< when a request names none
  double max_deadline_s = 60.0;          ///< requests clamp to this
  /// Per-request EvalBudget caps (admission control against expansion
  /// bombs and reference-storm specs); defaults match EvalLimits.
  std::uint64_t max_references = EvalLimits{}.max_references;
  std::uint64_t max_expansion = EvalLimits{}.max_expansion;
  /// Drop recorded spans every N requests (0 = never). Keeps a long-lived
  /// daemon's span storage bounded; metrics are unaffected.
  std::size_t span_drop_interval = 4096;
};

class Engine {
 public:
  explicit Engine(EngineConfig config = {});

  /// Handles one request frame. Returns the response line (no trailing
  /// newline), or "" for an all-whitespace frame (transports skip blank
  /// lines silently). Never throws. Thread-safe: workers call this
  /// concurrently.
  [[nodiscard]] std::string handle_line(std::string_view line);

  /// Starts the drain window: every request handled from now on gets its
  /// deadline capped by the remaining `grace_s`. Once the window expires,
  /// new requests fail immediately with deadline_exceeded.
  void begin_drain(double grace_s);

  /// Cancels the budgets of all currently evaluating requests; each
  /// returns a classified deadline_exceeded at its next charge point.
  void cancel_in_flight();

  [[nodiscard]] const CompiledModelCache& cache() const noexcept {
    return cache_;
  }
  [[nodiscard]] std::uint64_t requests_handled() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t responses_ok() const noexcept {
    return ok_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t responses_error() const noexcept {
    return errors_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t in_flight() const;

  /// The one-line serve-stats JSON object embedded in metrics responses
  /// and the periodic metrics dump.
  [[nodiscard]] std::string stats_json() const;

 private:
  std::string handle_eval(const EvalRequest& request);
  std::string handle_metrics(const EvalRequest& request);

  /// Compiles `source`, whose fnv1a64 is `fingerprint` (or fails with a
  /// typed error already formatted into `error_out`). On success the entry
  /// is cached.
  std::shared_ptr<const CompiledEntry> compile_source(
      const EvalRequest& request, std::uint64_t fingerprint,
      std::string& error_out);

  /// Wall-clock budget for one request: the request's deadline (clamped to
  /// max_deadline_s, defaulted to default_deadline_s) further capped by
  /// the remaining drain window.
  [[nodiscard]] double effective_deadline_s(double requested) const;

  EngineConfig config_;
  CompiledModelCache cache_;

  mutable std::mutex in_flight_mutex_;
  std::unordered_set<EvalBudget*> in_flight_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> ok_{0};
  std::atomic<std::uint64_t> errors_{0};
  /// Steady-clock ns of the drain window's end; 0 = not draining.
  std::atomic<std::uint64_t> drain_deadline_ns_{0};
};

}  // namespace dvf::serve
