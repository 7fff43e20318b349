// Deterministic, dependency-free fuzz harness for the DVF front end and
// evaluation core (docs/architecture.md "guardrail & fuzz layer").
//
// Four targets, each a pure function of (seed, case count):
//
//   roundtrip — random + mutated DSL sources through parse/print/analyze.
//               A source must either be rejected with a positioned
//               ParseError / diagnostics, or parse, print canonically and
//               reach the printer's fixpoint (print ∘ parse is idempotent).
//               Any other exception, or a fixpoint violation, is a finding.
//
//   eval      — adversarial pattern specs (zeros, 2^62 counts, NaN/Inf
//               parameters, huge strides) through the total try_* evaluator
//               APIs under a bounded EvalBudget. An evaluator must return
//               either a finite non-negative estimate or a classified
//               EvalError; an exception, crash, hang (budget-bounded) or an
//               unclassified non-finite value is a finding.
//
//   oracle    — differential testing: sensible random specs evaluated
//               analytically and replayed on the LRU CacheSimulator; the
//               two must agree within the documented per-pattern tolerance
//               (docs/resilience.md "Error taxonomy & totality").
//
//   trace     — the trace wire format (little-endian, chunked):
//               encode/decode fixpoint on adversarial record streams, and
//               decode totality on mutated/truncated bytes.
//
//   analyze   — the semantic analysis (dvfc analyze) on random + mutated
//               sources: must never throw on any parseable model, never
//               report NaN/invalid interval bounds, hash deterministically
//               across re-runs, and every interval must contain the value
//               the evaluator actually computes. Lint runs on the same
//               source and must neither throw nor drop an error
//               analyze_models reports.
//
//   chaos     — randomized-but-seeded environment-fault schedules (the
//               failpoint subsystem: journal writes, thread spawn, serve
//               allocation, artifact writes) over campaigns with
//               kill/resume, serve request storms and trace artifacts; the
//               standing invariants — no crash, campaign statistics
//               bit-identical to the fault-free reference, resume exact,
//               one typed response per request, counters conserved — must
//               hold under every schedule.
//
// The harness uses the library's own xoshiro256** so runs are reproducible
// across platforms; a failing case can be replayed from its seed alone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dvf::fuzz {

/// One harness configuration, shared by all targets.
struct FuzzOptions {
  std::uint64_t cases = 1000;  ///< generated cases per target
  std::uint64_t seed = 1;      ///< master seed (cases derive from it)
  double max_seconds = 0.0;    ///< wall-clock box per target (0 = none)
  std::string corpus_dir;      ///< optional dir of *.aspen seed inputs
  bool verbose = false;        ///< narrate findings to stderr as they occur
};

/// Outcome of one target run. `cases_run` counts generated cases actually
/// executed (the time box may stop a run early); corpus seeds are extra.
struct FuzzReport {
  std::uint64_t cases_run = 0;
  std::vector<std::string> findings;

  [[nodiscard]] bool ok() const noexcept { return findings.empty(); }
  void merge(FuzzReport other);
};

/// DSL parse → print → parse fixpoint checking over generated and mutated
/// sources plus every corpus file.
[[nodiscard]] FuzzReport fuzz_roundtrip(const FuzzOptions& options);

/// Totality checking of the try_* evaluators on adversarial specs.
[[nodiscard]] FuzzReport fuzz_eval(const FuzzOptions& options);

/// Differential oracle: analytical N_ha against CacheSimulator replay.
[[nodiscard]] FuzzReport fuzz_oracle(const FuzzOptions& options);

/// Trace wire-format fuzzing: records → bytes → records fixpoint for both
/// format versions, plus decode totality (a mutated or truncated stream
/// must decode or raise dvf::Error, never crash or allocate unboundedly).
/// Corpus seeds are *.dvft files in the corpus directory.
[[nodiscard]] FuzzReport fuzz_trace(const FuzzOptions& options);

/// Serve wire-protocol totality: every NDJSON frame — corpus lines,
/// generated requests, byte-mutated, truncated, deeply nested, oversized —
/// driven through serve::Engine::handle_line must yield a well-formed JSON
/// response with a boolean "ok" and, on failure, a *known* typed error
/// kind; `internal` (the catch-all) counts as a finding, as does any
/// exception, crash or hang (tight per-request budgets bound every case).
/// Corpus seeds are *.ndjson files (one frame per line) in the corpus
/// directory.
[[nodiscard]] FuzzReport fuzz_serve_proto(const FuzzOptions& options);

/// Semantic-analysis totality and soundness: analyze_models must not throw,
/// every reported interval must be valid (finite non-negative lower bound,
/// no NaN, lo <= hi), the canonical hash must be identical across re-runs,
/// and whenever the evaluator succeeds on a (structure, machine) its value
/// must lie inside the reported interval. lint() on the
/// same source must not throw and must report every error analyze_models
/// does (same code and span). Corpus seeds are *.aspen files in the corpus
/// directory.
[[nodiscard]] FuzzReport fuzz_analyze(const FuzzOptions& options);

/// Environment-fault chaos: deterministic failpoint schedules (derived from
/// the seed) fired into the journal, thread-pool, serve and artifact-write
/// paths while campaigns (with kill/resume), serve storms and trace writes
/// run on top. Asserts the hardening invariants documented in
/// docs/resilience.md "Environment-fault injection"; any crash, statistic
/// drift, torn artifact or unconserved counter is a finding. Clears the
/// failpoint table before and after every case.
[[nodiscard]] FuzzReport fuzz_chaos(const FuzzOptions& options);

/// Documented differential tolerances (relative error bounds) asserted by
/// fuzz_oracle. Streaming single-pass traversals are predicted block-exactly;
/// the stochastic models carry the paper's ±15% validation band, and the
/// tiled family's three closed-form regimes stay inside the same band
/// (docs/resilience.md documents each oracle's regimes).
inline constexpr double kStreamingOracleTolerance = 0.0;
inline constexpr double kRandomOracleTolerance = 0.15;
inline constexpr double kTemplateOracleTolerance = 0.15;
inline constexpr double kReuseOracleTolerance = 0.15;
inline constexpr double kTiledOracleTolerance = 0.15;

}  // namespace dvf::fuzz
