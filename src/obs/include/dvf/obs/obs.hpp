// Observability layer: thread-aware scoped spans plus named counters,
// gauges and histograms, all behind one global enable switch.
//
// Design rules (docs/observability.md):
//  - **Off means a branch.** Every hook first reads one relaxed atomic
//    flag; when the layer is disabled no clock is read, no shard is
//    allocated and no memory is touched beyond that load. The cache
//    simulator, the DSL front end and the campaign engine are instrumented
//    at call granularity (never per memory reference), so the disabled
//    path costs ≤ 2% of BENCH_cachesim throughput (bench/cachesim_throughput
//    prices the enabled replay and each primitive).
//  - **Metrics are sharded per thread and lock-free.** A counter increment
//    or histogram observation is one relaxed atomic add in a per-thread
//    shard; shards are only summed at report time (snapshot_metrics).
//    Gauges are low-frequency last-write-wins cells, one atomic store.
//  - **Spans nest.** ScopedSpan is RAII; each span records its own id, its
//    parent's id and its nesting depth (1 = top level) on the recording
//    thread, so the exported Chrome trace (dvf/obs/trace_export.hpp)
//    reconstructs the call tree exactly.
//  - **Names are string literals.** Span and metric names must outlive the
//    process (the registry stores `const char*` for spans and interns
//    metric names once at registration).
//
// This library sits directly above dvf_common in the layer map
// (docs/architecture.md): every other module may depend on it, it depends
// on nothing but the standard library and dvf_report (for the summary
// table).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dvf::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// True when the observability layer records anything. The single branch
/// every hook is gated on.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Turns recording on or off process-wide. Metric registrations survive
/// either way; only recording is gated.
void set_enabled(bool on) noexcept;

/// Zeroes every metric value and drops every recorded span. Registered
/// metric handles stay valid (registration is permanent); the span id
/// counter restarts. Intended for tests and long-lived embedders.
void reset();

/// Drops every recorded span but keeps all metric values and the span id
/// counter. Long-lived processes (the `dvfc serve` daemon) call this
/// periodically so span storage stays bounded while counters keep
/// accumulating across the process lifetime.
void drop_spans();

/// Nanoseconds since the process-wide observability epoch (fixed on first
/// use; steady clock).
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// Small dense id of the calling thread (assigned on first recording use;
/// the main thread is usually 0). Exported as the Chrome-trace tid.
[[nodiscard]] unsigned thread_id();

/// Names the calling thread in the exported trace ("pool-worker-3"). No-op
/// while disabled.
void set_thread_name(std::string name);

// ---------------------------------------------------------------------------
// Metrics. Handles are cheap value types; register once (cold path, takes a
// lock), then record through the handle (lock-free).

class Counter {
 public:
  Counter() = default;
  /// Adds `n`; one relaxed atomic add in the calling thread's shard.
  void add(std::uint64_t n = 1) const noexcept;

 private:
  friend Counter counter(std::string_view name);
  explicit Counter(std::uint32_t slot) : slot_(slot) {}
  std::uint32_t slot_ = UINT32_MAX;
};

class Gauge {
 public:
  Gauge() = default;
  /// Stores the instantaneous value (last write process-wide wins).
  void set(double value) const noexcept;

 private:
  friend Gauge gauge(std::string_view name);
  explicit Gauge(std::uint32_t slot) : slot_(slot) {}
  std::uint32_t slot_ = UINT32_MAX;
};

/// Power-of-two histogram: bucket 0 holds the value 0 and bucket i ≥ 1
/// holds values in [2^(i-1), 2^i - 1] — i.e. bucket_of(v) = bit_width(v).
/// The boundaries are fixed by construction (tests pin them), so shards
/// merge by plain bucket-wise addition.
class Histogram {
 public:
  static constexpr std::uint32_t kBuckets = 65;  ///< bit_width range [0,64]

  Histogram() = default;
  void record(std::uint64_t value) const noexcept;

  /// The bucket a value lands in: std::bit_width(value).
  [[nodiscard]] static std::uint32_t bucket_of(std::uint64_t value) noexcept;
  /// Inclusive upper bound of a bucket (0, 1, 3, 7, ..., UINT64_MAX).
  [[nodiscard]] static std::uint64_t bucket_upper_bound(
      std::uint32_t bucket) noexcept;

 private:
  friend Histogram histogram(std::string_view name);
  explicit Histogram(std::uint32_t slot) : slot_(slot) {}
  std::uint32_t slot_ = UINT32_MAX;
};

/// Registers (or finds) the named metric. Idempotent: the same name always
/// yields a handle to the same slot. Throws dvf::Error when the fixed slot
/// capacity is exhausted.
[[nodiscard]] Counter counter(std::string_view name);
[[nodiscard]] Gauge gauge(std::string_view name);
[[nodiscard]] Histogram histogram(std::string_view name);

// ---------------------------------------------------------------------------
// Spans.

/// RAII scoped span. Constructing while enabled opens a span on the calling
/// thread; destruction closes and records it. `name` must be a string
/// literal (or otherwise outlive the process).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) noexcept;
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint32_t depth_ = 0;
  bool active_ = false;
};

/// One completed span as recorded.
struct SpanRecord {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;      ///< unique per process run
  std::uint64_t parent = 0;  ///< id of the enclosing span; 0 = top level
  std::uint32_t depth = 0;   ///< 1 = top level
  std::uint32_t tid = 0;     ///< recording thread (obs::thread_id)
};

// ---------------------------------------------------------------------------
// Reporting.

struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;  ///< total observations
  std::uint64_t sum = 0;    ///< sum of observed values
  /// Non-empty buckets as (inclusive upper bound, count), ascending.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
};

/// Aggregated view over every shard, names sorted alphabetically.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;
};

[[nodiscard]] MetricsSnapshot snapshot_metrics();

/// Every completed span so far, ordered by start time.
[[nodiscard]] std::vector<SpanRecord> snapshot_spans();

/// Names of the recording threads, indexed by tid ("" when unnamed).
[[nodiscard]] std::vector<std::string> thread_names();

/// The snapshot as one line of JSON:
/// {"counters":{...},"gauges":{...},"histograms":{"n":{"count":..,"sum":..,
/// "buckets":[{"le":..,"count":..},...]}}}
[[nodiscard]] std::string render_metrics_json(const MetricsSnapshot& snapshot);

/// Human-readable end-of-run summary: counters, gauges, histogram
/// quantile-ish bucket lines, and per-name span aggregates (count, total
/// and self time).
[[nodiscard]] std::string render_summary(
    const MetricsSnapshot& snapshot, const std::vector<SpanRecord>& spans);

}  // namespace dvf::obs
