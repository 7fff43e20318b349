#include "dvf/obs/obs.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "dvf/common/error.hpp"
#include "dvf/common/failpoint.hpp"
#include "dvf/report/table.hpp"

namespace dvf::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

constexpr std::uint32_t kMaxCounters = 256;
constexpr std::uint32_t kMaxGauges = 64;
constexpr std::uint32_t kMaxHistograms = 64;

/// Per-thread metric shard. Only the owning thread writes the atomic cells
/// (relaxed adds); aggregation reads them concurrently, which is exactly
/// what the atomics are for. The span vector is guarded by a mutex that is
/// uncontended in steady state (the owner appends, snapshots read rarely).
struct Shard {
  explicit Shard(unsigned thread_id) : tid(thread_id) {}

  const unsigned tid;
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::array<std::array<std::atomic<std::uint64_t>, Histogram::kBuckets>,
             kMaxHistograms>
      hist_buckets{};
  std::array<std::atomic<std::uint64_t>, kMaxHistograms> hist_sums{};

  /// Open-span stack (ids). Owner-thread only; never read by snapshots.
  std::vector<std::uint64_t> open;

  std::mutex spans_mutex;
  std::vector<SpanRecord> spans;  ///< guarded by spans_mutex
  std::string name;               ///< guarded by spans_mutex
};

struct Registry {
  std::atomic<std::uint64_t> next_span_id{1};

  std::mutex mutex;  ///< guards registration state below
  std::vector<std::string> counter_names;
  std::vector<std::string> gauge_names;
  std::vector<std::string> hist_names;
  std::array<std::atomic<double>, kMaxGauges> gauge_cells{};
  std::array<std::atomic<bool>, kMaxGauges> gauge_set{};
  std::vector<std::unique_ptr<Shard>> shards;
};

/// Leaky singleton: threads (e.g. the serve daemon's detached readers) may
/// record past static destruction, so the registry is never destroyed.
Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

thread_local Shard* t_shard = nullptr;

Shard& shard() {
  if (t_shard == nullptr) {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    reg.shards.push_back(
        std::make_unique<Shard>(static_cast<unsigned>(reg.shards.size())));
    t_shard = reg.shards.back().get();
  }
  return *t_shard;
}

std::uint32_t register_name(std::vector<std::string>& names,
                            std::string_view name, std::uint32_t capacity,
                            const char* kind) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (std::uint32_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) {
      return i;
    }
  }
  if (names.size() >= capacity) {
    throw Error(std::string("obs: ") + kind + " slot capacity (" +
                std::to_string(capacity) + ") exhausted registering '" +
                std::string(name) + "'");
  }
  names.emplace_back(name);
  return static_cast<std::uint32_t>(names.size() - 1);
}

void append_json_string(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::string format_double(double value) {
  std::ostringstream out;
  out.precision(12);
  out << value;
  return out.str();
}

}  // namespace

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t now_ns() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

unsigned thread_id() { return shard().tid; }

void set_thread_name(std::string name) {
  if (!enabled()) {
    return;
  }
  Shard& sh = shard();
  const std::lock_guard<std::mutex> lock(sh.spans_mutex);
  sh.name = std::move(name);
}

void reset() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (auto& sh : reg.shards) {
    for (auto& cell : sh->counters) {
      cell.store(0, std::memory_order_relaxed);
    }
    for (auto& buckets : sh->hist_buckets) {
      for (auto& cell : buckets) {
        cell.store(0, std::memory_order_relaxed);
      }
    }
    for (auto& cell : sh->hist_sums) {
      cell.store(0, std::memory_order_relaxed);
    }
    const std::lock_guard<std::mutex> span_lock(sh->spans_mutex);
    sh->spans.clear();
  }
  for (auto& cell : reg.gauge_set) {
    cell.store(false, std::memory_order_relaxed);
  }
  reg.next_span_id.store(1, std::memory_order_relaxed);
}

void drop_spans() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (auto& sh : reg.shards) {
    const std::lock_guard<std::mutex> span_lock(sh->spans_mutex);
    sh->spans.clear();
    sh->spans.shrink_to_fit();  // bound the daemon's steady-state footprint
  }
}

// --------------------------------------------------------------------------
// Metric handles.

Counter counter(std::string_view name) {
  return Counter(register_name(registry().counter_names, name, kMaxCounters,
                               "counter"));
}

Gauge gauge(std::string_view name) {
  return Gauge(
      register_name(registry().gauge_names, name, kMaxGauges, "gauge"));
}

Histogram histogram(std::string_view name) {
  return Histogram(register_name(registry().hist_names, name, kMaxHistograms,
                                 "histogram"));
}

void Counter::add(std::uint64_t n) const noexcept {
  if (!enabled() || slot_ == UINT32_MAX) {
    return;
  }
  shard().counters[slot_].fetch_add(n, std::memory_order_relaxed);
}

void Gauge::set(double value) const noexcept {
  if (!enabled() || slot_ == UINT32_MAX) {
    return;
  }
  Registry& reg = registry();
  reg.gauge_cells[slot_].store(value, std::memory_order_relaxed);
  reg.gauge_set[slot_].store(true, std::memory_order_relaxed);
}

std::uint32_t Histogram::bucket_of(std::uint64_t value) noexcept {
  return static_cast<std::uint32_t>(std::bit_width(value));
}

std::uint64_t Histogram::bucket_upper_bound(std::uint32_t bucket) noexcept {
  if (bucket == 0) {
    return 0;
  }
  if (bucket >= 64) {
    return UINT64_MAX;
  }
  return (std::uint64_t{1} << bucket) - 1;
}

void Histogram::record(std::uint64_t value) const noexcept {
  if (!enabled() || slot_ == UINT32_MAX) {
    return;
  }
  Shard& sh = shard();
  sh.hist_buckets[slot_][bucket_of(value)].fetch_add(
      1, std::memory_order_relaxed);
  sh.hist_sums[slot_].fetch_add(value, std::memory_order_relaxed);
}

// --------------------------------------------------------------------------
// Spans.

ScopedSpan::ScopedSpan(const char* name) noexcept {
  if (!enabled()) {
    return;
  }
  Shard& sh = shard();
  id_ = registry().next_span_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = sh.open.empty() ? 0 : sh.open.back();
  sh.open.push_back(id_);
  depth_ = static_cast<std::uint32_t>(sh.open.size());
  name_ = name;
  start_ns_ = now_ns();
  active_ = true;
}

ScopedSpan::~ScopedSpan() {
  if (!active_) {
    return;
  }
  const std::uint64_t end = now_ns();
  Shard& sh = shard();
  sh.open.pop_back();
  const std::lock_guard<std::mutex> lock(sh.spans_mutex);
  sh.spans.push_back({name_, start_ns_, end, id_, parent_, depth_, sh.tid});
}

// --------------------------------------------------------------------------
// Snapshots and rendering.

MetricsSnapshot snapshot_metrics() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);

  MetricsSnapshot snapshot;
  for (std::uint32_t i = 0; i < reg.counter_names.size(); ++i) {
    std::uint64_t total = 0;
    for (const auto& sh : reg.shards) {
      total += sh->counters[i].load(std::memory_order_relaxed);
    }
    snapshot.counters.emplace_back(reg.counter_names[i], total);
  }
  for (std::uint32_t i = 0; i < reg.gauge_names.size(); ++i) {
    if (reg.gauge_set[i].load(std::memory_order_relaxed)) {
      snapshot.gauges.emplace_back(
          reg.gauge_names[i],
          reg.gauge_cells[i].load(std::memory_order_relaxed));
    }
  }
  for (std::uint32_t i = 0; i < reg.hist_names.size(); ++i) {
    HistogramSnapshot hist;
    hist.name = reg.hist_names[i];
    std::array<std::uint64_t, Histogram::kBuckets> merged{};
    for (const auto& sh : reg.shards) {
      for (std::uint32_t b = 0; b < Histogram::kBuckets; ++b) {
        merged[b] += sh->hist_buckets[i][b].load(std::memory_order_relaxed);
      }
      hist.sum += sh->hist_sums[i].load(std::memory_order_relaxed);
    }
    for (std::uint32_t b = 0; b < Histogram::kBuckets; ++b) {
      if (merged[b] != 0) {
        hist.buckets.emplace_back(Histogram::bucket_upper_bound(b),
                                  merged[b]);
        hist.count += merged[b];
      }
    }
    snapshot.histograms.push_back(std::move(hist));
  }

  // Failpoint hit counters ride along under a reserved prefix, so an active
  // injection schedule is visible wherever metrics are: the serve metrics
  // op, --metrics[=json], and the Chrome trace's counter samples.
  for (const failpoint::HitCount& fp : failpoint::hit_counts()) {
    snapshot.counters.emplace_back("failpoint." + fp.name + ".hits", fp.hits);
    snapshot.counters.emplace_back("failpoint." + fp.name + ".fired",
                                   fp.fired);
  }

  const auto by_name = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(snapshot.counters.begin(), snapshot.counters.end(), by_name);
  std::sort(snapshot.gauges.begin(), snapshot.gauges.end(), by_name);
  std::sort(snapshot.histograms.begin(), snapshot.histograms.end(),
            [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
              return a.name < b.name;
            });
  return snapshot;
}

std::vector<SpanRecord> snapshot_spans() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<SpanRecord> all;
  for (const auto& sh : reg.shards) {
    const std::lock_guard<std::mutex> span_lock(sh->spans_mutex);
    all.insert(all.end(), sh->spans.begin(), sh->spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.id < b.id;
            });
  return all;
}

std::vector<std::string> thread_names() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  std::vector<std::string> names(reg.shards.size());
  for (const auto& sh : reg.shards) {
    const std::lock_guard<std::mutex> span_lock(sh->spans_mutex);
    names[sh->tid] = sh->name;
  }
  return names;
}

std::string render_metrics_json(const MetricsSnapshot& snapshot) {
  std::string out = "{\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    out += first ? "" : ", ";
    first = false;
    append_json_string(out, name);
    out += ": " + std::to_string(value);
  }
  out += "}, \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    out += first ? "" : ", ";
    first = false;
    append_json_string(out, name);
    out += ": " + format_double(value);
  }
  out += "}, \"histograms\": {";
  first = true;
  for (const HistogramSnapshot& hist : snapshot.histograms) {
    out += first ? "" : ", ";
    first = false;
    append_json_string(out, hist.name);
    out += ": {\"count\": " + std::to_string(hist.count) +
           ", \"sum\": " + std::to_string(hist.sum) + ", \"buckets\": [";
    for (std::size_t b = 0; b < hist.buckets.size(); ++b) {
      out += b == 0 ? "" : ", ";
      out += "{\"le\": " + std::to_string(hist.buckets[b].first) +
             ", \"count\": " + std::to_string(hist.buckets[b].second) + "}";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string render_summary(const MetricsSnapshot& snapshot,
                           const std::vector<SpanRecord>& spans) {
  std::ostringstream out;

  if (!spans.empty()) {
    // Per-name aggregates; self time subtracts the directly nested spans.
    std::unordered_map<std::uint64_t, std::uint64_t> child_ns;
    for (const SpanRecord& span : spans) {
      if (span.parent != 0) {
        child_ns[span.parent] += span.end_ns - span.start_ns;
      }
    }
    struct Agg {
      std::uint64_t count = 0;
      std::uint64_t total_ns = 0;
      std::uint64_t self_ns = 0;
    };
    std::map<std::string, Agg> by_name;
    for (const SpanRecord& span : spans) {
      Agg& agg = by_name[span.name];
      const std::uint64_t dur = span.end_ns - span.start_ns;
      const auto nested = child_ns.find(span.id);
      ++agg.count;
      agg.total_ns += dur;
      agg.self_ns += dur - std::min(
          dur, nested == child_ns.end() ? 0 : nested->second);
    }
    Table table({"span", "count", "total_ms", "self_ms"});
    for (const auto& [name, agg] : by_name) {
      table.add_row({name, std::to_string(agg.count),
                     num(static_cast<double>(agg.total_ns) / 1e6, 4),
                     num(static_cast<double>(agg.self_ns) / 1e6, 4)});
    }
    out << "spans (" << spans.size() << " recorded)\n" << table.to_text();
  }

  if (!snapshot.counters.empty()) {
    Table table({"counter", "value"});
    for (const auto& [name, value] : snapshot.counters) {
      table.add_row({name, std::to_string(value)});
    }
    out << "counters\n" << table.to_text();
  }

  if (!snapshot.gauges.empty()) {
    Table table({"gauge", "value"});
    for (const auto& [name, value] : snapshot.gauges) {
      table.add_row({name, num(value)});
    }
    out << "gauges\n" << table.to_text();
  }

  if (!snapshot.histograms.empty()) {
    Table table({"histogram", "count", "mean", "p_max_le"});
    for (const HistogramSnapshot& hist : snapshot.histograms) {
      const double mean =
          hist.count == 0
              ? 0.0
              : static_cast<double>(hist.sum) / static_cast<double>(hist.count);
      const std::uint64_t max_le =
          hist.buckets.empty() ? 0 : hist.buckets.back().first;
      table.add_row({hist.name, std::to_string(hist.count), num(mean),
                     std::to_string(max_le)});
    }
    out << "histograms\n" << table.to_text();
  }

  return out.str();
}

}  // namespace dvf::obs
