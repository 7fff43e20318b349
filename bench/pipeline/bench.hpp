// Shared pieces of the DVF pipeline benchmark (dvf_bench): run options, the
// per-workload report, timing helpers and the bench-side layer clock.
//
// Every workload follows one shape. A seeded generator builds the inputs,
// set-up runs `setup_repeats` times (setup_s is their median), then a timed
// region of `seconds` measures the end-to-end metrics with dvf::obs
// disabled. A traced run (--trace FILE) reports the per-layer metrics
// instead. It splits the region in two: an untraced half, then a half with
// dvf::obs enabled in which the bench times its own calls into each
// module's public functions. Per-layer metrics come from those calls only,
// never from span names emitted inside src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "dvf/common/rng.hpp"
#include "dvf/obs/obs.hpp"

namespace dvf::bench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
[[nodiscard]] inline double us_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

struct Options {
  std::string workload = "all";
  std::uint64_t seed = 2014;
  double seconds = 0.0;    ///< timed region per workload; 0 = default
  std::string trace_path;  ///< non-empty: traced run, Chrome trace here
  std::string out_path;    ///< non-empty: append the result line here
  bool quick = false;      ///< DVF_BENCH_QUICK: smoke-test sizes

  [[nodiscard]] bool traced() const noexcept { return !trace_path.empty(); }
  [[nodiscard]] int setup_repeats() const noexcept { return quick ? 1 : 5; }
  /// Seconds of one measured pass: the whole region untraced, half of it
  /// for each pass of a traced run.
  [[nodiscard]] double pass_seconds() const noexcept {
    return traced() ? seconds / 2.0 : seconds;
  }
};

/// Fisher-Yates shuffle of a round's operation order.
inline void shuffle(std::vector<std::size_t>& order, Xoshiro256& rng) {
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
}

/// Workloads made of fixed rounds end a pass only at a round boundary, so
/// every run measures the same mix of operations; a quick run may stop in
/// the middle of a round once its pass is over.
[[nodiscard]] inline bool stop_mid_round(const Options& options,
                                         Clock::time_point start) {
  return options.quick && seconds_since(start) >= options.pass_seconds();
}

/// One workload's outcome: the correctness verdict, the operation counts
/// and every metric measured, in insertion order.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  std::string workload;
  bool correct = true;
  std::uint64_t attempted = 0;  ///< operations in the timed region
  std::uint64_t failed = 0;     ///< operations that failed a check
  std::string digest;           ///< fingerprint of deterministic outputs
  std::vector<Metric> metrics;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed correctness check of one operation.
  void fail(const std::string& what);
};

/// Nearest-rank percentile (q in [0, 1]) of `samples`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> samples, double q);
[[nodiscard]] double median(std::vector<double> samples);

/// A timed pass cut into windows of one second (a tenth of shorter
/// passes). Each end-to-end timing is computed per window and the pass
/// reports its best window: the lowest latency and the highest rate. On a
/// shared host, co-tenants slow the same code by up to a third for seconds
/// at a time; the best window measures the host at its own speed in almost
/// every run, where a median follows whichever state lasted longer. A
/// change that slows the code slows every window. Only the open window
/// keeps its samples, so memory does not grow with the run.
class Windows {
 public:
  Windows(double pass_seconds, double tail_q);

  /// One finished operation and the work it completed.
  void record(double latency_us, double work = 1.0);
  /// Closes the open window once it has lasted its length. Call after each
  /// operation, or after each round where a window must hold whole rounds.
  void tick();
  /// Ends the pass: keeps the open window if it lasted half a window, or
  /// if no window closed yet.
  void finish();
  /// Folds in another client of the same pass: window i takes the mean of
  /// both clients' latencies and the sum of their rates.
  void merge(const Windows& other);

  [[nodiscard]] double p50_us() const { return percentile(p50_us_, 0.0); }
  [[nodiscard]] double tail_us() const { return percentile(tail_us_, 0.0); }
  [[nodiscard]] double work_per_s() const {
    return percentile(work_per_s_, 1.0);
  }
  /// Mean latency over every operation of the pass.
  [[nodiscard]] double mean_us() const {
    return operations_ == 0 ? 0.0
                            : sum_us_ / static_cast<double>(operations_);
  }
  [[nodiscard]] std::uint64_t operations() const noexcept {
    return operations_;
  }

  /// Adds lat_p50_us, lat_tail_us and work_per_s.
  void report(Report& report) const;

 private:
  void close(double seconds);

  double window_s_;
  double tail_q_;
  Clock::time_point open_;
  std::vector<double> open_us_;
  double open_work_ = 0.0;
  std::vector<double> p50_us_;
  std::vector<double> tail_us_;
  std::vector<double> work_per_s_;
  double sum_us_ = 0.0;
  std::uint64_t operations_ = 0;
};

/// The timings of a workload made of fixed rounds, where every round runs
/// the same operations. Each operation keeps its best time over the rounds
/// of the pass; percentiles run over the operations' best times, and the
/// rate is one round's work over the sum of those times. As with Windows,
/// the best of many rounds measures the host at its own speed.
class RoundBest {
 public:
  RoundBest(std::size_t operations, double tail_q);

  /// Operation `op` of the current round took `latency_us` and completed
  /// `work`, the same amount every round.
  void record(std::size_t op, double latency_us, double work = 1.0);

  [[nodiscard]] double mean_us() const {
    return samples_ == 0 ? 0.0 : sum_us_ / static_cast<double>(samples_);
  }
  [[nodiscard]] std::uint64_t samples() const noexcept { return samples_; }

  /// Adds lat_p50_us, lat_tail_us and work_per_s over the operations
  /// recorded at least once.
  void report(Report& report) const;

 private:
  double tail_q_;
  std::vector<double> best_us_;  ///< 0 = not recorded yet
  std::vector<double> work_;
  double sum_us_ = 0.0;
  std::uint64_t samples_ = 0;
};

/// Adds setup_s and the timings' end-to-end metrics. Only an untraced run
/// reports them: a traced run times two half-length passes, one of them
/// with tracing on.
template <typename Timings>
void add_end_to_end(Report& report, const Options& options, double setup_s,
                    const Timings& timings) {
  if (!options.traced()) {
    report.metric("setup_s", setup_s, "s");
    timings.report(report);
  }
}

/// obs.overhead_pct: how much longer an operation took with dvf::obs on.
template <typename Timings>
[[nodiscard]] double overhead_pct(const Timings& traced,
                                  const Timings& untraced) {
  const double base = untraced.mean_us();
  return base > 0.0 ? 100.0 * (traced.mean_us() / base - 1.0) : 0.0;
}

/// Accumulated wall time of the bench's calls into module functions, keyed
/// by span name ("bench.<module>.<call>").
class Layers {
 public:
  struct Total {
    double us = 0.0;
    std::uint64_t calls = 0;
  };

  void add(const char* name, double us) {
    Total& total = totals_[name];
    total.us += us;
    ++total.calls;
  }
  void merge(const Layers& other);
  [[nodiscard]] Total get(const char* name) const;
  /// Mean microseconds per call; 0 when never called.
  [[nodiscard]] double mean_us(const char* name) const;

 private:
  std::map<std::string, Total> totals_;
};

/// Times one call into a module: opens the obs span `name` (a string
/// literal) and adds the call's wall time to `layers` when it ends.
class LayerTimer {
 public:
  LayerTimer(Layers& layers, const char* name)
      : layers_(layers), name_(name), span_(name), start_(Clock::now()) {}
  ~LayerTimer() { layers_.add(name_, us_since(start_)); }
  LayerTimer(const LayerTimer&) = delete;
  LayerTimer& operator=(const LayerTimer&) = delete;

  [[nodiscard]] double elapsed_us() const { return us_since(start_); }

 private:
  Layers& layers_;
  const char* name_;
  obs::ScopedSpan span_;
  Clock::time_point start_;
};

/// 64-bit FNV-1a, for output digests.
class Digest {
 public:
  void add(std::uint64_t value) noexcept;
  void add(const std::string& text) noexcept;
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/// Runs `setup` `repeats` times and returns the median wall time in
/// seconds; the last set-up's state is the one the workload measures.
template <typename Setup>
double timed_setup(int repeats, Setup&& setup) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    const Clock::time_point start = Clock::now();
    setup();
    times.push_back(seconds_since(start));
  }
  return median(times);
}

/// The four workloads. Each returns its report with the end-to-end
/// metrics, plus the per-layer metrics when `options.traced()`.
Report run_serve_mix(const Options& options);
Report run_model_eval(const Options& options);
Report run_verify_replay(const Options& options);
Report run_campaign(const Options& options);

}  // namespace dvf::bench
