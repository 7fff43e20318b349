// dvf_bench: one benchmark for the DVF pipeline.
//
//   dvf_bench [--workload serve_mix|model_eval|verify_replay|campaign|all]
//             [--seed N] [--seconds S] [--trace FILE] [--out FILE]
//
// Each workload prints one JSON line: the correctness verdict, operation
// counts and every metric by name with its unit, the end-to-end metrics in
// an untraced run. `all` (the default) runs every workload in its own child
// process, so peak_rss_mb is per workload. --trace makes the run a traced
// run: it reports the per-layer metrics instead and writes a Chrome trace
// to FILE. --out appends the JSON lines to FILE.
// DVF_BENCH_QUICK=1 shrinks every run to smoke-test size.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "dvf/obs/trace_export.hpp"
#include "dvf/serve/json.hpp"

extern char** environ;

namespace dvf::bench {

void Report::fail(const std::string& what) {
  correct = false;
  ++failed;
  std::cerr << "dvf_bench: " << workload << ": check failed: " << what
            << "\n";
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

Windows::Windows(double pass_seconds, double tail_q)
    : window_s_(std::min(1.0, pass_seconds / 10.0)),
      tail_q_(tail_q),
      open_(Clock::now()) {}

void Windows::record(double latency_us, double work) {
  open_us_.push_back(latency_us);
  open_work_ += work;
  sum_us_ += latency_us;
  ++operations_;
}

void Windows::tick() {
  const double seconds = seconds_since(open_);
  if (seconds >= window_s_) {
    close(seconds);
  }
}

void Windows::finish() {
  const double seconds = seconds_since(open_);
  if (!open_us_.empty() && (p50_us_.empty() || seconds >= window_s_ / 2.0)) {
    close(seconds);
  }
}

void Windows::close(double seconds) {
  if (open_us_.empty()) {
    open_ = Clock::now();
    return;
  }
  p50_us_.push_back(percentile(open_us_, 0.5));
  tail_us_.push_back(percentile(open_us_, tail_q_));
  work_per_s_.push_back(open_work_ / seconds);
  open_us_.clear();
  open_work_ = 0.0;
  open_ = Clock::now();
}

void Windows::merge(const Windows& other) {
  const std::size_t n = std::min(p50_us_.size(), other.p50_us_.size());
  p50_us_.resize(n);
  tail_us_.resize(n);
  work_per_s_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    p50_us_[i] = (p50_us_[i] + other.p50_us_[i]) / 2.0;
    tail_us_[i] = (tail_us_[i] + other.tail_us_[i]) / 2.0;
    work_per_s_[i] += other.work_per_s_[i];
  }
  sum_us_ += other.sum_us_;
  operations_ += other.operations_;
}

void Windows::report(Report& report) const {
  report.metric("lat_p50_us", p50_us(), "us");
  report.metric("lat_tail_us", tail_us(), "us");
  report.metric("work_per_s", work_per_s(), "1/s");
}

RoundBest::RoundBest(std::size_t operations, double tail_q)
    : tail_q_(tail_q), best_us_(operations, 0.0), work_(operations, 0.0) {}

void RoundBest::record(std::size_t op, double latency_us, double work) {
  double& best = best_us_.at(op);
  best = best == 0.0 ? latency_us : std::min(best, latency_us);
  work_[op] = work;
  sum_us_ += latency_us;
  ++samples_;
}

void RoundBest::report(Report& report) const {
  std::vector<double> best;
  double round_us = 0.0;
  double round_work = 0.0;
  for (std::size_t op = 0; op < best_us_.size(); ++op) {
    if (best_us_[op] > 0.0) {
      best.push_back(best_us_[op]);
      round_us += best_us_[op];
      round_work += work_[op];
    }
  }
  report.metric("lat_p50_us", percentile(best, 0.5), "us");
  report.metric("lat_tail_us", percentile(best, tail_q_), "us");
  report.metric("work_per_s", round_us > 0.0 ? 1e6 * round_work / round_us : 0.0,
                "1/s");
}

void Layers::merge(const Layers& other) {
  for (const auto& [name, total] : other.totals_) {
    Total& mine = totals_[name];
    mine.us += total.us;
    mine.calls += total.calls;
  }
}

Layers::Total Layers::get(const char* name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? Total{} : it->second;
}

double Layers::mean_us(const char* name) const {
  const Total total = get(name);
  return total.calls == 0 ? 0.0
                          : total.us / static_cast<double>(total.calls);
}

void Digest::add(std::uint64_t value) noexcept {
  for (int i = 0; i < 8; ++i) {
    state_ ^= (value >> (8 * i)) & 0xffU;
    state_ *= 0x100000001b3ULL;
  }
}

void Digest::add(const std::string& text) noexcept {
  for (const char c : text) {
    state_ ^= static_cast<unsigned char>(c);
    state_ *= 0x100000001b3ULL;
  }
  add(text.size());
}

std::string Digest::hex() const {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(state_));
  return buf;
}

}  // namespace dvf::bench

namespace {

using dvf::bench::Options;
using dvf::bench::Report;

constexpr std::string_view kWorkloads[] = {"serve_mix", "model_eval",
                                           "verify_replay", "campaign"};
/// Timed region per workload when --seconds is not given.
constexpr double kDefaultSeconds = 10.0;
constexpr double kQuickSeconds = 0.5;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "dvf_bench: " << why
            << "\nusage: dvf_bench [--workload "
               "serve_mix|model_eval|verify_replay|campaign|all] [--seed N] "
               "[--seconds S] [--trace FILE] [--out FILE]\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options options;
  options.quick = std::getenv("DVF_BENCH_QUICK") != nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      const auto [end, ec] = std::from_chars(
          value.data(), value.data() + value.size(), options.seed);
      if (ec != std::errc{} || end != value.data() + value.size()) {
        usage("--seed needs a non-negative integer");
      }
    } else if (flag == "--seconds") {
      char* end = nullptr;
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' ||
          !(options.seconds > 0.0 && options.seconds <= 60.0)) {
        usage("--seconds needs a number in (0, 60]");
      }
    } else if (flag == "--trace") {
      options.trace_path = value;
    } else if (flag == "--out") {
      options.out_path = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (options.workload != "all" &&
      std::find(std::begin(kWorkloads), std::end(kWorkloads),
                options.workload) == std::end(kWorkloads)) {
    usage("unknown workload " + options.workload);
  }
  if (options.seconds == 0.0) {
    options.seconds = options.quick ? kQuickSeconds : kDefaultSeconds;
  }
  return options;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

double peak_rss_mb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string render(const Options& options, const Report& report) {
  using dvf::serve::json_escape_string;
  using dvf::serve::json_number;
  std::string out = "{\"workload\":" + json_escape_string(report.workload);
  out += ",\"seed\":" + std::to_string(options.seed);
  out += ",\"seconds\":" + json_number(options.seconds);
  out += ",\"traced\":";
  out += options.traced() ? "true" : "false";
  out += ",\"hardware_threads\":" +
         std::to_string(std::thread::hardware_concurrency());
  out += ",\"compiler\":" + json_escape_string(compiler());
  out += ",\"correct\":";
  out += report.correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(report.attempted);
  out += ",\"failed\":" + std::to_string(report.failed);
  out += ",\"digest\":" + json_escape_string(report.digest);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Report::Metric& m = report.metrics[i];
    out += i == 0 ? "" : ",";
    out += json_escape_string(m.name) + ":{\"value\":" +
           json_number(std::isfinite(m.value) ? m.value : 0.0) +
           ",\"unit\":" + json_escape_string(m.unit) + "}";
  }
  out += "}}";
  return out;
}

Report run_one(const Options& options) {
  if (options.workload == "serve_mix") {
    return dvf::bench::run_serve_mix(options);
  }
  if (options.workload == "model_eval") {
    return dvf::bench::run_model_eval(options);
  }
  if (options.workload == "verify_replay") {
    return dvf::bench::run_verify_replay(options);
  }
  return dvf::bench::run_campaign(options);
}

/// "trace.json" → "trace.<workload>.json", one trace per child.
std::string per_workload_path(const std::string& path,
                              std::string_view workload) {
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  const bool has_ext =
      dot != std::string::npos && (slash == std::string::npos || dot > slash);
  const std::size_t cut = has_ext ? dot : path.size();
  return path.substr(0, cut) + "." + std::string(workload) + path.substr(cut);
}

/// Runs every workload in its own child process, one after another.
int run_all(const Options& options) {
  int status_out = 0;
  for (const std::string_view workload : kWorkloads) {
    std::vector<std::string> args = {
        "dvf_bench",         "--workload", std::string(workload),
        "--seed",            std::to_string(options.seed),
        "--seconds",         dvf::serve::json_number(options.seconds)};
    if (options.traced()) {
      args.insert(args.end(),
                  {"--trace", per_workload_path(options.trace_path, workload)});
    }
    if (!options.out_path.empty()) {
      args.insert(args.end(), {"--out", options.out_path});
    }
    std::vector<char*> argv;
    for (std::string& arg : args) {
      argv.push_back(arg.data());
    }
    argv.push_back(nullptr);

    std::cout.flush();
    pid_t pid = 0;
    const int spawned = posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr,
                                    argv.data(), environ);
    if (spawned != 0) {
      std::cerr << "dvf_bench: cannot spawn " << workload << ": "
                << std::strerror(spawned) << "\n";
      return 1;
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
      if (errno != EINTR) {
        std::cerr << "dvf_bench: waitpid failed for " << workload << "\n";
        return 1;
      }
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::cerr << "dvf_bench: workload " << workload << " failed\n";
      status_out = 1;
    }
  }
  return status_out;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_options(argc, argv);
  if (options.workload == "all") {
    return run_all(options);
  }
  try {
    dvf::obs::set_enabled(false);
    Report report = run_one(options);
    if (options.traced()) {
      dvf::obs::write_chrome_trace(options.trace_path, "dvf_bench");
    } else {
      report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }
    const std::string line = render(options, report);
    std::cout << line << std::endl;
    if (!options.out_path.empty()) {
      std::ofstream out(options.out_path, std::ios::app);
      out << line << "\n";
      if (!out) {
        std::cerr << "dvf_bench: cannot append to " << options.out_path
                  << "\n";
        return 1;
      }
    }
    return report.correct && report.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "dvf_bench: " << options.workload << ": " << e.what()
              << "\n";
    return 1;
  }
}
