// Serve-path latency harness.
//
// The `dvfc serve` daemon exists to amortize the DSL front end across
// repeat traffic, so the number this harness pins is the cold-compile vs
// cache-hit latency split (same request, miss path runs lex/parse/analyze,
// hit path skips them), plus the admission-control behavior the robustness
// contract promises: offered load at 2x queue capacity sheds with typed
// `overloaded` responses instead of queueing unboundedly.
//
//   - cold_compile: N distinct sources (a varied param literal defeats the
//     source-fingerprint cache) through one Engine; per-request latency.
//   - cache_hit:    the same source N times; first request warms, the rest
//     are hits.
//   - shed_2x:      a real Server on a Unix socket, one worker pinned on a
//     slow evaluation, then a burst of 2x queue_capacity frames; counts
//     overloaded responses against total offered.
//   - hit_split:    what one cache hit of a vector-multiply source (two
//     machines, three streamed structures) spends on each step, timed one
//     step at a time: the whole hit, frame decode, source fingerprint, the
//     estimators, number formatting, and one default thread-count
//     resolution (the calculator resolves it only for models of at least
//     kParallelStructureThreshold structures).
//
// Writes BENCH_serve.json (schema-checked by scripts/check_bench_json.py).
// Set DVF_BENCH_QUICK=1 for a smaller request count (CI smoke).
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "dvf/dsl/analyzer.hpp"
#include "dvf/dsl/parser.hpp"
#include "dvf/dvf/calculator.hpp"
#include "dvf/kernels/kernel_common.hpp"
#include "dvf/obs/obs.hpp"
#include "dvf/parallel/thread_pool.hpp"
#include "dvf/patterns/estimate.hpp"
#include "dvf/report/table.hpp"
#include "dvf/serve/cache.hpp"
#include "dvf/serve/engine.hpp"
#include "dvf/serve/json.hpp"
#include "dvf/serve/protocol.hpp"
#include "dvf/serve/server.hpp"

namespace {

using dvf::serve::Engine;
using dvf::serve::json_escape_string;

std::string model_source(unsigned variant) {
  return "param n = " + std::to_string(256 + variant) +
         ";\n"
         "model \"bench\" {\n"
         "  time 0.5;\n"
         "  data A { elements n; element_size 8; }\n"
         "  pattern A stream { stride 1; repeat 4; }\n"
         "  data B { elements 2 * n; element_size 4; }\n"
         "  pattern B random { visits n; iterations 4; }\n"
         "}\n";
}

std::string eval_frame(std::uint64_t id, const std::string& source) {
  return "{\"id\":" + std::to_string(id) +
         ",\"op\":\"eval\",\"source\":" + json_escape_string(source) + "}";
}

struct LatencyStats {
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

LatencyStats summarize(std::vector<double>& samples_us) {
  LatencyStats stats;
  if (samples_us.empty()) {
    return stats;
  }
  double sum = 0.0;
  for (const double v : samples_us) {
    sum += v;
  }
  stats.mean_us = sum / static_cast<double>(samples_us.size());
  std::sort(samples_us.begin(), samples_us.end());
  stats.p50_us = samples_us[samples_us.size() / 2];
  stats.p99_us = samples_us[samples_us.size() * 99 / 100];
  return stats;
}

/// Runs `n` frames through the engine, one timed handle_line each. The
/// frame factory receives the request index.
template <typename FrameFn>
LatencyStats timed_requests(Engine& engine, std::uint64_t n,
                            FrameFn&& frame_of) {
  std::vector<double> samples_us;
  samples_us.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::string frame = frame_of(i);
    const dvf::kernels::Stopwatch watch;
    const std::string response = engine.handle_line(frame);
    samples_us.push_back(watch.seconds() * 1e6);
    if (response.find("\"ok\":true") == std::string::npos) {
      std::cerr << "serve_latency: request failed: " << response << "\n";
      std::exit(1);
    }
  }
  return samples_us.empty() ? LatencyStats{} : summarize(samples_us);
}

/// Connects to the bench server's socket; exits on failure (the bench just
/// started it, so failure is a harness bug, not a measurement).
int connect_to(const std::string& path) {
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("serve_latency: socket");
    std::exit(1);
  }
  struct sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
  if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof addr) !=
      0) {
    close(fd);
    return -1;
  }
  return fd;
}

/// Reads whole lines from `fd` until `want` lines arrived, EOF, or the
/// deadline passes — counting by line rather than waiting for EOF keeps
/// the harness independent of when the server closes the connection.
std::vector<std::string> read_lines(int fd, std::size_t want,
                                    double deadline_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(deadline_s));
  std::string buffer;
  std::vector<std::string> lines;
  char chunk[4096];
  while (lines.size() < want &&
         std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = read(fd, chunk, sizeof chunk);
    if (n == 0) {
      break;
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t begin = 0;
    for (std::size_t i = 0; i < buffer.size(); ++i) {
      if (buffer[i] == '\n') {
        lines.push_back(buffer.substr(begin, i - begin));
        begin = i + 1;
      }
    }
    buffer.erase(0, begin);
  }
  return lines;
}

struct ShedOutcome {
  std::uint64_t offered = 0;
  std::uint64_t answered = 0;
  std::uint64_t shed = 0;
};

/// Floods a one-worker server with 2x queue_capacity eval frames while the
/// worker is pinned on a slow evaluation, then counts the typed
/// `overloaded` responses. Every offered frame must be answered.
ShedOutcome measure_shed(const std::string& socket_path) {
  dvf::serve::ServerConfig config;
  config.socket_path = socket_path;
  config.workers = 1;
  config.queue_capacity = 8;
  config.drain_grace_s = 30.0;
  // A template replay slow enough (~ms) that the burst outruns the worker.
  config.engine.max_expansion = std::uint64_t{1} << 20;
  dvf::serve::Server server(config);
  std::thread runner([&server] {
    if (server.run() != 0) {
      std::cerr << "serve_latency: server failed to start\n";
    }
  });

  int fd = -1;
  for (int i = 0; i < 2000 && (fd = connect_to(socket_path)) < 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (fd < 0) {
    std::cerr << "serve_latency: could not reach " << socket_path << "\n";
    std::exit(1);
  }

  const std::string slow =
      "model \"slow\" {\n"
      "  time 1;\n"
      "  data T { elements 262144; element_size 8; }\n"
      "  pattern T template { start (0); step 1; count 262144; repeat 4; }\n"
      "}\n";
  ShedOutcome outcome;
  std::string burst;
  const std::uint64_t frames = 2 * config.queue_capacity + 2;
  for (std::uint64_t i = 0; i < frames; ++i) {
    burst += eval_frame(i, slow);
    burst += "\n";
    ++outcome.offered;
  }
  std::size_t written = 0;
  while (written < burst.size()) {
    const ssize_t n =
        write(fd, burst.data() + written, burst.size() - written);
    if (n <= 0) {
      std::cerr << "serve_latency: burst write failed\n";
      std::exit(1);
    }
    written += static_cast<std::size_t>(n);
  }
  shutdown(fd, SHUT_WR);
  const std::vector<std::string> responses =
      read_lines(fd, outcome.offered, /*deadline_s=*/120.0);
  close(fd);
  for (const std::string& line : responses) {
    ++outcome.answered;
    if (line.find("\"kind\":\"overloaded\"") != std::string::npos) {
      ++outcome.shed;
    }
  }

  server.request_stop();
  runner.join();
  unlink(socket_path.c_str());
  return outcome;
}

/// The vector-multiply shape of the pipeline benchmark's serve_mix
/// workload: three streams, on a laptop and a chipkill server.
constexpr const char* kVmSource =
    "// Vector multiply (paper §III-D): three streamed arrays, A read with a\n"
    R"dsl(// stride, evaluated on a laptop and a chipkill-protected server.
param n = 517;       // elements referenced per array
param elem = 8;      // bytes per element
param skip = 4;      // A's stride in elements
param a_elements = n * skip;
param b_elements = n;
param c_elements = n;

machine "laptop" {
  cache { associativity 4; sets 64; line 32; }
  memory { fit 5000; }  // unprotected DRAM, FIT/Mbit
}
machine "server" {
  cache { associativity 16; sets 4096; line 64; }
  memory { ecc "chipkill"; }
}

model "VM-517" {
  time 0.001234;
  data A { elements a_elements; element_size elem; }
  pattern A stream { stride skip; }
  data B { elements b_elements; element_size elem; }
  pattern B stream { stride 1; }
  data C { elements c_elements; element_size elem; }
  pattern C stream { stride 1; }
}
)dsl";

/// Median over 41 batches of `inner` calls, in microseconds per call.
template <typename Step>
double median_us(std::uint64_t inner, Step&& step) {
  std::vector<double> batches;
  for (int batch = 0; batch < 41; ++batch) {
    const dvf::kernels::Stopwatch watch;
    for (std::uint64_t i = 0; i < inner; ++i) {
      step();
    }
    batches.push_back(watch.seconds() * 1e6 / static_cast<double>(inner));
  }
  std::sort(batches.begin(), batches.end());
  return batches[batches.size() / 2];
}

struct HitSplit {
  std::uint64_t frame_bytes = 0;
  std::uint64_t pairs = 0;    ///< (machine, model) evaluations per hit
  std::uint64_t numbers = 0;  ///< doubles formatted per response
  double hit_us = 0.0;
  double decode_us = 0.0;
  double fingerprint_us = 0.0;
  double estimators_us = 0.0;
  double format_us = 0.0;
  double thread_count_us = 0.0;  ///< one resolve_thread_count(0) call
};

HitSplit measure_hit_split(std::uint64_t inner) {
  const std::string source = kVmSource;
  const std::string frame = eval_frame(1, source);
  Engine engine;
  (void)engine.handle_line(frame);  // the miss that fills the cache

  dvf::dsl::DiagnosticEngine diags;
  const dvf::dsl::CompiledProgram program =
      dvf::dsl::analyze(dvf::dsl::parse(source), diags);
  HitSplit split;
  split.frame_bytes = frame.size();
  std::vector<double> numbers;
  for (const dvf::Machine& machine : program.machines) {
    const dvf::DvfCalculator calculator(machine);
    for (const dvf::ModelSpec& model : program.models) {
      const dvf::ApplicationDvf app =
          calculator.try_for_model(model).value_or_throw();
      ++split.pairs;
      numbers.insert(numbers.end(), {app.exec_time_seconds, app.total});
      for (const dvf::StructureDvf& s : app.structures) {
        numbers.insert(numbers.end(), {s.size_bytes, s.n_ha, s.n_error, s.dvf});
      }
    }
  }
  split.numbers = numbers.size();

  std::size_t sink = 0;
  split.hit_us =
      median_us(inner, [&] { sink += engine.handle_line(frame).size(); });
  split.decode_us = median_us(inner, [&] {
    sink += dvf::serve::parse_request(frame).request.source.size();
  });
  split.fingerprint_us =
      median_us(inner, [&] { sink += dvf::serve::fnv1a64(source); });
  split.estimators_us = median_us(inner, [&] {
    for (const dvf::Machine& machine : program.machines) {
      for (const dvf::ModelSpec& model : program.models) {
        for (const dvf::DataStructureSpec& ds : model.structures) {
          sink += static_cast<std::size_t>(
              dvf::try_estimate_accesses(
                  std::span<const dvf::PatternSpec>(ds.patterns), machine.llc,
                  nullptr)
                  .value_or_throw());
        }
      }
    }
  });
  split.format_us = median_us(inner, [&] {
    for (const double x : numbers) {
      sink += dvf::serve::json_number(x).size();
    }
  });
  split.thread_count_us = median_us(
      inner, [&] { sink += dvf::parallel::resolve_thread_count(0); });
  if (sink == 0) {
    std::cerr << "serve_latency: hit split measured nothing\n";
  }
  return split;
}

}  // namespace

int main() {
  std::cout << dvf::banner(
      "dvfc serve latency: cold-compile vs compiled-model-cache hit, and "
      "load shedding at 2x queue capacity");

  const bool quick = std::getenv("DVF_BENCH_QUICK") != nullptr;
  const std::uint64_t requests = quick ? 50 : 400;

  dvf::obs::set_enabled(true);

  Engine engine;
  // Cold: every source distinct, so every request runs lex/parse/analyze.
  const LatencyStats cold = timed_requests(engine, requests, [](auto i) {
    return eval_frame(i, model_source(static_cast<unsigned>(i)));
  });
  // Hit: one warming request, then the same bytes over and over. The
  // variant only has to be distinct from every cold source (so the warming
  // request is a genuine miss); it must stay the same size so the hit/miss
  // split isolates the front end, not the evaluation.
  const std::string warm_source =
      model_source(static_cast<unsigned>(requests) + 1);
  (void)engine.handle_line(eval_frame(0, warm_source));
  const LatencyStats hit = timed_requests(engine, requests, [&](auto i) {
    return eval_frame(i + 1, warm_source);
  });

  const std::string socket_path =
      "/tmp/dvf_serve_bench_" + std::to_string(getpid()) + ".sock";
  const ShedOutcome shed = measure_shed(socket_path);
  const double shed_rate = shed.offered == 0
                               ? 0.0
                               : static_cast<double>(shed.shed) /
                                     static_cast<double>(shed.offered);

  const HitSplit split = measure_hit_split(quick ? 20 : 200);

  dvf::Table table({"scenario", "mean (us)", "p50 (us)", "p99 (us)"});
  table.add_row({"cold compile", dvf::num(cold.mean_us, 1),
                 dvf::num(cold.p50_us, 1), dvf::num(cold.p99_us, 1)});
  table.add_row({"cache hit", dvf::num(hit.mean_us, 1),
                 dvf::num(hit.p50_us, 1), dvf::num(hit.p99_us, 1)});
  table.add_row(
      {"shed @2x", dvf::num(static_cast<double>(shed.shed), 0) + "/" +
                       dvf::num(static_cast<double>(shed.offered), 0),
       "-", "-"});
  std::cout << table << "\n";

  dvf::Table steps({"hit step (VM, " + std::to_string(split.frame_bytes) +
                        "-byte frame)",
                    "us per request (median)"});
  steps.add_row({"whole hit", dvf::num(split.hit_us, 2)});
  steps.add_row({"frame decode", dvf::num(split.decode_us, 2)});
  steps.add_row({"fingerprint", dvf::num(split.fingerprint_us, 2)});
  steps.add_row({"estimators (" + std::to_string(split.pairs) + " pairs)",
                 dvf::num(split.estimators_us, 2)});
  steps.add_row({"number formatting (" + std::to_string(split.numbers) +
                     " numbers)",
                 dvf::num(split.format_us, 2)});
  steps.add_row({"one thread-count resolution",
                 dvf::num(split.thread_count_us, 2)});
  std::cout << steps << "\n";

  dvf::bench::JsonRecords json;
  json.add(dvf::bench::JsonRecords::Record{}
               .field("scenario", std::string("cold_compile"))
               .field("requests", requests)
               .field("mean_us", cold.mean_us)
               .field("p50_us", cold.p50_us)
               .field("p99_us", cold.p99_us));
  json.add(dvf::bench::JsonRecords::Record{}
               .field("scenario", std::string("cache_hit"))
               .field("requests", requests)
               .field("mean_us", hit.mean_us)
               .field("p50_us", hit.p50_us)
               .field("p99_us", hit.p99_us)
               .field("cache_hits", engine.cache().hits()));
  json.add(dvf::bench::JsonRecords::Record{}
               .field("scenario", std::string("shed_2x"))
               .field("offered", shed.offered)
               .field("answered", shed.answered)
               .field("shed", shed.shed)
               .field("shed_rate", shed_rate));
  json.add(dvf::bench::JsonRecords::Record{}
               .field("scenario", std::string("hit_split"))
               .field("frame_bytes", split.frame_bytes)
               .field("pairs", split.pairs)
               .field("numbers", split.numbers)
               .field("hit_us", split.hit_us)
               .field("decode_us", split.decode_us)
               .field("fingerprint_us", split.fingerprint_us)
               .field("estimators_us", split.estimators_us)
               .field("format_us", split.format_us)
               .field("thread_count_us", split.thread_count_us));
  json.set_metrics(
      dvf::obs::render_metrics_json(dvf::obs::snapshot_metrics()));
  json.write("serve");
  return 0;
}
