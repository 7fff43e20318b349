// Cache-simulator hot-path throughput harness, and the cost ledger of the
// paper's §I claim that DVF is evaluated in seconds.
//
// The trace-driven simulator is the cost DVF's analytical models avoid, and
// every validation experiment replays through it — so its accesses/sec is a
// first-class performance number. This harness drives the simulator with
// synthetic reference strings that isolate the hot-path ingredients (the
// power-of-two set-index mask vs the modulo fallback, the per-call access()
// entry vs the batched replay() loop, set-sharded parallel replay at 1-8
// threads, the PLRU/RRIP policy scans) and measures the trace wire format
// (delta+run encoded size, plus chunked streaming replay). Beside those it
// records the other side of the comparison: ns per call of each analytical
// pattern estimator, the VM kernel bare vs driven through the simulator, and
// the per-primitive costs of the obs layer and of a disabled failpoint. It
// emits BENCH_cachesim.json so the trajectory is tracked run over run.
//
// Each in-memory replay scenario reports the fastest of three runs. Set
// DVF_BENCH_QUICK=1 for a 10x-smaller corpus and shorter timing loops,
// without the largest size of each estimator family (CI smoke); every record
// carries hardware_threads so sharded numbers are read against the cores
// that were actually available.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "bench_json.hpp"
#include "dvf/cachesim/cache_simulator.hpp"
#include "dvf/cachesim/replacement.hpp"
#include "dvf/cachesim/sharded_replay.hpp"
#include "dvf/common/failpoint.hpp"
#include "dvf/common/rng.hpp"
#include "dvf/dsl/analyzer.hpp"
#include "dvf/kernels/kernel_common.hpp"
#include "dvf/kernels/vm.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/obs/obs.hpp"
#include "dvf/patterns/random.hpp"
#include "dvf/patterns/reuse.hpp"
#include "dvf/patterns/streaming.hpp"
#include "dvf/patterns/template_access.hpp"
#include "dvf/report/table.hpp"
#include "dvf/trace/trace_io.hpp"
#include "dvf/trace/trace_reader.hpp"

namespace {

constexpr std::uint32_t kStructures = 8;

bool quick_mode() {
  const char* quick = std::getenv("DVF_BENCH_QUICK");
  return quick != nullptr && *quick != '\0' && *quick != '0';
}

/// Keeps timed results observable so the calls cannot be folded away.
volatile double g_sink = 0.0;

/// Mean nanoseconds per call of `fn` and the number of calls made. Calls
/// run in doubling batches, reading the clock once per batch, until
/// `min_seconds` have passed (at least one call).
template <typename Fn>
std::pair<double, std::uint64_t> ns_per_call(Fn&& fn, double min_seconds) {
  std::uint64_t calls = 0;
  const dvf::kernels::Stopwatch watch;
  for (std::uint64_t batch = 1;; batch *= 2) {
    for (std::uint64_t i = 0; i < batch; ++i) {
      fn();
    }
    calls += batch;
    const double elapsed = watch.seconds();
    if (elapsed >= min_seconds) {
      return {elapsed * 1e9 / static_cast<double>(calls), calls};
    }
  }
}

/// A stencil-like template written out as an explicit reference string:
/// 5 references per point over an n^3 grid.
dvf::TemplateSpec stencil_template(std::uint64_t n) {
  dvf::TemplateSpec spec;
  spec.element_bytes = 8;
  for (std::uint64_t i = 1; i + 1 < n; ++i) {
    for (std::uint64_t j = 1; j + 1 < n; ++j) {
      for (std::uint64_t k = 0; k < n; ++k) {
        const std::uint64_t center = (i * n + j) * n + k;
        spec.starts.push_back(center - n);
        spec.starts.push_back(center + n);
        spec.starts.push_back(center - n * n);
        spec.starts.push_back(center + n * n);
        spec.starts.push_back(center);
      }
    }
  }
  return spec;
}

/// The MG smoother sweep of models/mg.aspen on an n^3 grid of 16-byte
/// cells, in its DSL form (four stencil references advancing one cell per
/// iteration), with a 1/64 cache share the sweep does not fit and 4 sweeps.
dvf::TemplateSpec mg_progression(std::uint64_t n) {
  const dvf::dsl::CompiledProgram program = dvf::dsl::compile(
      "param n = " + std::to_string(n) + R"dsl(;
model "MG" {
  time 1;
  data R { elements n * n * n; element_size 16; }
  pattern R template {
    start (2*n*n + 1, 2*n*n + 2*n + 1, n*n + n + 1, 2*n*n + n + 1);
    step 1;
    count n * (n - 2);
    repeat 4;
    ratio 1 / 64;
  }
}
)dsl");
  return std::get<dvf::TemplateSpec>(
      program.models.front().structures.front().patterns.front());
}

std::vector<dvf::MemoryRecord> make_trace(std::uint64_t accesses,
                                          bool random) {
  std::vector<dvf::MemoryRecord> records;
  records.reserve(accesses);
  dvf::Xoshiro256 rng(2014);
  std::uint64_t addr = 0;
  for (std::uint64_t i = 0; i < accesses; ++i) {
    addr = random ? rng.below(1u << 28) : addr + 8;
    records.push_back({addr, 8,
                       static_cast<dvf::DsId>(i % kStructures),
                       (i & 7) == 0});
  }
  return records;
}

std::vector<dvf::DataStructureInfo> bench_structures() {
  std::vector<dvf::DataStructureInfo> structures;
  for (std::uint32_t i = 0; i < kStructures; ++i) {
    structures.push_back({"ds" + std::to_string(i),
                          std::uint64_t{i} << 32, 1u << 28, 8});
  }
  return structures;
}

struct Scenario {
  const char* name;
  dvf::CacheConfig cache;
  bool random;
  bool batched;  ///< replay() vs per-record access()
  unsigned threads = 1;
  dvf::ReplacementPolicy policy = dvf::ReplacementPolicy::kLru;
  bool observed = false;  ///< obs layer recording during the run
};

double run_once(const Scenario& scenario,
                const std::vector<dvf::MemoryRecord>& records) {
  if (scenario.threads > 1) {
    dvf::ShardedReplayer sim(scenario.cache, scenario.threads,
                             scenario.policy);
    sim.reserve_structures(kStructures);
    const dvf::kernels::Stopwatch watch;
    sim.replay(records);
    sim.flush();
    return watch.seconds();
  }
  dvf::CacheSimulator sim(scenario.cache, scenario.policy);
  sim.reserve_structures(kStructures);
  const dvf::kernels::Stopwatch watch;
  if (scenario.batched) {
    sim.replay(records);
  } else {
    for (const dvf::MemoryRecord& r : records) {
      sim.access(r.address, r.size, r.is_write, r.ds);
    }
  }
  sim.flush();
  return watch.seconds();
}

/// Fastest of three runs, so one run preempted on a shared host does not
/// set the record.
double run(const Scenario& scenario,
           const std::vector<dvf::MemoryRecord>& records) {
  double best = run_once(scenario, records);
  for (int rep = 1; rep < 3; ++rep) {
    best = std::min(best, run_once(scenario, records));
  }
  return best;
}

}  // namespace

int main() {
  std::cout << dvf::banner(
      "Cache-simulator hot path: mask vs modulo set indexing, batched "
      "replay vs per-call access, sharded replay, trace format");

  const bool quick = quick_mode();
  const std::uint64_t accesses = quick ? 400'000 : 4'000'000;
  const std::uint64_t hardware_threads =
      std::max(1u, std::thread::hardware_concurrency());
  const double min_seconds = quick ? 0.02 : 0.2;
  using Record = dvf::bench::JsonRecords::Record;
  const auto record = [&](const std::string& scenario) {
    Record r;
    r.field("scenario", scenario).field("hardware_threads", hardware_threads);
    return r;
  };

  // 8192 sets (power of two → mask path) vs 6144 sets (modulo fallback);
  // both 8-way with 64 B lines so per-probe work is comparable.
  const dvf::CacheConfig pow2("pow2-8192set", 8, 8192, 64);
  const dvf::CacheConfig nonpow2("mod-6144set", 8, 6144, 64);

  const std::vector<Scenario> scenarios = {
      {"seq_access_pow2", pow2, false, false},
      {"seq_replay_pow2", pow2, false, true},
      {"seq_replay_modulo", nonpow2, false, true},
      {"rand_access_pow2", pow2, true, false},
      {"rand_replay_pow2", pow2, true, true},
      // The same replay with the obs layer recording, run next to it so
      // enabled_overhead_pct compares like with like; the layer promises
      // no per-reference work (docs/observability.md).
      {"rand_replay_pow2_obs", pow2, true, true, 1,
       dvf::ReplacementPolicy::kLru, true},
      {"rand_replay_modulo", nonpow2, true, true},
      // Policy scans on the single-stream hot path: PLRU reads one bit
      // vector, RRIP may loop over ages — both priced against true LRU.
      {"rand_replay_plru", pow2, true, true, 1,
       dvf::ReplacementPolicy::kPlru},
      {"rand_replay_rrip", pow2, true, true, 1,
       dvf::ReplacementPolicy::kRrip},
      // Set-sharded replay: every worker scans the full span and keeps the
      // sets it owns, so speedup needs real cores (see docs/performance.md
      // "When sharding loses").
      {"seq_sharded_2t", pow2, false, true, 2},
      {"seq_sharded_4t", pow2, false, true, 4},
      {"seq_sharded_8t", pow2, false, true, 8},
      {"rand_sharded_2t", pow2, true, true, 2},
      {"rand_sharded_4t", pow2, true, true, 4},
      {"rand_sharded_8t", pow2, true, true, 8},
  };

  const auto sequential = make_trace(accesses, /*random=*/false);
  const auto random = make_trace(accesses, /*random=*/true);

  dvf::bench::JsonRecords json;
  dvf::Table table(
      {"scenario", "cache", "thr", "policy", "wall_s", "Maccesses/s"});
  const auto replay_record = [&](const Scenario& scenario, double seconds) {
    const double rate = static_cast<double>(accesses) / seconds;
    table.add_row({scenario.name, scenario.cache.name(),
                   dvf::num(static_cast<double>(scenario.threads)),
                   dvf::policy_name(scenario.policy),
                   dvf::num(seconds, 3), dvf::num(rate / 1e6, 2)});
    Record r = record(scenario.name);
    r.field("cache", scenario.cache.name())
        .field("accesses", accesses)
        .field("threads", scenario.threads)
        .field("policy", std::string(dvf::policy_name(scenario.policy)))
        .field("wall_s", seconds)
        .field("accesses_per_s", rate);
    return r;
  };
  double unobserved_seconds = 0.0;
  for (const Scenario& scenario : scenarios) {
    const auto& records = scenario.random ? random : sequential;
    dvf::obs::set_enabled(scenario.observed);
    const double seconds = run(scenario, records);
    dvf::obs::set_enabled(false);
    Record r = replay_record(scenario, seconds);
    if (scenario.observed) {
      r.field("enabled_overhead_pct",
              100.0 * (seconds - unobserved_seconds) / seconds);
    }
    unobserved_seconds = seconds;
    json.add(r);
  }

  // Trace wire format: delta+run LE chunks, on the corpora above, in bytes
  // per record. The sequential corpus is the encoder's best case (constant
  // stride collapses to runs); the random corpus its worst (every delta is a
  // fresh ~28-bit zigzag varint).
  const auto structures = bench_structures();
  for (const bool is_random : {false, true}) {
    const auto& records = is_random ? random : sequential;
    const char* corpus = is_random ? "rand" : "seq";
    std::ostringstream v2;
    dvf::write_trace(v2, structures, records);
    const std::uint64_t v2_bytes = v2.str().size();
    const double bytes_per_record =
        static_cast<double>(v2_bytes) / static_cast<double>(accesses);
    table.add_row({std::string("trace_size_") + corpus, "v2", "-", "-", "-",
                   dvf::num(bytes_per_record, 3) + " B/record"});
    Record size_record = record(std::string("trace_size_") + corpus);
    size_record.field("records", accesses)
        .field("v2_bytes", v2_bytes)
        .field("bytes_per_record", bytes_per_record);
    json.add(size_record);

    // Streamed v2 replay: decode chunk-by-chunk straight into the sharded
    // replayer, the `dvfc replay` path. Priced against the in-memory replay
    // numbers above to expose the decode cost.
    std::istringstream stream(v2.str());
    dvf::TraceReader reader(stream);
    dvf::ShardedReplayer sim(pow2, 1);
    sim.reserve_structures(kStructures);
    const dvf::kernels::Stopwatch watch;
    sim.replay_stream(reader);
    sim.flush();
    const std::string name = std::string("v2_stream_replay_") + corpus;
    const Scenario streamed = {name.c_str(), pow2, is_random, true};
    json.add(replay_record(streamed, watch.seconds()));
  }

  // Analytical estimator costs, the model side of the §I cost claim: one
  // call per pattern family and size on the 8MB profiling cache. Quick runs
  // drop the largest size of each family.
  const dvf::CacheConfig profiling = dvf::caches::profiling_8mb();
  const auto model_record = [&](const char* family, const std::string& size,
                                const auto& estimate) {
    const auto [ns, calls] = ns_per_call(
        [&] { g_sink = g_sink + estimate(profiling).value_or_throw(); },
        min_seconds);
    const std::string name = std::string("model_") + family + "_" + size;
    table.add_row({name, profiling.name(), "1", "-", "-",
                   dvf::num(ns, 4) + " ns/call"});
    Record r = record(name);
    r.field("family", std::string(family))
        .field("cache", profiling.name())
        .field("capacity_bytes", profiling.capacity_bytes())
        .field("calls", calls)
        .field("ns_per_call", ns);
    return r;
  };
  const auto sizes = [quick](std::vector<std::uint64_t> all) {
    if (quick) {
      all.pop_back();
    }
    return all;
  };
  for (const std::uint64_t n : sizes({1'000, 1'000'000, 100'000'000})) {
    dvf::StreamingSpec spec;
    spec.element_bytes = 8;
    spec.element_count = n;
    spec.stride_elements = 4;
    Record r = model_record("streaming", std::to_string(n), [&](const auto& c) {
      return dvf::try_estimate_streaming(spec, c);
    });
    r.field("elements", n);
    json.add(r);
  }
  for (const std::uint64_t n : sizes({100'000, 1'000'000, 10'000'000})) {
    dvf::RandomSpec spec;
    spec.element_count = n;
    spec.element_bytes = 32;
    spec.visits_per_iteration = 200;
    spec.iterations = 100'000;
    Record r = model_record("random_uniform", std::to_string(n),
                            [&](const auto& c) {
                              return dvf::try_estimate_random(spec, c);
                            });
    r.field("elements", n);
    json.add(r);
  }
  // The IRM variant: a Zipf popularity histogram over the same structure.
  for (const std::uint64_t n : sizes({100'000, 1'000'000})) {
    dvf::RandomSpec spec;
    spec.element_count = n;
    spec.element_bytes = 32;
    spec.visits_per_iteration = 200;
    spec.iterations = 100'000;
    spec.sorted_visit_fractions.resize(n);
    for (std::size_t i = 0; i < spec.sorted_visit_fractions.size(); ++i) {
      spec.sorted_visit_fractions[i] = 1.0 / static_cast<double>(i + 1);
    }
    Record r = model_record("random_irm", std::to_string(n),
                            [&](const auto& c) {
                              return dvf::try_estimate_random(spec, c);
                            });
    r.field("elements", n);
    json.add(r);
  }
  for (const std::uint64_t n : sizes({16, 32, 64})) {
    const dvf::TemplateSpec spec = stencil_template(n);
    Record r = model_record("template", std::to_string(n), [&](const auto& c) {
      return dvf::try_estimate_template(spec, c);
    });
    r.field("grid_edge", n).field("references", spec.length());
    json.add(r);
  }
  {
    const dvf::TemplateSpec spec = mg_progression(64);
    Record r = model_record("template", "stencil_64", [&](const auto& c) {
      return dvf::try_estimate_template(spec, c);
    });
    r.field("grid_edge", std::uint64_t{64}).field("references", spec.length());
    json.add(r);
  }
  for (const std::uint64_t bytes : sizes({64 * 1024, 16 * 1024 * 1024})) {
    dvf::ReuseSpec spec;
    spec.self_bytes = bytes;
    spec.other_bytes = bytes * 3;
    spec.reuse_rounds = 100;
    Record r = model_record("reuse", std::to_string(bytes), [&](const auto& c) {
      return dvf::try_estimate_reuse(spec, c);
    });
    r.field("self_bytes", bytes);
    json.add(r);
  }

  // What the models avoid: the VM kernel run bare and run through the
  // simulator (100 000 multiply-adds on the 8MB profiling cache).
  {
    dvf::kernels::VectorMultiply::Config config;
    config.iterations = 100'000;
    dvf::kernels::VectorMultiply vm(config);
    dvf::NullRecorder null;
    const double bare_ns = ns_per_call(
        [&] {
          vm.reset();
          vm.run(null);
        },
        min_seconds).first;
    dvf::CacheSimulator sim(profiling);
    const double simulated_ns = ns_per_call(
        [&] {
          vm.reset();
          vm.run(sim);
        },
        min_seconds).first;
    const double ratio = simulated_ns / bare_ns;
    table.add_row({"kernel_vm_bare_vs_sim", profiling.name(), "1", "lru",
                   "-", dvf::num(ratio, 3) + "x slower simulated"});
    Record r = record("kernel_vm_bare_vs_sim");
    r.field("kernel", std::string("VM"))
        .field("iterations", config.iterations)
        .field("cache", profiling.name())
        .field("capacity_bytes", profiling.capacity_bytes())
        .field("bare_ms", bare_ns / 1e6)
        .field("simulated_ms", simulated_ns / 1e6)
        .field("ratio", ratio);
    json.add(r);
  }

  // Per-primitive costs of the obs layer (the disabled branch with the
  // layer off, the rest while recording) and of a DVF_FAILPOINT site with
  // no schedule configured, so a regression names the primitive that got
  // slower. The volatile sinks keep the loops from folding.
  {
    const std::uint64_t hook_ops = quick ? 2'000'000 : 20'000'000;
    const std::uint64_t span_ops = hook_ops / 10;
    const auto per_op_ns = [](const dvf::kernels::Stopwatch& watch,
                              std::uint64_t ops) {
      return watch.seconds() * 1e9 / static_cast<double>(ops);
    };
    dvf::obs::set_enabled(false);
    volatile bool sink = false;
    const dvf::kernels::Stopwatch branch_watch;
    for (std::uint64_t i = 0; i < hook_ops; ++i) {
      sink = dvf::obs::enabled();
    }
    const double branch_ns = per_op_ns(branch_watch, hook_ops);

    dvf::obs::set_enabled(true);
    const dvf::obs::Counter counter = dvf::obs::counter("bench.counter_cost");
    const dvf::kernels::Stopwatch counter_watch;
    for (std::uint64_t i = 0; i < hook_ops; ++i) {
      counter.add();
    }
    const double counter_ns = per_op_ns(counter_watch, hook_ops);

    const dvf::obs::Histogram hist = dvf::obs::histogram("bench.hist_cost");
    const dvf::kernels::Stopwatch hist_watch;
    for (std::uint64_t i = 0; i < hook_ops; ++i) {
      hist.record(i);
    }
    const double hist_ns = per_op_ns(hist_watch, hook_ops);

    const dvf::kernels::Stopwatch span_watch;
    for (std::uint64_t i = 0; i < span_ops; ++i) {
      const dvf::obs::ScopedSpan span("bench.span_cost");
    }
    const double span_ns = per_op_ns(span_watch, span_ops);
    dvf::obs::set_enabled(false);

    dvf::failpoint::clear();
    const dvf::kernels::Stopwatch failpoint_watch;
    for (std::uint64_t i = 0; i < hook_ops; ++i) {
      sink = static_cast<bool>(DVF_FAILPOINT("test.bench_cost"));
    }
    const double failpoint_ns = per_op_ns(failpoint_watch, hook_ops);
    (void)sink;

    table.add_row({"obs_primitives", "-", "1", "-", "-",
                   "branch " + dvf::num(branch_ns, 3) + " / counter " +
                       dvf::num(counter_ns, 3) + " / histogram " +
                       dvf::num(hist_ns, 3) + " / span " +
                       dvf::num(span_ns, 3) + " / failpoint " +
                       dvf::num(failpoint_ns, 3) + " ns"});
    Record r = record("obs_primitives");
    r.field("disabled_branch_ns", branch_ns)
        .field("counter_add_ns", counter_ns)
        .field("histogram_record_ns", hist_ns)
        .field("span_ns", span_ns)
        .field("failpoint_disabled_ns", failpoint_ns);
    json.add(r);
  }

  json.set_metrics(dvf::obs::render_metrics_json(dvf::obs::snapshot_metrics()));

  std::cout << table << "\n";
  json.write("cachesim");
  return 0;
}
