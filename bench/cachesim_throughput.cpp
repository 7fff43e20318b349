// Cache-simulator hot-path throughput harness.
//
// The trace-driven simulator is the cost DVF's analytical models avoid, and
// every validation experiment replays through it — so its accesses/sec is a
// first-class performance number. This harness drives the simulator with
// synthetic reference strings that isolate the hot-path ingredients (the
// power-of-two set-index mask vs the modulo fallback, the per-call access()
// entry vs the batched replay() loop, set-sharded parallel replay at 1-8
// threads, the PLRU/RRIP policy scans) and measures the trace wire format
// (delta+run encoded size, plus chunked streaming replay). It emits
// BENCH_cachesim.json so the trajectory is tracked run over run.
//
// Set DVF_BENCH_QUICK=1 for a 10x-smaller corpus (CI smoke); every record
// carries hardware_threads so sharded numbers are read against the cores
// that were actually available.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "dvf/cachesim/cache_simulator.hpp"
#include "dvf/cachesim/replacement.hpp"
#include "dvf/cachesim/sharded_replay.hpp"
#include "dvf/common/rng.hpp"
#include "dvf/kernels/kernel_common.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/obs/obs.hpp"
#include "dvf/report/table.hpp"
#include "dvf/trace/trace_io.hpp"
#include "dvf/trace/trace_reader.hpp"

namespace {

constexpr std::uint32_t kStructures = 8;

std::uint64_t access_count() {
  const char* quick = std::getenv("DVF_BENCH_QUICK");
  const bool is_quick = quick != nullptr && *quick != '\0' && *quick != '0';
  return is_quick ? 400'000 : 4'000'000;
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
};

double run(const Scenario& scenario,
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

}  // namespace

int main() {
  std::cout << dvf::banner(
      "Cache-simulator hot path: mask vs modulo set indexing, batched "
      "replay vs per-call access, sharded replay, trace format");

  const std::uint64_t accesses = access_count();
  const std::uint64_t hardware_threads =
      std::max(1u, std::thread::hardware_concurrency());

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
  const auto add_record = [&](const Scenario& scenario, double seconds) {
    const double rate = static_cast<double>(accesses) / seconds;
    table.add_row({scenario.name, scenario.cache.name(),
                   dvf::num(static_cast<double>(scenario.threads)),
                   dvf::policy_name(scenario.policy),
                   dvf::num(seconds, 3), dvf::num(rate / 1e6, 2)});
    json.add(dvf::bench::JsonRecords::Record{}
                 .field("scenario", std::string(scenario.name))
                 .field("cache", scenario.cache.name())
                 .field("accesses", accesses)
                 .field("threads", scenario.threads)
                 .field("policy",
                        std::string(
                            dvf::policy_name(scenario.policy)))
                 .field("hardware_threads", hardware_threads)
                 .field("wall_s", seconds)
                 .field("accesses_per_s", rate));
  };
  for (const Scenario& scenario : scenarios) {
    const auto& records = scenario.random ? random : sequential;
    add_record(scenario, run(scenario, records));
  }

  // The same hot path with the observability layer recording, so the cost
  // of the enabled path is tracked next to the disabled numbers above
  // (which pin the ≤2% disabled-path budget; see bench/obs_overhead.cpp).
  dvf::obs::set_enabled(true);
  {
    const Scenario observed = {"rand_replay_pow2_obs", pow2, true, true};
    add_record(observed, run(observed, random));
  }
  dvf::obs::set_enabled(false);

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
    json.add(dvf::bench::JsonRecords::Record{}
                 .field("scenario", std::string("trace_size_") + corpus)
                 .field("records", accesses)
                 .field("v2_bytes", v2_bytes)
                 .field("bytes_per_record", bytes_per_record));

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
    const double seconds = watch.seconds();
    const double rate = static_cast<double>(accesses) / seconds;
    const std::string name = std::string("v2_stream_replay_") + corpus;
    table.add_row({name, pow2.name(), "1", "lru", dvf::num(seconds, 3),
                   dvf::num(rate / 1e6, 2)});
    json.add(dvf::bench::JsonRecords::Record{}
                 .field("scenario", name)
                 .field("cache", pow2.name())
                 .field("accesses", accesses)
                 .field("threads", 1u)
                 .field("policy", std::string("lru"))
                 .field("hardware_threads", hardware_threads)
                 .field("wall_s", seconds)
                 .field("accesses_per_s", rate));
  }

  json.set_metrics(dvf::obs::render_metrics_json(dvf::obs::snapshot_metrics()));

  std::cout << table << "\n";
  json.write("cachesim");
  return 0;
}
