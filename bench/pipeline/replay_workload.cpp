// verify_replay: the paper's verification path (§IV-A, Fig. 4). Set-up
// captures each extended-suite kernel's Table V reference stream and encodes
// it as a v2 trace in memory. The timed part streams every trace through
// TraceReader into the serial LRU CacheSimulator, for every kernel × the six
// Table IV caches, and compares misses against the analytical N_ha.
// Sequential streams (CG, FT) and random ones (NB, MC) use the simulator
// differently, as do the hit-heavy 4 MiB cache and the miss-heavy 8 KiB
// cache. The seed permutes only the replay order; the kernels are fixed.
#include <algorithm>
#include <cstdint>
#include <istream>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "bench.hpp"
#include "dvf/cachesim/cache_simulator.hpp"
#include "dvf/common/error.hpp"
#include "dvf/common/math.hpp"
#include "dvf/common/rng.hpp"
#include "dvf/kernels/suite.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/obs/obs.hpp"
#include "dvf/patterns/estimate.hpp"
#include "dvf/trace/trace_io.hpp"
#include "dvf/trace/trace_reader.hpp"

namespace dvf::bench {
namespace {

// lat_tail_us: p90 over the 48 cells at their best, the fifth-slowest.
constexpr double kTailQuantile = 0.90;
/// The two verification caches of Table IV lead the cache list; Fig. 4
/// judges N_ha against LRU misses on them.
constexpr std::size_t kVerificationCaches = 2;
constexpr double kNhaTolerance = 0.15;

/// Where the fixed layout puts the first structure, and its alignment.
constexpr std::uint64_t kLayoutBase = std::uint64_t{1} << 32;
constexpr std::uint64_t kPageBytes = 4096;

constexpr const char* kDecode = "bench.trace.next_chunk";
constexpr const char* kReplay = "bench.cachesim.replay";

std::vector<CacheConfig> table_iv_caches() {
  return {caches::small_verification(), caches::large_verification(),
          caches::profiling_16kb(),     caches::profiling_128kb(),
          caches::profiling_1mb(),      caches::profiling_8mb()};
}

/// Reads a string in place, so each replay decodes straight from the
/// encoded bytes without copying them.
class StringSource : public std::streambuf {
 public:
  explicit StringSource(const std::string& bytes) {
    char* begin = const_cast<char*>(bytes.data());
    setg(begin, begin, begin + bytes.size());
  }
};

struct ModeledStructure {
  std::string name;
  DsId id = 0;
  double n_ha[kVerificationCaches] = {};  ///< analytical, per verif. cache
};

struct CapturedTrace {
  std::string kernel;
  std::string encoded;  ///< v2 wire bytes
  std::uint64_t records = 0;
  std::vector<ModeledStructure> structures;
};

struct Captured {
  std::vector<CapturedTrace> traces;
  double capture_s = 0.0;
  double encode_s = 0.0;
};

/// Traces hold absolute addresses, so where the heap put each kernel's
/// buffers would change the set mapping, and with it the miss counts and
/// the simulator's work, from one process to the next. This moves every
/// structure to a fixed layout: page-aligned, back to back, in registration
/// order. Returns the structure table of the new layout.
std::vector<DataStructureInfo> to_fixed_layout(
    const DataStructureRegistry& registry,
    std::vector<MemoryRecord>& records) {
  std::vector<DataStructureInfo> layout(registry.begin(), registry.end());
  std::vector<std::uint64_t> shift(layout.size());
  std::uint64_t next = kLayoutBase;
  for (std::size_t i = 0; i < layout.size(); ++i) {
    shift[i] = next - layout[i].base_address;  // mod 2^64, like the sum below
    layout[i].base_address = next;
    next += (layout[i].size_bytes + kPageBytes - 1) / kPageBytes * kPageBytes;
  }
  for (MemoryRecord& record : records) {
    record.address += shift.at(record.ds);
  }
  return layout;
}

Captured capture(Report& report) {
  Captured out;
  const std::vector<CacheConfig> cache_list = table_iv_caches();
  for (const auto& kernel : kernels::make_extended_suite()) {
    CapturedTrace trace;
    trace.kernel = kernel->name();
    TraceBuffer buffer;
    Clock::time_point start = Clock::now();
    kernel->run_buffered(buffer);
    out.capture_s += seconds_since(start);

    // The buffer is this function's own, so its records may be rewritten.
    auto& records = const_cast<std::vector<MemoryRecord>&>(buffer.records());
    const std::vector<DataStructureInfo> layout =
        to_fixed_layout(kernel->registry(), records);
    std::ostringstream encoded;
    start = Clock::now();
    write_trace(encoded, layout, records);
    out.encode_s += seconds_since(start);
    trace.encoded = std::move(encoded).str();
    trace.records = buffer.records().size();

    const ModelSpec spec = kernel->model_spec();
    for (const DataStructureSpec& ds : spec.structures) {
      const auto id = kernel->registry().find(ds.name);
      if (!id.has_value()) {
        continue;
      }
      ModeledStructure modeled{ds.name, *id, {}};
      for (std::size_t c = 0; c < kVerificationCaches; ++c) {
        const Result<double> n_ha = try_estimate_accesses(
            std::span<const PatternSpec>(ds.patterns), cache_list[c]);
        if (!n_ha.ok()) {
          report.fail(trace.kernel + "/" + ds.name +
                      ": N_ha failed: " + n_ha.error().message);
        }
        modeled.n_ha[c] = n_ha.ok() ? n_ha.value() : 0.0;
      }
      trace.structures.push_back(std::move(modeled));
    }
    out.traces.push_back(std::move(trace));
  }
  return out;
}

/// What one replay of one (kernel, cache) cell produced; must repeat
/// exactly in every round.
struct CellOutcome {
  std::uint64_t probes = 0;
  std::uint64_t misses = 0;
  std::vector<std::uint64_t> structure_misses;
  friend bool operator==(const CellOutcome&, const CellOutcome&) = default;
};

struct PassStats {
  explicit PassStats(std::size_t cells) : timings(cells, kTailQuantile) {}

  RoundBest timings;  ///< latency per cell, work in records
  std::uint64_t records = 0;
  std::uint64_t probes = 0;
  std::uint64_t misses = 0;
  Layers layers;
};

CellOutcome replay_cell(const CapturedTrace& trace, const CacheConfig& cache,
                        bool traced, PassStats& stats, Report& report) {
  StringSource source(trace.encoded);
  std::istream in(&source);
  TraceReader reader(in);
  CacheSimulator sim(cache);
  sim.reserve_structures(reader.structures().size());
  while (!reader.done()) {
    std::span<const MemoryRecord> chunk;
    if (traced) {
      {
        const LayerTimer timer(stats.layers, kDecode);
        chunk = reader.next_chunk();
      }
      const LayerTimer timer(stats.layers, kReplay);
      sim.replay(chunk);
    } else {
      chunk = reader.next_chunk();
      sim.replay(chunk);
    }
    if (chunk.empty()) {
      break;
    }
  }
  sim.flush();
  if (reader.records_delivered() != trace.records) {
    report.fail(trace.kernel + " on " + cache.name() + ": decoded " +
                std::to_string(reader.records_delivered()) + " of " +
                std::to_string(trace.records) + " records");
  }
  CellOutcome outcome;
  const CacheStats total = sim.total_stats();
  outcome.probes = total.accesses;
  outcome.misses = total.misses;
  for (const ModeledStructure& s : trace.structures) {
    outcome.structure_misses.push_back(sim.stats(s.id).misses);
  }
  stats.records += reader.records_delivered();
  stats.probes += total.accesses;
  stats.misses += total.misses;
  return outcome;
}

}  // namespace

Report run_verify_replay(const Options& options) {
  Report report;
  report.workload = "verify_replay";
  const std::vector<CacheConfig> cache_list = table_iv_caches();
  Captured captured;
  std::vector<double> capture_s;
  std::vector<double> encode_s;
  const double setup_s = timed_setup(options.setup_repeats(), [&] {
    captured = {};  // free the last set-up's traces before capturing again
    captured = capture(report);
    capture_s.push_back(captured.capture_s);
    encode_s.push_back(captured.encode_s);
  });

  struct Cell {
    std::size_t trace;
    std::size_t cache;
  };
  std::vector<Cell> cells;
  for (std::size_t t = 0; t < captured.traces.size(); ++t) {
    for (std::size_t c = 0; c < cache_list.size(); ++c) {
      cells.push_back({t, c});
    }
  }
  // First-round outcome of each cell, indexed like `cells`.
  std::vector<std::optional<CellOutcome>> reference(cells.size());
  Xoshiro256 rng(stream_seed(options.seed, 5, 0));
  std::vector<std::size_t> order(cells.size());
  std::iota(order.begin(), order.end(), 0);

  const auto pass = [&](bool traced) {
    PassStats stats(cells.size());
    const Clock::time_point start = Clock::now();
    do {
      shuffle(order, rng);
      for (const std::size_t index : order) {
        if (stop_mid_round(options, start)) {
          break;
        }
        const CapturedTrace& trace = captured.traces[cells[index].trace];
        const CacheConfig& cache = cache_list[cells[index].cache];
        const Clock::time_point sent = Clock::now();
        CellOutcome outcome = replay_cell(trace, cache, traced, stats, report);
        stats.timings.record(index, us_since(sent),
                             static_cast<double>(trace.records));
        if (!reference[index].has_value()) {
          reference[index] = std::move(outcome);
        } else if (!(*reference[index] == outcome)) {
          report.fail(trace.kernel + " on " + cache.name() +
                      ": probe or miss counts changed between rounds");
        }
      }
    } while (seconds_since(start) < options.pass_seconds());
    return stats;
  };

  const PassStats untraced = pass(false);
  report.attempted = untraced.timings.samples();
  add_end_to_end(report, options, setup_s, untraced.timings);

  // Fig. 4: cells (kernel, structure, verification cache) whose analytical
  // N_ha is within 15% of the LRU misses.
  Digest digest;
  std::uint64_t nha_cells = 0;
  std::uint64_t nha_within = 0;
  std::uint64_t round_probes = 0;
  std::uint64_t bytes = 0;
  std::uint64_t records = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!reference[i].has_value()) {
      continue;  // a quick run may end before every cell ran
    }
    const CapturedTrace& trace = captured.traces[cells[i].trace];
    const CellOutcome& outcome = *reference[i];
    digest.add(trace.kernel);
    digest.add(trace.records);
    digest.add(outcome.probes);
    digest.add(outcome.misses);
    round_probes += outcome.probes;
    if (cells[i].cache == 0) {
      bytes += trace.encoded.size();
      records += trace.records;
    }
    if (cells[i].cache >= kVerificationCaches) {
      continue;
    }
    for (std::size_t s = 0; s < trace.structures.size(); ++s) {
      const auto misses = static_cast<double>(outcome.structure_misses[s]);
      ++nha_cells;
      if (math::relative_error(trace.structures[s].n_ha[cells[i].cache],
                               misses) <= kNhaTolerance) {
        ++nha_within;
      }
    }
  }
  report.digest = digest.hex();

  if (options.traced()) {
    obs::set_enabled(true);
    const PassStats traced = pass(true);
    obs::set_enabled(false);
    const auto per_record_ns = [&](const char* name) {
      return traced.records == 0 ? 0.0
                                 : 1e3 * traced.layers.get(name).us /
                                       static_cast<double>(traced.records);
    };
    report.metric("trace.decode_ns_per_rec", per_record_ns(kDecode), "ns");
    report.metric("cachesim.ns_per_access", per_record_ns(kReplay), "ns");
    report.metric("cachesim.miss_ratio",
                  traced.probes == 0 ? 0.0
                                     : static_cast<double>(traced.misses) /
                                           static_cast<double>(traced.probes),
                  "ratio");
    report.metric("cachesim.probes", static_cast<double>(round_probes),
                  "count");
    report.metric("trace.encode_s", median(encode_s), "s");
    report.metric("trace.v2_bytes_per_rec",
                  records == 0 ? 0.0
                               : static_cast<double>(bytes) /
                                     static_cast<double>(records),
                  "B");
    report.metric("kernels.capture_s", median(capture_s), "s");
    report.metric("patterns.nha_within_15pct",
                  nha_cells == 0 ? 0.0
                                 : static_cast<double>(nha_within) /
                                       static_cast<double>(nha_cells),
                  "ratio");
    report.metric("obs.overhead_pct",
                  overhead_pct(traced.timings, untraced.timings), "%");
  }
  return report;
}

}  // namespace dvf::bench
