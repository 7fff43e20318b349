// The two serve-engine workloads, both driving dvf::serve::Engine::handle_line
// over the NDJSON wire protocol in-process.
//
// serve_mix: a closed loop of 2 client threads sharing one Engine with the
// default config (256-entry compiled-model cache). Requests are a Zipf(1.0)
// draw over 1024 sources, each a seeded parameter variant of one of four
// shapes (streaming, reuse, tiled, random) taken from the bundled example
// models. About a quarter of requests miss the cache, so the DSL front end,
// the canonical hash and the cache itself do most of the work; evaluation is
// microseconds. 10% of requests are hash-only and resend the source on
// unknown_hash.
//
// model_eval: a closed loop of 1 client sending hash-only requests that all
// hit the cache, each naming one of the six Table IV machines. Template
// stencil sweeps dominate the time, so the patterns layer does almost all
// the work and the front end none. Template specs with repeat 1 and with
// repeat > 1 sit side by side, so a repetition-dependent estimator change
// shows on one and not the other.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "bench.hpp"
#include "dvf/analysis/ir.hpp"
#include "dvf/common/budget.hpp"
#include "dvf/common/error.hpp"
#include "dvf/common/rng.hpp"
#include "dvf/dsl/analyzer.hpp"
#include "dvf/dsl/diagnostics.hpp"
#include "dvf/dsl/parser.hpp"
#include "dvf/dvf/calculator.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/obs/obs.hpp"
#include "dvf/patterns/estimate.hpp"
#include "dvf/serve/engine.hpp"
#include "dvf/serve/json.hpp"
#include "dvf/serve/protocol.hpp"

namespace dvf::bench {
namespace {

using serve::Engine;
using serve::json_escape_string;

// serve_mix sizes.
constexpr std::size_t kPoolSize = 1024;
constexpr unsigned kServeClients = 2;
constexpr double kZipfExponent = 1.0;
constexpr double kHashOnlyShare = 0.10;
constexpr std::uint64_t kWarmupRequests = 8192;  ///< per client

// Latency percentile reported as lat_tail_us. serve_mix: p99 of the
// requests of a one-second window, tens of thousands of them. model_eval:
// p90 over the 72 distinct requests at their best.
constexpr double kTailQuantile = 0.99;
constexpr double kRoundTailQuantile = 0.90;

// Span names of the bench's own calls into each module.
constexpr const char* kHandleLine = "bench.serve.handle_line";
constexpr const char* kParse = "bench.dsl.parse";
constexpr const char* kAnalyze = "bench.dsl.analyze";
constexpr const char* kHash = "bench.analysis.canonical_hash";
constexpr const char* kForModel = "bench.dvf.try_for_model";

struct Family {
  const char* span;
  const char* us_metric;
  const char* calls_metric;
};
/// Indexed like the PatternSpec variant.
constexpr Family kFamilies[] = {
    {"bench.patterns.stream", "patterns.stream_us", "patterns.stream_calls"},
    {"bench.patterns.random", "patterns.random_us", "patterns.random_calls"},
    {"bench.patterns.template", "patterns.template_us",
     "patterns.template_calls"},
    {"bench.patterns.reuse", "patterns.reuse_us", "patterns.reuse_calls"},
    {"bench.patterns.tiled", "patterns.tiled_us", "patterns.tiled_calls"},
};
static_assert(std::size(kFamilies) == std::variant_size_v<PatternSpec>);

std::string fixed(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, value);
  return buf;
}

std::uint64_t pick(Xoshiro256& rng, std::uint64_t lo, std::uint64_t hi) {
  return lo + rng.below(hi - lo + 1);
}

// ---------------------------------------------------------------------------
// Model sources. The shapes follow models/{vm,cg,gemm,nbody}.aspen but are
// embedded here, so that editing or deleting models/ cannot change the
// workload.

/// Replaces every "{key}" in `text` with its value.
std::string fill(
    std::string text,
    std::initializer_list<std::pair<std::string, std::string>> values) {
  for (const auto& [key, value] : values) {
    const std::string marker = "{" + key + "}";
    for (std::size_t at = text.find(marker); at != std::string::npos;
         at = text.find(marker, at + value.size())) {
      text.replace(at, marker.size(), value);
    }
  }
  return text;
}

constexpr const char* kLaptop = R"dsl(machine "laptop" {
  cache { associativity 4; sets 64; line 32; }
  memory { fit 5000; }  // unprotected DRAM, FIT/Mbit
}
)dsl";

constexpr const char* kVmShape = R"dsl(// Vector multiply (paper §III-D): three streamed arrays, A read with a
// stride, evaluated on a laptop and a chipkill-protected server.
param n = {n};       // elements referenced per array
param elem = 8;      // bytes per element
param skip = 4;      // A's stride in elements
param a_elements = n * skip;
param b_elements = n;
param c_elements = n;

{laptop}
machine "server" {
  cache { associativity 16; sets 4096; line 64; }
  memory { ecc "chipkill"; }
}

model "VM-{id}" {
  time {time};
  data A { elements a_elements; element_size elem; }
  pattern A stream { stride skip; }
  data B { elements b_elements; element_size elem; }
  pattern B stream { stride 1; }
  data C { elements c_elements; element_size elem; }
  pattern C stream { stride 1; }
}
)dsl";

constexpr const char* kCgShape = R"dsl(// Conjugate gradient (paper §III-D): a streamed matrix and three vectors
// reused across iterations. The rounds and interferers of r and p derive
// from the access-order string.
param n = {n};                 // matrix order
param iters = {iters};         // solver iterations
param elem = 8;                // bytes per double
param cells = n * n;
param matrix_bytes = elem * cells;

{laptop}
model "CG-{id}" {
  time {time};
  order "r(Ap)p(xp)(Ap)r(rp)";

  data A { elements cells; element_size elem; }
  pattern A stream { stride 1; repeat iters; }   // one matvec per iteration

  data r { elements n; element_size elem; }
  pattern r reuse { }

  data p { elements n; element_size elem; }
  pattern p reuse { }

  data x { elements n; element_size elem; }
  pattern x reuse { rounds iters; other_bytes matrix_bytes; }
}
)dsl";

constexpr const char* kGemmShape = R"dsl(// Blocked matrix multiply C = A * B (ii/kk/jj nest): A's tile grid is
// covered once, B is re-swept once per tile row of C, and C's tiles are
// revisited once per kk step after an initialization stream.
param n = {n};        // matrix order
param t = {t};        // tile edge; divides n
param tiles = n / t;  // tiles per matrix edge
param share = 1 / 3;  // each matrix's share of the cache
param cells = n * n;
param elem = 8;       // bytes per double

{laptop}
model "GEMM-{id}" {
  time {time};

  data A { elements cells; element_size elem; }
  pattern A tiled { tile (t, t); rows n; intra_reuse tiles - 1; ratio share; }

  data B { elements cells; element_size elem; }
  pattern B tiled { tile (t, t); rows n; passes tiles; intra_reuse t - 1; ratio share; }

  data C { elements cells; element_size elem; }
  pattern C stream { stride 1; }
  pattern C tiled { tile (t, t); rows n; passes tiles; intra_reuse t - 1; ratio share; }
}
)dsl";

constexpr const char* kNbodyShape = R"dsl(// Barnes-Hut (paper §III-D): the tree T is visited at random each step,
// the particles P are streamed.
param bodies = {bodies};
param k = {k};           // tree cells visited per step
param steps = {steps};
param body_bytes = 32;
param tree_share = 1.0;  // the tree has the cache to itself
param sweeps = 2;        // particle passes per step

{laptop}
model "NB-{id}" {
  time {time};

  data T { elements bodies; element_size body_bytes; }
  pattern T random { visits k; iterations steps; ratio tree_share; }

  data P { elements bodies; element_size body_bytes; }
  pattern P stream { stride 1; repeat sweeps; }
}
)dsl";

// Each generator draws the sizes that set an estimator's cost from `shape`,
// which depends only on the source id, and the rest (times, step counts)
// from `free`, which depends on the seed too. So every seed asks the same
// work of the engine, and seeds differ in values and request order.

std::string vm_source(std::size_t id, Xoshiro256& shape, Xoshiro256& free) {
  return fill(kVmShape, {{"n", std::to_string(pick(shape, 100, 1000))},
                         {"laptop", kLaptop},
                         {"id", std::to_string(id)},
                         {"time", fixed(0.5e-3 + 2e-3 * free.uniform(), 6)}});
}

std::string cg_source(std::size_t id, Xoshiro256& shape, Xoshiro256& free) {
  return fill(kCgShape, {{"n", std::to_string(pick(shape, 100, 300))},
                         {"iters", std::to_string(pick(shape, 10, 30))},
                         {"laptop", kLaptop},
                         {"id", std::to_string(id)},
                         {"time", fixed(0.1 + free.uniform(), 4)}});
}

std::string gemm_source(std::size_t id, Xoshiro256& shape, Xoshiro256& free) {
  constexpr std::uint64_t kOrders[] = {32, 48, 64, 96, 128};
  constexpr std::uint64_t kTiles[] = {4, 8, 16};
  return fill(kGemmShape, {{"n", std::to_string(kOrders[shape.below(5)])},
                           {"t", std::to_string(kTiles[shape.below(3)])},
                           {"laptop", kLaptop},
                           {"id", std::to_string(id)},
                           {"time", fixed(1e-3 + 4e-3 * free.uniform(), 6)}});
}

std::string nbody_source(std::size_t id, Xoshiro256& shape, Xoshiro256& free) {
  return fill(kNbodyShape, {{"bodies", std::to_string(pick(shape, 500, 2000))},
                            {"k", std::to_string(pick(shape, 5, 20))},
                            {"steps", std::to_string(pick(free, 200, 2000))},
                            {"laptop", kLaptop},
                            {"id", std::to_string(id)},
                            {"time", fixed(0.01 + 0.1 * free.uniform(), 5)}});
}

/// The six Table IV caches as DSL machines (unprotected DRAM).
std::string table_iv_machines() {
  std::string out;
  for (const CacheConfig& cache :
       {caches::small_verification(), caches::large_verification(),
        caches::profiling_16kb(), caches::profiling_128kb(),
        caches::profiling_1mb(), caches::profiling_8mb()}) {
    out += "machine \"" + cache.name() + "\" {\n  cache { associativity " +
           std::to_string(cache.associativity()) + "; sets " +
           std::to_string(cache.num_sets()) + "; line " +
           std::to_string(cache.line_bytes()) +
           "; }\n  memory { fit 5000; }\n}\n";
  }
  return out;
}

/// An MG-style smoother sweep (models/mg.aspen) over an n^3 grid of
/// 16-byte cells: four stencil references starting at plane 2, advancing
/// one cell per iteration across one face of the grid.
constexpr const char* kStencilModel = R"dsl(model "MG{n}r{repeat}" {
  time {time};
  data R { elements n * n * n; element_size 16; }
  pattern R template {
    start (2*n*n + 1, 2*n*n + 2*n + 1, n*n + n + 1, 2*n*n + n + 1);
    step 1;
    count n * (n - 2);
    repeat {repeat};   // smoother sweeps
    ratio {ratio};
  }
}
)dsl";

constexpr const char* kRandomModel = R"dsl(model "RND{n}" {
  time {time};
  data T { elements n; element_size 32; }
  pattern T random { visits n / 20; iterations {steps}; ratio 1.0; }
}
)dsl";

constexpr const char* kCgModel = R"dsl(model "CG" {
  time {time};
  order "r(Ap)p(xp)(Ap)r(rp)";
  data A { elements n * n; element_size 8; }
  pattern A stream { stride 1; repeat 20; }
  data r { elements n; element_size 8; }
  pattern r reuse { }
  data p { elements n; element_size 8; }
  pattern p reuse { scenario 2; }
  data x { elements n; element_size 8; }
  pattern x reuse { rounds {rounds}; other_bytes 8 * n * n; }
}
)dsl";

constexpr const char* kTiledModel = R"dsl(model "GEMM" {
  time {time};
  data A { elements n * n; element_size 8; }
  pattern A tiled { tile (16, 16); rows n; intra_reuse n / 16 - 1; ratio 1 / 3; }
  data B { elements n * n; element_size 8; }
  pattern B tiled { tile (16, 16); rows n; passes n / 16; intra_reuse 15; ratio 1 / 3; }
}
)dsl";

constexpr const char* kVmModel = R"dsl(model "VM" {
  time {time};
  data A { elements n * 4; element_size 8; }
  pattern A stream { stride 4; repeat 4; }
  data B { elements n; element_size 8; }
  pattern B stream { stride 1; }
  data S { elements 32 * n; element_size 8; }
  pattern S reuse { rounds {rounds}; other_bytes 8 * n; scenario 1; }
}
)dsl";

/// The model_eval programs: each declares the six Table IV machines and one
/// model. Seven stencil sweeps (24^3-64^3, repeat 1-8, in repeat-1 /
/// repeat>1 pairs) take most of the time; random (Eq. 6 with large k),
/// reuse, tiled and stream models make up the rest. The seed picks only
/// values that leave the estimators' cost unchanged: times, cache shares of
/// the sweeps, iteration and round counts.
std::vector<std::string> model_eval_sources(std::uint64_t seed) {
  Xoshiro256 rng(stream_seed(seed, 2, 0));
  const std::string machines = table_iv_machines();
  std::vector<std::string> sources;
  const auto add = [&](std::uint64_t n, const char* model,
                       std::initializer_list<std::pair<std::string, std::string>>
                           values) {
    sources.push_back("param n = " + std::to_string(n) + ";\n" + machines +
                      fill(fill(model, values),
                           {{"n", std::to_string(n)},
                            {"time", fixed(0.05 + rng.uniform(), 4)}}));
  };
  struct Sweep {
    std::uint64_t n;
    std::uint64_t repeat;
  };
  for (const Sweep sweep : {Sweep{24, 1}, Sweep{24, 8}, Sweep{40, 1},
                            Sweep{40, 4}, Sweep{56, 1}, Sweep{56, 2},
                            Sweep{64, 1}}) {
    add(sweep.n, kStencilModel,
        {{"repeat", std::to_string(sweep.repeat)},
         {"ratio", fixed(0.4 + 0.2 * rng.uniform(), 3)}});
  }
  for (const std::uint64_t n : {100000, 20000}) {
    add(n, kRandomModel, {{"steps", std::to_string(pick(rng, 50, 500))}});
  }
  add(256, kCgModel, {{"rounds", std::to_string(pick(rng, 20, 80))}});
  add(128, kTiledModel, {});
  add(4096, kVmModel, {{"rounds", std::to_string(pick(rng, 50, 200))}});
  return sources;
}

std::string source_frame(std::size_t id, const std::string& source) {
  return "{\"id\":" + std::to_string(id) +
         ",\"op\":\"eval\",\"source\":" + json_escape_string(source) + "}";
}

std::string hash_frame(std::size_t id, std::uint64_t hash,
                       const std::string& machine = {}) {
  std::string frame = "{\"id\":" + std::to_string(id) +
                      ",\"op\":\"eval\",\"hash\":\"" + serve::hash_hex(hash) +
                      "\"";
  if (!machine.empty()) {
    frame += ",\"machine\":" + json_escape_string(machine);
  }
  return frame + "}";
}

// ---------------------------------------------------------------------------
// Response inspection: cheap substring reads of the engine's own encoding.

bool response_ok(const std::string& response) {
  return response.find("\"ok\":true") != std::string::npos;
}
bool unknown_hash(const std::string& response) {
  return response.find("\"kind\":\"unknown_hash\"") != std::string::npos;
}
bool cache_hit(const std::string& response) {
  return response.find("\"cache\":\"hit\"") != std::string::npos;
}
std::uint64_t response_hash(const std::string& response) {
  const std::string key = "\"hash\":\"";
  const std::size_t at = response.find(key);
  if (at == std::string::npos) {
    return 0;
  }
  const std::size_t begin = at + key.size();
  const std::size_t end = response.find('"', begin);
  return serve::parse_hash_hex(
             std::string_view(response).substr(begin, end - begin))
      .value_or(0);
}
/// The `results` array: the response's last member.
std::string_view response_results(const std::string& response) {
  const std::string key = "\"results\":";
  const std::size_t at = response.find(key);
  if (at == std::string::npos || response.size() < at + key.size() + 1) {
    return {};
  }
  return std::string_view(response).substr(
      at + key.size(), response.size() - at - key.size() - 1);
}

// ---------------------------------------------------------------------------
// Traced decomposition: the bench repeats a request's work through each
// module's public functions and times every call.

struct ClientStats {
  explicit ClientStats(double pass_seconds = 1.0)
      : all(pass_seconds, kTailQuantile),
        hits(pass_seconds, kTailQuantile),
        misses(pass_seconds, kTailQuantile) {}

  Windows all;
  Windows hits;
  Windows misses;
  std::uint64_t failures = 0;
  std::string first_failure;

  // Traced pass only.
  Layers layers;
  double busy_us = 0.0;  ///< handle_line time
  double self_us = 0.0;  ///< handle_line minus the layer calls
  std::uint64_t template_refs = 0;
  std::uint64_t template_refs_repeat = 0;  ///< in specs with repeat > 1

  void fail(std::string what) {
    if (failures++ == 0) {
      first_failure = std::move(what);
    }
  }
  void record(double us, bool hit) {
    all.record(us);
    (hit ? hits : misses).record(us);
  }
  void tick() {
    all.tick();
    hits.tick();
    misses.tick();
  }
  void finish() {
    all.finish();
    hits.finish();
    misses.finish();
  }
  void merge(const ClientStats& other) {
    all.merge(other.all);
    hits.merge(other.hits);
    misses.merge(other.misses);
    if (failures == 0 && other.failures != 0) {
      first_failure = other.first_failure;
    }
    failures += other.failures;
    layers.merge(other.layers);
    busy_us += other.busy_us;
    self_us += other.self_us;
    template_refs += other.template_refs;
    template_refs_repeat += other.template_refs_repeat;
  }
};

/// Times DvfCalculator::try_for_model of `model` on `machine`, then each of
/// its pattern phases through try_estimate_accesses (the calls the
/// calculator makes internally), grouped by family. Returns the
/// try_for_model time in microseconds.
double time_evaluation(const Machine& machine, const ModelSpec& model,
                       ClientStats& stats) {
  const DvfCalculator calculator(machine);
  double eval_us = 0.0;
  {
    const LayerTimer timer(stats.layers, kForModel);
    const Result<ApplicationDvf> result = calculator.try_for_model(model);
    eval_us = timer.elapsed_us();
    if (!result.ok()) {
      stats.fail("try_for_model: " + result.error().message);
    }
  }
  for (const DataStructureSpec& ds : model.structures) {
    for (const PatternSpec& phase : ds.patterns) {
      EvalBudget budget;
      {
        const LayerTimer timer(stats.layers, kFamilies[phase.index()].span);
        if (!try_estimate_accesses(phase, machine.llc, &budget).ok()) {
          stats.fail("try_estimate_accesses failed on " + ds.name);
        }
      }
      if (const auto* spec = std::get_if<TemplateSpec>(&phase)) {
        stats.template_refs += budget.references_used();
        if (spec->repetitions > 1) {
          stats.template_refs_repeat += budget.references_used();
        }
      }
    }
  }
  return eval_us;
}

/// Times the front end the engine runs on a cache miss: dsl::parse,
/// dsl::analyze and analysis::canonical_hash. Returns the compiled program
/// and adds the time spent to `front_us`.
std::shared_ptr<const dsl::CompiledProgram> time_front_end(
    const std::string& source, ClientStats& stats, double& front_us) {
  auto program = std::make_shared<dsl::CompiledProgram>();
  try {
    dsl::Program ast;
    {
      const LayerTimer timer(stats.layers, kParse);
      ast = dsl::parse(source);
      front_us += timer.elapsed_us();
    }
    dsl::DiagnosticEngine diags;
    {
      const LayerTimer timer(stats.layers, kAnalyze);
      *program = dsl::analyze(ast, diags);
      front_us += timer.elapsed_us();
    }
    if (diags.first_error() != nullptr) {
      stats.fail("analyze: " + diags.first_error()->message);
    }
    {
      const LayerTimer timer(stats.layers, kHash);
      (void)analysis::canonical_hash(program->machines, program->models);
      front_us += timer.elapsed_us();
    }
  } catch (const Error& e) {
    stats.fail(std::string("front end: ") + e.what());
  }
  return program;
}

/// Per-layer metrics shared by both serve workloads.
void add_serve_layer_metrics(Report& report, const ClientStats& traced,
                             const ClientStats& untraced,
                             std::uint64_t hits, std::uint64_t misses,
                             std::uint64_t evictions) {
  const Layers& layers = traced.layers;
  const double requests = static_cast<double>(
      std::max<std::uint64_t>(1, traced.all.operations()));
  double patterns_us = 0.0;
  for (const Family& family : kFamilies) {
    patterns_us += layers.get(family.span).us;
  }
  const Layers::Total eval = layers.get(kForModel);

  report.metric("dsl.parse_us", layers.mean_us(kParse), "us");
  report.metric("dsl.analyze_us", layers.mean_us(kAnalyze), "us");
  report.metric("analysis.hash_us", layers.mean_us(kHash), "us");
  // The front end's mean time per miss over the median untraced miss.
  const double miss_us = untraced.misses.p50_us();
  report.metric("dsl.miss_share",
                miss_us > 0.0 ? (layers.mean_us(kParse) +
                                 layers.mean_us(kAnalyze) +
                                 layers.mean_us(kHash)) /
                                    miss_us
                              : 0.0,
                "ratio");
  report.metric("serve.self_us", traced.self_us / requests, "us");
  report.metric("serve.cache_hit_ratio",
                hits + misses == 0 ? 0.0
                                   : static_cast<double>(hits) /
                                         static_cast<double>(hits + misses),
                "ratio");
  report.metric("serve.evictions_per_req",
                static_cast<double>(evictions) / requests, "1/req");
  report.metric("serve.miss_p50_us", miss_us, "us");
  report.metric("serve.hit_p50_us", untraced.hits.p50_us(), "us");
  report.metric("dvf.eval_us", layers.mean_us(kForModel), "us");
  report.metric("dvf.self_us",
                eval.calls == 0 ? 0.0
                                : (eval.us - patterns_us) /
                                      static_cast<double>(eval.calls),
                "us");
  for (const Family& family : kFamilies) {
    report.metric(family.us_metric, layers.mean_us(family.span), "us");
    report.metric(family.calls_metric,
                  static_cast<double>(layers.get(family.span).calls) /
                      requests,
                  "1/req");
  }
  const Layers::Total templates = layers.get(kFamilies[2].span);
  report.metric("patterns.template_refs",
                templates.calls == 0
                    ? 0.0
                    : static_cast<double>(traced.template_refs) /
                          static_cast<double>(templates.calls),
                "count");
  report.metric("patterns.template_repeat_share",
                traced.template_refs == 0
                    ? 0.0
                    : static_cast<double>(traced.template_refs_repeat) /
                          static_cast<double>(traced.template_refs),
                "ratio");
  report.metric("patterns.busy_share",
                traced.busy_us > 0.0 ? patterns_us / traced.busy_us : 0.0,
                "ratio");
  report.metric("obs.overhead_pct", overhead_pct(traced.all, untraced.all),
                "%");
}

void add_failures(Report& report, const ClientStats& stats) {
  if (stats.failures != 0) {
    report.fail(stats.first_failure + " (" + std::to_string(stats.failures) +
                " failed requests)");
    report.failed += stats.failures - 1;
  }
}

/// Runs `pass(true)` with dvf::obs on and adds the per-layer metrics, the
/// cache counters taken over that pass.
template <typename Pass>
void traced_pass(Report& report, const Engine& engine,
                 const ClientStats& untraced, Pass& pass) {
  const serve::CompiledModelCache& cache = engine.cache();
  const std::uint64_t hits = cache.hits();
  const std::uint64_t misses = cache.misses();
  const std::uint64_t evictions = cache.evictions();
  obs::set_enabled(true);
  const ClientStats traced = pass(true);
  obs::set_enabled(false);
  add_failures(report, traced);
  add_serve_layer_metrics(report, traced, untraced, cache.hits() - hits,
                          cache.misses() - misses,
                          cache.evictions() - evictions);
}

// ---------------------------------------------------------------------------
// serve_mix.

/// Zipf(s) over ranks [0, n): rank r has weight 1/(r+1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) {
      c /= sum;
    }
  }
  std::size_t operator()(Xoshiro256& rng) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// The generated serve_mix inputs: popularity rank r is source r, and its
/// shape cycles with r so every popularity level has the same shape mix.
struct ServeMix {
  std::vector<std::string> sources;
  std::vector<std::string> frames;

  explicit ServeMix(std::uint64_t seed) {
    for (std::size_t id = 0; id < kPoolSize; ++id) {
      Xoshiro256 shape(stream_seed(0, 1, id));
      Xoshiro256 free(stream_seed(seed, 1, id));
      switch (id % 4) {
        case 0:
          sources.push_back(vm_source(id, shape, free));
          break;
        case 1:
          sources.push_back(cg_source(id, shape, free));
          break;
        case 2:
          sources.push_back(gemm_source(id, shape, free));
          break;
        default:
          sources.push_back(nbody_source(id, shape, free));
          break;
      }
      frames.push_back(source_frame(id, sources.back()));
    }
  }
};

/// Each source's `results` bytes, as first returned; later responses for
/// that source, hit or miss, must repeat them byte for byte.
class ResultBook {
 public:
  explicit ResultBook(std::size_t n) : results_(n) {}
  bool check(std::size_t id, std::string_view results) {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::string& expected = results_[id];
    if (expected.empty()) {
      expected = results;
      return !expected.empty();
    }
    return expected == results;
  }

 private:
  std::mutex mutex_;
  std::vector<std::string> results_;
};

/// One serve_mix client: its own RNG stream and the hashes it learned from
/// earlier responses (0 = not yet known).
class ServeClient {
 public:
  ServeClient(std::uint64_t seed, unsigned index)
      : rng_(stream_seed(seed, 3, index)),
        known_hash_(kPoolSize, 0),
        programs_(kPoolSize) {}

  /// Sends requests until `requests` are done or the deadline passes.
  void run(Engine& engine, const ServeMix& mix, const Zipf& zipf,
           ResultBook& book, std::uint64_t requests, double seconds,
           bool traced, ClientStats& stats) {
    const Clock::time_point start = Clock::now();
    for (std::uint64_t n = 0; n < requests && seconds_since(start) < seconds;
         ++n) {
      one_request(engine, mix, zipf(rng_), book, traced, stats);
      stats.tick();
    }
    stats.finish();
  }

 private:
  void one_request(Engine& engine, const ServeMix& mix, std::size_t id,
                   ResultBook& book, bool traced, ClientStats& stats) {
    const bool hash_only =
        known_hash_[id] != 0 && rng_.uniform() < kHashOnlyShare;
    const std::string frame =
        hash_only ? hash_frame(id, known_hash_[id]) : std::string();

    const Clock::time_point start = Clock::now();
    std::string response;
    {
      const obs::ScopedSpan span(kHandleLine);
      response = engine.handle_line(hash_only ? frame : mix.frames[id]);
      if (hash_only && unknown_hash(response)) {
        response = engine.handle_line(mix.frames[id]);
      }
    }
    const double us = us_since(start);

    const bool hit = cache_hit(response);
    stats.record(us, hit);
    if (!response_ok(response)) {
      stats.fail("serve_mix request failed: " + response.substr(0, 200));
      return;
    }
    known_hash_[id] = response_hash(response);
    if (!book.check(id, response_results(response))) {
      stats.fail("results of source " + std::to_string(id) +
                 " differ between responses");
    }
    if (traced) {
      decompose(mix.sources[id], id, us, hit, stats);
    }
  }

  /// Repeats the request's work through the module functions, timing each
  /// call: the front end on a miss, then the evaluation of every model on
  /// every declared machine (what an eval request without filters runs).
  void decompose(const std::string& source, std::size_t id, double us,
                 bool hit, ClientStats& stats) {
    stats.layers.add(kHandleLine, us);
    stats.busy_us += us;
    double layer_us = 0.0;
    if (programs_[id] == nullptr || !hit) {
      double front_us = 0.0;
      ClientStats untimed;  // a hit's front end is not the request's work
      programs_[id] = time_front_end(source, hit ? untimed : stats, front_us);
      layer_us += hit ? 0.0 : front_us;
    }
    const dsl::CompiledProgram& program = *programs_[id];
    for (const Machine& machine : program.machines) {
      for (const ModelSpec& model : program.models) {
        layer_us += time_evaluation(machine, model, stats);
      }
    }
    stats.self_us += us - layer_us;
  }

  Xoshiro256 rng_;
  std::vector<std::uint64_t> known_hash_;
  /// Programs the bench compiled itself, for the traced decomposition.
  std::vector<std::shared_ptr<const dsl::CompiledProgram>> programs_;
};

/// Runs every client on its own thread until each has sent `requests` or
/// `seconds` have passed, and merges their stats.
ClientStats run_clients(std::vector<ServeClient>& clients, Engine& engine,
                        const ServeMix& mix, const Zipf& zipf,
                        ResultBook& book, std::uint64_t requests,
                        double seconds, bool traced) {
  std::vector<ClientStats> stats(clients.size(), ClientStats(seconds));
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    threads.emplace_back([&, i] {
      try {
        clients[i].run(engine, mix, zipf, book, requests, seconds, traced,
                       stats[i]);
      } catch (const std::exception& e) {
        stats[i].fail(std::string("client threw: ") + e.what());
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (std::size_t i = 1; i < stats.size(); ++i) {
    stats[0].merge(stats[i]);
  }
  return std::move(stats[0]);
}

// ---------------------------------------------------------------------------
// model_eval.

/// One (program, machine) request of model_eval with its expected bytes.
struct EvalPair {
  std::size_t program = 0;
  std::size_t machine = 0;
  std::string frame;
  std::string expected_results;
};

/// The engine's response for one pair must carry exactly the calculator's
/// reference numbers (json_number round-trips doubles exactly).
bool matches_reference(const std::string& response, const ApplicationDvf& ref) {
  const serve::JsonParsed parsed = serve::parse_json(response);
  const serve::JsonValue* results =
      parsed.ok ? parsed.value.find("results") : nullptr;
  if (results == nullptr || !results->is_array() ||
      results->array.size() != 1) {
    return false;
  }
  const serve::JsonValue& app = results->array[0];
  const auto number = [](const serve::JsonValue& v, const char* key) {
    const serve::JsonValue* field = v.find(key);
    return field != nullptr && field->is_number()
               ? std::optional<double>(field->number)
               : std::nullopt;
  };
  const serve::JsonValue* model = app.find("model");
  const serve::JsonValue* machine = app.find("machine");
  const serve::JsonValue* structures = app.find("structures");
  if (model == nullptr || model->string != ref.model_name ||
      machine == nullptr || machine->string != ref.machine_name ||
      number(app, "total") != ref.total || structures == nullptr ||
      structures->array.size() != ref.structures.size()) {
    return false;
  }
  for (std::size_t i = 0; i < ref.structures.size(); ++i) {
    const serve::JsonValue& s = structures->array[i];
    const StructureDvf& r = ref.structures[i];
    const serve::JsonValue* name = s.find("name");
    if (name == nullptr || name->string != r.name ||
        number(s, "size_bytes") != r.size_bytes ||
        number(s, "n_ha") != r.n_ha || number(s, "n_error") != r.n_error ||
        number(s, "dvf") != r.dvf) {
      return false;
    }
  }
  return true;
}

struct ModelEvalSetup {
  std::unique_ptr<Engine> engine;
  std::vector<std::shared_ptr<const dsl::CompiledProgram>> programs;
  std::vector<EvalPair> pairs;
};

/// Builds the engine, compiles every program into its cache (the only
/// misses of the workload) and computes each pair's reference with
/// DvfCalculator::try_for_model.
ModelEvalSetup set_up_model_eval(std::uint64_t seed, Report& report) {
  ModelEvalSetup setup;
  setup.engine = std::make_unique<Engine>();
  const std::vector<std::string> sources = model_eval_sources(seed);
  std::size_t next_id = 0;
  for (std::size_t p = 0; p < sources.size(); ++p) {
    const std::string response =
        setup.engine->handle_line(source_frame(next_id++, sources[p]));
    const std::uint64_t hash = response_hash(response);
    if (!response_ok(response) || hash == 0) {
      report.fail("model_eval source " + std::to_string(p) +
                  " did not compile: " + response.substr(0, 200));
      continue;
    }
    auto program = std::make_shared<dsl::CompiledProgram>();
    dsl::DiagnosticEngine diags;
    *program = dsl::analyze(dsl::parse(sources[p]), diags);
    for (std::size_t m = 0; m < program->machines.size(); ++m) {
      const Machine& machine = program->machines[m];
      EvalPair pair{p, m, hash_frame(next_id++, hash, machine.name), {}};
      const Result<ApplicationDvf> ref =
          DvfCalculator(machine).try_for_model(program->models.at(0));
      const std::string response_m = setup.engine->handle_line(pair.frame);
      if (!ref.ok() || !cache_hit(response_m) ||
          !matches_reference(response_m, ref.value())) {
        report.fail("model_eval pair " + std::to_string(p) + "/" +
                    machine.name + " disagrees with try_for_model");
        continue;
      }
      pair.expected_results = std::string(response_results(response_m));
      setup.pairs.push_back(std::move(pair));
    }
    setup.programs.push_back(std::move(program));
  }
  return setup;
}

}  // namespace

Report run_serve_mix(const Options& options) {
  Report report;
  report.workload = "serve_mix";
  const Zipf zipf(kPoolSize, kZipfExponent);
  std::unique_ptr<ServeMix> mix;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<ResultBook> book;
  std::vector<ServeClient> clients;
  ClientStats warmup;
  const std::uint64_t warmup_requests =
      options.quick ? kWarmupRequests / 8 : kWarmupRequests;
  const double setup_s = timed_setup(options.setup_repeats(), [&] {
    mix = std::make_unique<ServeMix>(options.seed);
    engine = std::make_unique<Engine>();
    book = std::make_unique<ResultBook>(kPoolSize);
    clients.clear();
    for (unsigned i = 0; i < kServeClients; ++i) {
      clients.emplace_back(options.seed, i);
    }
    warmup = run_clients(clients, *engine, *mix, zipf, *book, warmup_requests,
                         1e9, false);
  });
  add_failures(report, warmup);

  const auto pass = [&](bool traced) {
    return run_clients(clients, *engine, *mix, zipf, *book, UINT64_MAX,
                       options.pass_seconds(), traced);
  };
  const ClientStats untraced = pass(false);
  add_failures(report, untraced);
  report.attempted = untraced.all.operations();
  add_end_to_end(report, options, setup_s, untraced.all);

  if (options.traced()) {
    traced_pass(report, *engine, untraced, pass);
  }
  return report;
}

Report run_model_eval(const Options& options) {
  Report report;
  report.workload = "model_eval";
  ModelEvalSetup setup;
  const double setup_s = timed_setup(options.setup_repeats(), [&] {
    Report scratch;
    scratch.workload = report.workload;
    setup = set_up_model_eval(options.seed, scratch);
    report.correct = scratch.correct;
    report.failed = scratch.failed;
  });
  if (setup.pairs.empty()) {
    report.fail("model_eval has no requests");
    return report;
  }
  Digest digest;
  for (const EvalPair& pair : setup.pairs) {
    digest.add(pair.expected_results);
  }
  report.digest = digest.hex();
  Engine& engine = *setup.engine;
  Xoshiro256 rng(stream_seed(options.seed, 4, 0));
  std::vector<std::size_t> order(setup.pairs.size());
  std::iota(order.begin(), order.end(), 0);

  // One round sends every pair once, in a fresh seeded order.
  RoundBest timings(setup.pairs.size(), kRoundTailQuantile);
  const auto pass = [&](bool traced) {
    ClientStats stats(options.pass_seconds());
    const Clock::time_point start = Clock::now();
    do {
      shuffle(order, rng);
      for (const std::size_t index : order) {
        if (stop_mid_round(options, start)) {
          break;
        }
        const EvalPair& pair = setup.pairs[index];
        const Clock::time_point sent = Clock::now();
        std::string response;
        {
          const obs::ScopedSpan span(kHandleLine);
          response = engine.handle_line(pair.frame);
        }
        const double us = us_since(sent);
        stats.record(us, true);
        if (!traced) {
          timings.record(index, us);
        }
        if (!cache_hit(response) ||
            response_results(response) != pair.expected_results) {
          stats.fail("model_eval response differs from its reference: " +
                     response.substr(0, 200));
        }
        if (traced) {
          stats.layers.add(kHandleLine, us);
          stats.busy_us += us;
          const dsl::CompiledProgram& program = *setup.programs[pair.program];
          stats.self_us +=
              us - time_evaluation(program.machines[pair.machine],
                                   program.models.at(0), stats);
        }
      }
      stats.tick();
    } while (seconds_since(start) < options.pass_seconds());
    stats.finish();
    return stats;
  };

  const ClientStats untraced = pass(false);
  add_failures(report, untraced);
  report.attempted = untraced.all.operations();
  add_end_to_end(report, options, setup_s, timings);

  if (options.traced()) {
    traced_pass(report, engine, untraced, pass);
  }
  return report;
}

}  // namespace dvf::bench
