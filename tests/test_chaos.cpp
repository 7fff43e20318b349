// Chaos harness: environment-fault injection through the failpoint
// subsystem (docs/resilience.md "Environment-fault injection").
//
// Where test_campaign_resilience.cpp injects faults into *application data*
// (the paper's methodology), these suites inject faults into the
// infrastructure itself — journal writes, trace export, serve evaluation,
// thread spawn, artifact writes — and assert the standing invariants: no
// crash, campaign statistics bit-identical with and without environment
// faults, journal resume exact after a failure at every record boundary,
// exactly one well-formed typed response per serve request, and counters
// conserved. Every suite name starts with "Chaos" so the TSan CI flavor
// can select them with a gtest filter.
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dvf/common/error.hpp"
#include "dvf/common/failpoint.hpp"
#include "dvf/common/result.hpp"
#include "dvf/common/robust_io.hpp"
#include "dvf/kernels/campaign_journal.hpp"
#include "dvf/kernels/injection_campaign.hpp"
#include "dvf/kernels/suite.hpp"
#include "dvf/kernels/vm.hpp"
#include "dvf/obs/obs.hpp"
#include "dvf/parallel/parallel_for.hpp"
#include "dvf/parallel/thread_pool.hpp"
#include "dvf/serve/engine.hpp"
#include "dvf/serve/json.hpp"
#include "dvf/trace/trace_io.hpp"

namespace dvf {
namespace {

using kernels::CampaignConfig;
using kernels::CampaignJournalEntry;
using kernels::StructureInjectionStats;
using kernels::TrialOutcome;

/// Every chaos suite runs with a clean failpoint table on entry and leaves
/// one behind, even when an assertion fails mid-test — failpoints are
/// process-global and must never leak into unrelated suites.
class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::clear(); }
  void TearDown() override { failpoint::clear(); }
};

void configure_or_die(const std::string& spec) {
  const Result<void> result = failpoint::configure(spec);
  ASSERT_TRUE(result.ok()) << result.error().describe();
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "dvf_chaos_" + name + "." +
         std::to_string(::getpid());
}

// --- Failpoint subsystem ---------------------------------------------------

using ChaosFailpoint = ChaosTest;

TEST_F(ChaosFailpoint, DisabledPathIsInert) {
  EXPECT_FALSE(failpoint::armed());
  const failpoint::Action action = DVF_FAILPOINT("test.inert");
  EXPECT_FALSE(static_cast<bool>(action));
  // A disabled evaluation does not even count a hit.
  for (const failpoint::HitCount& count : failpoint::hit_counts()) {
    EXPECT_NE(count.name, "test.inert");
  }
}

TEST_F(ChaosFailpoint, RejectsUnknownNamesAndBadSyntax) {
  // Catalog names and "test." ad-hoc points parse; typos are refused so a
  // schedule can never silently not fire.
  EXPECT_TRUE(failpoint::configure("campaign.journal.write=error(28)@3").ok());
  EXPECT_TRUE(failpoint::configure("test.anything=throw").ok());
  EXPECT_FALSE(failpoint::configure("campain.journal.write=throw").ok());
  EXPECT_FALSE(failpoint::configure("test.x").ok());          // no '='
  EXPECT_FALSE(failpoint::configure("test.x=explode").ok());  // bad action
  EXPECT_FALSE(failpoint::configure("test.x=error(abc)").ok());
  EXPECT_FALSE(failpoint::configure("test.x=error@0").ok());  // 1-based
  EXPECT_FALSE(failpoint::configure("test.x=error%1.5").ok());
  EXPECT_FALSE(failpoint::configure("test.x=error%0.5:12junk").ok());
  const Result<void> bad = failpoint::configure("test.x=nope");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().kind, ErrorKind::kDomainError);
}

TEST_F(ChaosFailpoint, NthHitTriggerFiresExactlyOnce) {
  configure_or_die("test.nth=error(28)@3");
  EXPECT_TRUE(failpoint::armed());
  for (int hit = 1; hit <= 8; ++hit) {
    const failpoint::Action action = DVF_FAILPOINT("test.nth");
    if (hit == 3) {
      EXPECT_EQ(action.kind, failpoint::ActionKind::kError);
      EXPECT_EQ(action.error_code, 28);  // ENOSPC
    } else {
      EXPECT_FALSE(static_cast<bool>(action)) << "hit " << hit;
    }
  }
  const auto counts = failpoint::hit_counts();
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0].name, "test.nth");
  EXPECT_EQ(counts[0].hits, 8u);
  EXPECT_EQ(counts[0].fired, 1u);
}

TEST_F(ChaosFailpoint, EveryKthTriggerFiresPeriodically) {
  configure_or_die("test.every=eintr/3");
  for (int hit = 1; hit <= 9; ++hit) {
    const failpoint::Action action = DVF_FAILPOINT("test.every");
    EXPECT_EQ(static_cast<bool>(action), hit % 3 == 0) << "hit " << hit;
  }
  const auto counts = failpoint::hit_counts();
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0].fired, 3u);
}

TEST_F(ChaosFailpoint, ProbabilityTriggerIsDeterministic) {
  // The per-hit draw is a pure function of (seed, hit ordinal), so the
  // fire pattern replays exactly after a clear + reconfigure.
  const auto run_pattern = [] {
    std::vector<bool> fired;
    for (int hit = 0; hit < 64; ++hit) {
      fired.push_back(static_cast<bool>(DVF_FAILPOINT("test.prob")));
    }
    return fired;
  };
  configure_or_die("test.prob=error%0.5:2014");
  const std::vector<bool> first = run_pattern();
  failpoint::clear();
  configure_or_die("test.prob=error%0.5:2014");
  EXPECT_EQ(run_pattern(), first);
  // ~50% fire rate, deterministic: the exact count is stable, and a seeded
  // draw cannot be degenerate (all or nothing) over 64 hits.
  const auto fired = static_cast<std::size_t>(
      std::count(first.begin(), first.end(), true));
  EXPECT_GT(fired, 16u);
  EXPECT_LT(fired, 48u);

  failpoint::clear();
  configure_or_die("test.prob=error%0.5:7");
  EXPECT_NE(run_pattern(), first) << "different seed, same pattern";
}

TEST_F(ChaosFailpoint, ThrowAndBadallocActionsRaise) {
  configure_or_die("test.raise=throw");
  EXPECT_THROW((void)DVF_FAILPOINT("test.raise"), Error);
  failpoint::clear();
  configure_or_die("test.raise=badalloc");
  EXPECT_THROW((void)DVF_FAILPOINT("test.raise"), std::bad_alloc);
  failpoint::clear();
  configure_or_die("test.raise=off");
  EXPECT_FALSE(failpoint::armed());
  EXPECT_FALSE(static_cast<bool>(DVF_FAILPOINT("test.raise")));
}

TEST_F(ChaosFailpoint, HitCountersFlowIntoMetricsSnapshot) {
  configure_or_die("test.metrics=error@2");
  for (int hit = 0; hit < 3; ++hit) {
    (void)DVF_FAILPOINT("test.metrics");
  }
  const obs::MetricsSnapshot snapshot = obs::snapshot_metrics();
  std::uint64_t hits = 0;
  std::uint64_t fired = 0;
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "failpoint.test.metrics.hits") {
      hits = value;
    } else if (name == "failpoint.test.metrics.fired") {
      fired = value;
    }
  }
  EXPECT_EQ(hits, 3u);
  EXPECT_EQ(fired, 1u);
}

// --- Journal write failures at every record boundary -----------------------

using ChaosJournal = ChaosTest;

/// One record of every outcome type, with both injected values — the full
/// record-type space a journal line can carry.
std::vector<CampaignJournalEntry> all_record_types() {
  return {
      {0, 0, TrialOutcome::kMasked, true},
      {1, 1, TrialOutcome::kSdc, true},
      {2, 2, TrialOutcome::kDueException, true},
      {0, 3, TrialOutcome::kDueHang, false},
      {1, 4, TrialOutcome::kDueInvalid, true},
  };
}

kernels::CampaignJournalHeader chaos_header() {
  kernels::CampaignJournalHeader header;
  header.kernel = "VM";
  header.seed = 2014;
  header.trials_per_structure = 10;
  header.hang_factor = 8.0;
  header.ci_width = 0.05;
  header.batch_trials = 50;
  header.targets = {{0, "A"}, {1, "B"}, {2, "C"}};
  return header;
}

TEST_F(ChaosJournal, WriteFailureAtEveryBoundaryForEveryRecordType) {
  const std::vector<CampaignJournalEntry> entries = all_record_types();
  const auto header = chaos_header();
  // ENOSPC (clean stream failure) and a torn short write, each injected at
  // every record boundary; the journal must resume to the exact same file.
  for (const std::string action : {"error(28)", "short"}) {
    const bool torn = action == "short";
    for (std::size_t boundary = 1; boundary <= entries.size(); ++boundary) {
      const std::string label = action + "@" + std::to_string(boundary);
      const std::string path = temp_path("boundary_" + label);
      failpoint::clear();
      configure_or_die("campaign.journal.write=" + label);
      {
        kernels::CampaignJournalWriter writer(path, header);
        for (std::size_t i = 0; i < entries.size(); ++i) {
          const Result<void> written = writer.record(entries[i]);
          if (i + 1 < boundary) {
            EXPECT_TRUE(written.ok()) << label << " record " << i;
          } else {
            // The boundary record fails with a classified io_error and the
            // writer latches dead: later records fail the same way without
            // touching the stream.
            ASSERT_FALSE(written.ok()) << label << " record " << i;
            EXPECT_EQ(written.error().kind, ErrorKind::kIoError) << label;
            EXPECT_TRUE(writer.failed()) << label;
          }
        }
      }
      failpoint::clear();

      const auto damaged = kernels::read_campaign_journal(path);
      EXPECT_EQ(damaged.torn_tail, torn) << label;
      ASSERT_EQ(damaged.entries.size(), boundary - 1) << label;

      // Resume: truncate the torn tail, append the missing records, and the
      // journal round-trips every record type bit for bit.
      {
        kernels::CampaignJournalWriter writer(path, damaged.valid_bytes);
        for (std::size_t i = boundary - 1; i < entries.size(); ++i) {
          EXPECT_TRUE(writer.record(entries[i]).ok()) << label;
        }
      }
      const auto repaired = kernels::read_campaign_journal(path);
      EXPECT_FALSE(repaired.torn_tail) << label;
      ASSERT_EQ(repaired.entries.size(), entries.size()) << label;
      for (std::size_t i = 0; i < entries.size(); ++i) {
        EXPECT_EQ(repaired.entries[i].target, entries[i].target) << label;
        EXPECT_EQ(repaired.entries[i].trial, entries[i].trial) << label;
        EXPECT_EQ(repaired.entries[i].outcome, entries[i].outcome) << label;
        EXPECT_EQ(repaired.entries[i].injected, entries[i].injected) << label;
      }
      std::remove(path.c_str());
    }
  }
}

void expect_stats_equal(const std::vector<StructureInjectionStats>& a,
                        const std::vector<StructureInjectionStats>& b,
                        const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].structure, b[i].structure) << label;
    EXPECT_EQ(a[i].trials, b[i].trials) << label << " " << a[i].structure;
    EXPECT_EQ(a[i].injected, b[i].injected) << label << " " << a[i].structure;
    EXPECT_EQ(a[i].masked, b[i].masked) << label << " " << a[i].structure;
    EXPECT_EQ(a[i].sdc, b[i].sdc) << label << " " << a[i].structure;
    EXPECT_EQ(a[i].due_exception, b[i].due_exception)
        << label << " " << a[i].structure;
    EXPECT_EQ(a[i].due_hang, b[i].due_hang) << label << " " << a[i].structure;
    EXPECT_EQ(a[i].due_invalid, b[i].due_invalid)
        << label << " " << a[i].structure;
    EXPECT_EQ(a[i].corrupted, b[i].corrupted)
        << label << " " << a[i].structure;
    EXPECT_EQ(a[i].early_stopped, b[i].early_stopped)
        << label << " " << a[i].structure;
  }
}

std::unique_ptr<kernels::KernelCase> make_vm() {
  return std::make_unique<kernels::KernelCaseAdapter<kernels::VectorMultiply>>(
      "VM", "dense", kernels::VectorMultiply::Config{.iterations = 120});
}

TEST_F(ChaosJournal, CampaignSurvivesEnospcAtEveryBoundary) {
  // A VM campaign journals 3 structures x 8 trials = 24 records. For every
  // boundary n: ENOSPC on the nth journal write mid-campaign. The campaign
  // must finish with unchanged statistics (one warning, journal-less from
  // there), the journal must hold exactly n-1 records, and resuming from it
  // must reproduce the reference bit for bit. At 1 and 4 threads.
  CampaignConfig config;
  config.trials_per_structure = 8;

  auto reference_kernel = make_vm();
  config.threads = 1;
  const auto reference =
      kernels::run_injection_campaign(*reference_kernel, config);
  const std::uint64_t total_records = 3u * config.trials_per_structure;

  for (const unsigned threads : {1u, 4u}) {
    for (std::uint64_t boundary = 1; boundary <= total_records; ++boundary) {
      const std::string label = "threads=" + std::to_string(threads) +
                                " boundary=" + std::to_string(boundary);
      const std::string path = temp_path(
          "enospc_t" + std::to_string(threads) + "_b" +
          std::to_string(boundary));
      failpoint::clear();
      configure_or_die("campaign.journal.write=error(28)@" +
                       std::to_string(boundary));

      config.threads = threads;
      config.journal_path = path;
      config.resume = false;
      auto kernel = make_vm();
      const auto degraded = kernels::run_injection_campaign(*kernel, config);
      expect_stats_equal(degraded, reference, label + " degraded");
      failpoint::clear();

      const auto journal = kernels::read_campaign_journal(path);
      EXPECT_FALSE(journal.torn_tail) << label;
      ASSERT_EQ(journal.entries.size(), boundary - 1) << label;

      config.resume = true;
      auto resumed_kernel = make_vm();
      const auto resumed =
          kernels::run_injection_campaign(*resumed_kernel, config);
      expect_stats_equal(resumed, reference, label + " resumed");

      const auto complete = kernels::read_campaign_journal(path);
      EXPECT_FALSE(complete.torn_tail) << label;
      EXPECT_EQ(complete.entries.size(), total_records) << label;
      std::remove(path.c_str());
    }
  }
}

TEST_F(ChaosJournal, OpenFailureDegradesToJournalLess) {
  CampaignConfig config;
  config.trials_per_structure = 8;
  auto reference_kernel = make_vm();
  const auto reference =
      kernels::run_injection_campaign(*reference_kernel, config);

  const std::string path = temp_path("openfail");
  configure_or_die("campaign.journal.open=error(13)");  // EACCES
  config.journal_path = path;
  auto kernel = make_vm();
  const auto stats = kernels::run_injection_campaign(*kernel, config);
  expect_stats_equal(stats, reference, "open failure");
  failpoint::clear();
  // The journal was never created; nothing to clean up, nothing torn.
  EXPECT_THROW((void)kernels::read_campaign_journal(path), Error);
}

TEST_F(ChaosJournal, TruncateFailureOnResumeStillReplays) {
  CampaignConfig config;
  config.trials_per_structure = 8;
  const std::string path = temp_path("truncfail");
  config.journal_path = path;
  auto full_kernel = make_vm();
  const auto reference =
      kernels::run_injection_campaign(*full_kernel, config);

  // Leave a torn tail, then make the resume-time truncation fail: the
  // campaign warns, carries on journal-less, and replays what it has —
  // statistics stay bit-identical.
  {
    std::ofstream out(path, std::ios::app);
    out << "trial 1 5";
  }
  configure_or_die("campaign.journal.truncate=error(28)");
  config.resume = true;
  auto resumed_kernel = make_vm();
  const auto resumed =
      kernels::run_injection_campaign(*resumed_kernel, config);
  expect_stats_equal(resumed, reference, "truncate failure");
  std::remove(path.c_str());
}

// --- Serve request storms under allocation pressure ------------------------

using ChaosServe = ChaosTest;

constexpr const char* kServeModel =
    "param n = 64;\n"
    "model \"m\" {\n"
    "  time 0.5;\n"
    "  data A { elements n; element_size 8; }\n"
    "  pattern A stream { stride 1; repeat 4; }\n"
    "}\n";

TEST_F(ChaosServe, EvalAllocStormShedsExactlyTheScheduledRequests) {
  serve::Engine engine;
  const std::string frame =
      "{\"id\":1,\"op\":\"eval\",\"source\":" +
      serve::json_escape_string(kServeModel) + "}";
  // Every 3rd evaluation runs out of memory. Each request still gets
  // exactly one well-formed response: ok on the spared hits, a typed
  // resource_limit shed on the scheduled ones — never a crash, never the
  // internal catch-all.
  configure_or_die("eval.alloc=badalloc/3");
  constexpr int kStorm = 30;
  int ok_count = 0;
  int shed_count = 0;
  for (int i = 1; i <= kStorm; ++i) {
    const std::string response = engine.handle_line(frame);
    ASSERT_FALSE(response.empty()) << "request " << i;
    const serve::JsonParsed parsed = serve::parse_json(response);
    ASSERT_TRUE(parsed.ok && parsed.value.is_object()) << response;
    const serve::JsonValue* ok = parsed.value.find("ok");
    ASSERT_TRUE(ok != nullptr && ok->is_bool()) << response;
    if (i % 3 == 0) {
      EXPECT_FALSE(ok->boolean) << "request " << i;
      const serve::JsonValue* error = parsed.value.find("error");
      ASSERT_NE(error, nullptr) << response;
      const serve::JsonValue* kind = error->find("kind");
      ASSERT_TRUE(kind != nullptr && kind->is_string()) << response;
      EXPECT_EQ(kind->string, "resource_limit") << response;
      ++shed_count;
    } else {
      EXPECT_TRUE(ok->boolean) << "request " << i << ": " << response;
      ++ok_count;
    }
  }
  // Counters conserved: every request is exactly one of ok / error.
  EXPECT_EQ(engine.requests_handled(), static_cast<std::uint64_t>(kStorm));
  EXPECT_EQ(engine.responses_ok(), static_cast<std::uint64_t>(ok_count));
  EXPECT_EQ(engine.responses_error(), static_cast<std::uint64_t>(shed_count));
  EXPECT_EQ(engine.responses_ok() + engine.responses_error(),
            engine.requests_handled());

  // With the schedule cleared the same engine instance recovers fully.
  failpoint::clear();
  const serve::JsonParsed recovered =
      serve::parse_json(engine.handle_line(frame));
  ASSERT_TRUE(recovered.ok);
  EXPECT_TRUE(recovered.value.find("ok")->boolean);
}

// --- Robust I/O ------------------------------------------------------------

using ChaosRobustIo = ChaosTest;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST_F(ChaosRobustIo, AtomicWritePreservesOldContentsOnFailure) {
  const std::string path = temp_path("atomic");
  ASSERT_TRUE(io::write_file_atomic(path, "original contents\n").ok());

  configure_or_die("io.write_file=error(28)");
  const Result<void> failed = io::write_file_atomic(path, "replacement\n");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().kind, ErrorKind::kIoError);
  failpoint::clear();

  // The destination is the complete old file — never a prefix of the new
  // one — and no temp file is left behind.
  EXPECT_EQ(slurp(path), "original contents\n");
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());

  ASSERT_TRUE(io::write_file_atomic(path, "replacement\n").ok());
  EXPECT_EQ(slurp(path), "replacement\n");
  std::remove(path.c_str());
}

TEST_F(ChaosRobustIo, CheckedFlushClassifiesFailedStreams) {
  std::ostringstream healthy;
  healthy << "fine";
  EXPECT_TRUE(io::checked_flush(healthy, "healthy stream").ok());

  std::ofstream dead("/nonexistent-dir-for-dvf-chaos/file");
  dead << "lost";
  const Result<void> result = io::checked_flush(dead, "dead stream");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ErrorKind::kIoError);
}

// --- Trace export under injected faults ------------------------------------

using ChaosTrace = ChaosTest;

TEST_F(ChaosTrace, FailedTraceWriteLeavesNoTornArtifact) {
  DataStructureRegistry registry;
  std::vector<std::int64_t> buffer(16);
  const DsId id = registry.register_structure(
      "A", buffer.data(), buffer.size() * sizeof(buffer[0]),
      sizeof(buffer[0]));
  std::vector<MemoryRecord> records;
  for (std::uint64_t i = 0; i < 8; ++i) {
    records.push_back({i * 8, 8, id, false});
  }

  const std::string path = temp_path("trace") + ".dvft";
  write_trace_file(path, registry, records);
  ASSERT_EQ(read_trace_file(path).records.size(), 8u);

  std::vector<MemoryRecord> more = records;
  more.push_back({64, 8, id, true});
  // Serialization failure (torn stream) and artifact-write failure
  // (ENOSPC on the temp file): both surface as dvf::Error and neither may
  // damage the existing artifact under the final name.
  for (const std::string spec :
       {"trace.write=throw", "io.write_file=error(28)"}) {
    failpoint::clear();
    configure_or_die(spec);
    EXPECT_THROW(write_trace_file(path, registry, more), Error) << spec;
    failpoint::clear();
    EXPECT_EQ(read_trace_file(path).records.size(), 8u) << spec;
  }

  configure_or_die("trace.read=throw");
  EXPECT_THROW((void)read_trace_file(path), Error);
  failpoint::clear();
  EXPECT_EQ(read_trace_file(path).records.size(), 8u);
  std::remove(path.c_str());
}

// --- Thread pool spawn failures --------------------------------------------

using ChaosPool = ChaosTest;

TEST_F(ChaosPool, SpawnFailureDegradesPoolButWorkCompletes) {
  // Every spawn fails: the pool degrades to the caller's slot alone.
  configure_or_die("pool.spawn=error(11)");  // EAGAIN
  parallel::ThreadPool solo(4);
  EXPECT_EQ(solo.concurrency(), 1u);
  failpoint::clear();

  // Only the second spawn fails: slot 0 (caller) plus one worker survive.
  configure_or_die("pool.spawn=error(11)@2");
  parallel::ThreadPool partial(4);
  EXPECT_EQ(partial.concurrency(), 2u);
  failpoint::clear();

  // Degraded pools still run every index exactly once, however many slots
  // survived.
  for (parallel::ThreadPool* pool : {&solo, &partial}) {
    std::vector<std::uint64_t> slots(1000, 0);
    parallel::parallel_for(*pool, slots.size(),
                           [&](std::uint64_t index) { slots[index] = index; });
    std::uint64_t total = 0;
    for (const std::uint64_t value : slots) {
      total += value;
    }
    EXPECT_EQ(total, 999u * 1000u / 2u);
  }
}

}  // namespace
}  // namespace dvf
