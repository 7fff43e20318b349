// Fault-tolerant campaign runner: outcome taxonomy on a purpose-built
// misbehaving kernel, crash-safe journal checkpoint/resume, and adaptive
// (Wilson-CI) early stopping — all under the engine's bit-identical
// determinism guarantee.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dvf/common/error.hpp"
#include "dvf/kernels/campaign_journal.hpp"
#include "dvf/kernels/injection_campaign.hpp"
#include "dvf/kernels/suite.hpp"
#include "dvf/kernels/vm.hpp"

namespace dvf {
namespace {

using kernels::CampaignConfig;
using kernels::StructureInjectionStats;
using kernels::TrialOutcome;

// --- A kernel that misbehaves on demand ------------------------------------
//
// Three 32-bit control words steer the run: a flip landing in flags[0]
// makes it throw, in flags[1] makes it issue `runaway` extra references
// (a data-dependent "hang"), in flags[2] poisons the output with NaN.
// flags[3] and the payload behave like a normal kernel (masked / SDC).
// The flags are read AFTER the payload, so almost every trigger lands
// before the read and the misbehavior actually fires.
class MisbehavingKernel {
 public:
  using Element = std::int32_t;

  struct Config {
    std::uint64_t payload = 16;    ///< well-behaved references per run
    std::uint64_t runaway = 4096;  ///< extra references when flags[1] flips
  };

  explicit MisbehavingKernel(const Config& config)
      : config_(config), flags_(4), data_(config.payload) {
    for (std::size_t i = 0; i < data_.size(); ++i) {
      data_[i] = static_cast<Element>(i % 9 + 1);
    }
    flags_id_ = registry_.register_structure("flags", flags_.data(),
                                             flags_.size_bytes(),
                                             sizeof(Element));
    data_id_ = registry_.register_structure("data", data_.data(),
                                            data_.size_bytes(),
                                            sizeof(Element));
  }

  template <RecorderLike R>
  void run(R& rec) {
    double acc = 0.0;
    for (std::size_t i = 0; i < data_.size(); ++i) {
      kernels::load(rec, data_id_, data_, i);
      acc += static_cast<double>(data_[i]);
    }
    for (std::size_t i = 0; i < 3; ++i) {
      kernels::load(rec, flags_id_, flags_, i);
    }
    if (flags_[0] != 0) {
      throw std::runtime_error("misbehaving kernel: corrupted control word");
    }
    if (flags_[1] != 0) {
      for (std::uint64_t i = 0; i < config_.runaway; ++i) {
        kernels::load(rec, data_id_, data_, i % data_.size());
      }
    }
    signature_ = flags_[2] != 0
                     ? std::numeric_limits<double>::quiet_NaN()
                     : acc;
  }

  void reset() { signature_ = 0.0; }
  [[nodiscard]] double output_signature() const { return signature_; }

  [[nodiscard]] ModelSpec model_spec() const {
    ModelSpec spec;
    spec.name = "MISBEHAVE";
    const auto add = [&](const char* name, std::uint64_t elements) {
      DataStructureSpec ds;
      ds.name = name;
      ds.size_bytes = elements * sizeof(Element);
      StreamingSpec stream;
      stream.element_bytes = sizeof(Element);
      stream.element_count = elements;
      stream.stride_elements = 1;
      ds.patterns.emplace_back(stream);
      spec.structures.push_back(std::move(ds));
    };
    add("flags", flags_.size());
    add("data", data_.size());
    return spec;
  }

  [[nodiscard]] const DataStructureRegistry& registry() const noexcept {
    return registry_;
  }

 private:
  Config config_;
  AlignedBuffer<Element> flags_;
  AlignedBuffer<Element> data_;
  DataStructureRegistry registry_;
  DsId flags_id_{};
  DsId data_id_{};
  double signature_ = 0.0;
};

using MisbehavingCase = kernels::KernelCaseAdapter<MisbehavingKernel>;

MisbehavingCase make_misbehaving() {
  return MisbehavingCase("MISBEHAVE", "test", MisbehavingKernel::Config{});
}

// --- Trial classification --------------------------------------------------

TEST(TrialClassification, ThrowingTrialIsDueExceptionAndContained) {
  auto kernel = make_misbehaving();
  const auto flags = *kernel.registry().find("flags");
  // Flip bit 0 of flags[0] before anything runs: the kernel throws.
  const auto outcome = kernel.run_injected(flags, 1, 0, 0);
  EXPECT_TRUE(outcome.injected);
  EXPECT_TRUE(outcome.corrupted);
  EXPECT_EQ(outcome.classification, TrialOutcome::kDueException);
  // Contained: the same kernel instance runs a clean trial right after.
  const auto clean =
      kernel.run_injected(flags, kernel.total_references(), 12, 0);
  EXPECT_EQ(clean.classification, TrialOutcome::kMasked);
}

TEST(TrialClassification, RunawayTrialIsDueHangUnderABudget) {
  auto kernel = make_misbehaving();
  const auto flags = *kernel.registry().find("flags");
  const std::uint64_t golden = kernel.total_references();
  // flags[1] flip triggers 4096 extra references; a 2x budget catches it.
  const auto outcome = kernel.run_injected(flags, 1, 4, 0, 2 * golden);
  EXPECT_TRUE(outcome.injected);
  EXPECT_TRUE(outcome.corrupted);
  EXPECT_EQ(outcome.classification, TrialOutcome::kDueHang);
}

TEST(TrialClassification, RunawayTrialWithoutBudgetRunsToCompletion) {
  auto kernel = make_misbehaving();
  const auto flags = *kernel.registry().find("flags");
  // No budget: the runaway loop finishes and the output is untouched, so
  // the very same flip classifies masked — the budget is what turns
  // "suspiciously long" into a detected hang.
  const auto outcome = kernel.run_injected(flags, 1, 4, 0);
  EXPECT_TRUE(outcome.injected);
  EXPECT_EQ(outcome.classification, TrialOutcome::kMasked);
}

TEST(TrialClassification, NanOutputIsDueInvalid) {
  auto kernel = make_misbehaving();
  const auto flags = *kernel.registry().find("flags");
  const auto outcome = kernel.run_injected(flags, 1, 8, 0);
  EXPECT_TRUE(outcome.injected);
  EXPECT_TRUE(outcome.corrupted);
  EXPECT_EQ(outcome.classification, TrialOutcome::kDueInvalid);
  EXPECT_TRUE(std::isinf(outcome.deviation));
}

TEST(TrialClassification, DataFlipIsPlainSdc) {
  auto kernel = make_misbehaving();
  const auto data = *kernel.registry().find("data");
  // Flip a high bit of data[0] before its only read.
  const auto outcome = kernel.run_injected(data, 1, 2, 7);
  EXPECT_TRUE(outcome.injected);
  EXPECT_EQ(outcome.classification, TrialOutcome::kSdc);
  EXPECT_GT(outcome.deviation, 0.0);
  EXPECT_TRUE(std::isfinite(outcome.deviation));
}

TEST(TrialClassification, OutcomeLabelsRoundTrip) {
  for (const TrialOutcome outcome :
       {TrialOutcome::kMasked, TrialOutcome::kSdc, TrialOutcome::kDueException,
        TrialOutcome::kDueHang, TrialOutcome::kDueInvalid}) {
    const auto back = kernels::trial_outcome_from_string(to_string(outcome));
    ASSERT_TRUE(back.has_value()) << to_string(outcome);
    EXPECT_EQ(*back, outcome);
  }
  EXPECT_FALSE(kernels::trial_outcome_from_string("nonsense").has_value());
}

// --- Campaign-level fault tolerance ----------------------------------------

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

TEST(CampaignResilience, MisbehavingTrialsAreClassifiedNotFatal) {
  auto kernel = make_misbehaving();
  CampaignConfig config;
  config.trials_per_structure = 64;
  config.hang_factor = 2.0;

  const auto stats = kernels::run_injection_campaign(kernel, config);
  ASSERT_EQ(stats.size(), 2u);  // flags, data

  const StructureInjectionStats& flags = stats[0];
  EXPECT_EQ(flags.structure, "flags");
  // Every class partitions the trial count.
  EXPECT_EQ(flags.masked + flags.sdc + flags.due_exception + flags.due_hang +
                flags.due_invalid,
            flags.trials);
  EXPECT_EQ(flags.corrupted, flags.trials - flags.masked);
  // Fault sites are uniform over 16 flag bytes, so each control word takes
  // ~1/4 of the trials and every misbehavior class must show up.
  EXPECT_GT(flags.due_exception, 0u);
  EXPECT_GT(flags.due_hang, 0u);
  EXPECT_GT(flags.due_invalid, 0u);
  EXPECT_GT(flags.masked, 0u);  // flags[3] flips and post-read triggers

  const StructureInjectionStats& data = stats[1];
  EXPECT_EQ(data.structure, "data");
  EXPECT_EQ(data.due_exception, 0u);
  EXPECT_EQ(data.due_hang, 0u);
  EXPECT_GT(data.sdc, 0u);
  EXPECT_EQ(data.sdc, data.corrupted);
}

TEST(CampaignResilience, MisbehavingCampaignBitIdenticalAcrossThreads) {
  CampaignConfig config;
  config.trials_per_structure = 48;
  config.hang_factor = 2.0;

  auto reference_kernel = make_misbehaving();
  config.threads = 1;
  const auto reference =
      kernels::run_injection_campaign(reference_kernel, config);
  for (const unsigned threads : {2u, 4u}) {
    auto kernel = make_misbehaving();
    config.threads = threads;
    const auto stats = kernels::run_injection_campaign(kernel, config);
    expect_stats_equal(stats, reference,
                       "threads=" + std::to_string(threads));
  }
}

TEST(CampaignResilience, SparseCgIndexFlipsAreDuesNotCrashes) {
  // Flips in CGS's CSR row pointers and column indices used to send its
  // SpMV out of bounds (dvfc campaign CGS --trials 60 --seed 2014 died
  // with SIGSEGV). They must classify as DUEs, the same at any thread count.
  const auto find_cgs = [](auto& suite) -> kernels::KernelCase& {
    for (auto& kernel : suite) {
      if (kernel->name() == "CGS") {
        return *kernel;
      }
    }
    throw std::runtime_error("no CGS in the extended suite");
  };
  CampaignConfig config;
  config.trials_per_structure = 60;
  config.seed = 2014;

  auto reference_suite = kernels::make_extended_suite();
  config.threads = 1;
  const auto reference =
      kernels::run_injection_campaign(find_cgs(reference_suite), config);
  std::uint64_t index_dues = 0;
  for (const StructureInjectionStats& s : reference) {
    EXPECT_EQ(s.masked + s.sdc + s.due_exception + s.due_hang + s.due_invalid,
              s.trials)
        << s.structure;
    if (s.structure == "row" || s.structure == "col") {
      index_dues += s.due_exception;
    }
  }
  EXPECT_GT(index_dues, 0u);

  auto suite = kernels::make_extended_suite();
  config.threads = 4;
  expect_stats_equal(kernels::run_injection_campaign(find_cgs(suite), config),
                     reference, "threads=4");
}

// --- Journal format --------------------------------------------------------

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "dvf_" + name + "." +
         std::to_string(::getpid()) + ".journal";
}

kernels::CampaignJournalHeader sample_header() {
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

TEST(CampaignJournal, HeaderAndEntriesRoundTrip) {
  const std::string path = temp_path("roundtrip");
  const auto header = sample_header();
  {
    kernels::CampaignJournalWriter writer(path, header);
    EXPECT_TRUE(writer.record({0, 0, TrialOutcome::kMasked, true}).ok());
    EXPECT_TRUE(writer.record({1, 3, TrialOutcome::kSdc, true}).ok());
    EXPECT_TRUE(writer.record({2, 9, TrialOutcome::kDueHang, false}).ok());
  }
  const auto contents = kernels::read_campaign_journal(path);
  EXPECT_EQ(contents.header, header);
  EXPECT_FALSE(contents.torn_tail);
  ASSERT_EQ(contents.entries.size(), 3u);
  EXPECT_EQ(contents.entries[1].target, 1u);
  EXPECT_EQ(contents.entries[1].trial, 3u);
  EXPECT_EQ(contents.entries[1].outcome, TrialOutcome::kSdc);
  EXPECT_TRUE(contents.entries[1].injected);
  EXPECT_EQ(contents.entries[2].outcome, TrialOutcome::kDueHang);
  EXPECT_FALSE(contents.entries[2].injected);
  std::remove(path.c_str());
}

TEST(CampaignJournal, TornTailIsDroppedAndTruncatable) {
  const std::string path = temp_path("torn");
  {
    kernels::CampaignJournalWriter writer(path, sample_header());
    EXPECT_TRUE(writer.record({0, 0, TrialOutcome::kMasked, true}).ok());
    EXPECT_TRUE(writer.record({0, 1, TrialOutcome::kSdc, true}).ok());
  }
  // Simulate a kill mid-write: a partial line without its newline.
  std::uint64_t valid = 0;
  {
    const auto intact = kernels::read_campaign_journal(path);
    valid = intact.valid_bytes;
    std::ofstream out(path, std::ios::app);
    out << "trial 0 2 sd";
  }
  const auto contents = kernels::read_campaign_journal(path);
  EXPECT_TRUE(contents.torn_tail);
  ASSERT_EQ(contents.entries.size(), 2u);
  EXPECT_EQ(contents.valid_bytes, valid);

  // A resume writer truncates the tail; the file parses clean again.
  {
    kernels::CampaignJournalWriter writer(path, contents.valid_bytes);
    EXPECT_TRUE(writer.record({0, 2, TrialOutcome::kSdc, true}).ok());
  }
  const auto repaired = kernels::read_campaign_journal(path);
  EXPECT_FALSE(repaired.torn_tail);
  ASSERT_EQ(repaired.entries.size(), 3u);
  EXPECT_EQ(repaired.entries[2].trial, 2u);
  std::remove(path.c_str());
}

TEST(CampaignJournal, RejectsForeignFilesAndBadHeaders) {
  const std::string path = temp_path("bad");
  {
    std::ofstream out(path);
    out << "not a journal\n";
  }
  EXPECT_THROW((void)kernels::read_campaign_journal(path), Error);
  std::remove(path.c_str());
  EXPECT_THROW((void)kernels::read_campaign_journal(path), Error);
}

// --- Checkpoint / resume ---------------------------------------------------

std::unique_ptr<kernels::KernelCase> make_vm() {
  return std::make_unique<kernels::KernelCaseAdapter<kernels::VectorMultiply>>(
      "VM", "dense", kernels::VectorMultiply::Config{.iterations = 120});
}

TEST(CampaignResume, KilledCampaignResumesBitIdentical) {
  for (const unsigned threads : {1u, 4u}) {
    const std::string label = "threads=" + std::to_string(threads);
    const std::string full_path = temp_path("full_t" + std::to_string(threads));
    CampaignConfig config;
    config.trials_per_structure = 24;
    config.threads = threads;
    config.journal_path = full_path;

    auto full_kernel = make_vm();
    const auto full = kernels::run_injection_campaign(*full_kernel, config);

    // Simulate a mid-run kill: keep the header plus the first 20 trial
    // lines, then a torn partial line.
    const std::string killed_path =
        temp_path("killed_t" + std::to_string(threads));
    {
      std::ifstream in(full_path);
      std::ofstream out(killed_path);
      std::string line;
      std::size_t trials_kept = 0;
      while (std::getline(in, line)) {
        const bool is_trial = line.rfind("trial ", 0) == 0;
        if (is_trial && ++trials_kept > 20) {
          break;
        }
        out << line << "\n";
      }
      out << "trial 1 7";  // torn tail, no newline
    }

    config.journal_path = killed_path;
    config.resume = true;
    auto resumed_kernel = make_vm();
    const auto resumed =
        kernels::run_injection_campaign(*resumed_kernel, config);
    expect_stats_equal(resumed, full, label + " resumed");

    // The repaired journal is now complete: a second resume replays it
    // without running anything and still matches.
    const auto journal = kernels::read_campaign_journal(killed_path);
    EXPECT_FALSE(journal.torn_tail) << label;
    EXPECT_EQ(journal.entries.size(), 3u * 24u) << label;
    auto replayed_kernel = make_vm();
    const auto replayed =
        kernels::run_injection_campaign(*replayed_kernel, config);
    expect_stats_equal(replayed, full, label + " replayed");

    std::remove(full_path.c_str());
    std::remove(killed_path.c_str());
  }
}

TEST(CampaignResume, RefusesMismatchedJournal) {
  const std::string path = temp_path("mismatch");
  CampaignConfig config;
  config.trials_per_structure = 6;
  config.journal_path = path;
  auto kernel = make_vm();
  (void)kernels::run_injection_campaign(*kernel, config);

  config.resume = true;
  config.seed = 7;  // different stream → the journal must be refused
  auto other = make_vm();
  EXPECT_THROW((void)kernels::run_injection_campaign(*other, config), Error);
  std::remove(path.c_str());
}

TEST(CampaignResume, ResumeWithoutJournalPathIsRejected) {
  CampaignConfig config;
  config.resume = true;
  auto kernel = make_vm();
  EXPECT_THROW((void)kernels::run_injection_campaign(*kernel, config),
               InvalidArgumentError);
}

// --- Adaptive early stopping -----------------------------------------------

TEST(CampaignAdaptiveStop, ConvergedStructuresStopEarlyDeterministically) {
  CampaignConfig config;
  config.trials_per_structure = 400;
  config.ci_width = 0.12;
  config.batch_trials = 20;

  auto reference_kernel = make_vm();
  config.threads = 1;
  const auto reference =
      kernels::run_injection_campaign(*reference_kernel, config);
  ASSERT_EQ(reference.size(), 3u);
  for (const auto& s : reference) {
    // Every VM structure's SDC rate pins down well before 400 trials.
    EXPECT_TRUE(s.early_stopped) << s.structure;
    EXPECT_LT(s.trials, 400u) << s.structure;
    EXPECT_GE(s.trials, 20u) << s.structure;
    // The stopper's promise: the CI it stopped on is below the target.
    EXPECT_LT(s.sdc_ci_half_width(), 0.12) << s.structure;
    // Trial counts are batch-aligned (deterministic boundaries).
    EXPECT_EQ(s.trials % 20, 0u) << s.structure;
  }

  config.threads = 4;
  auto kernel = make_vm();
  const auto stats = kernels::run_injection_campaign(*kernel, config);
  expect_stats_equal(stats, reference, "adaptive threads=4");
}

TEST(CampaignAdaptiveStop, DisabledStopperRunsEveryTrial) {
  CampaignConfig config;
  config.trials_per_structure = 30;
  config.ci_width = 0.0;
  auto kernel = make_vm();
  const auto stats = kernels::run_injection_campaign(*kernel, config);
  for (const auto& s : stats) {
    EXPECT_EQ(s.trials, 30u);
    EXPECT_FALSE(s.early_stopped);
  }
}

}  // namespace
}  // namespace dvf
