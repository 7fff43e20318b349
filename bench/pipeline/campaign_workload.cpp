// campaign: statistical fault injection (§VI), the expensive baseline DVF
// approximates. Each round runs run_injection_campaign once per
// extended-suite kernel, seeded with the workload seed, on min(4, nproc)
// threads with the default hang factor and a journal in a temporary file.
// The kernels, the fault-injecting recorder and the thread pool do the
// work, and every trial also writes to the journal, so the write path runs
// beside the compute. Trials per structure are sized per kernel so that CG,
// whose trials cost the most, does not take the run.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <tuple>
#include <vector>

#include "bench.hpp"
#include "dvf/common/rng.hpp"
#include "dvf/dvf/calculator.hpp"
#include "dvf/kernels/injection_campaign.hpp"
#include "dvf/kernels/suite.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/machine/machine.hpp"
#include "dvf/obs/obs.hpp"

namespace dvf::bench {
namespace {

using kernels::CampaignConfig;
using kernels::KernelCase;
using kernels::StructureInjectionStats;

// lat_tail_us: p90 over the seven kernel campaigns at their best, which is
// the slowest one.
constexpr double kTailQuantile = 0.90;
/// Trials per structure of the serial and journal studies, as a share of
/// the round's.
constexpr std::uint64_t kStudyDivisor = 4;
/// Trials per structure timed one by one for kernels.trial_us.
constexpr std::uint64_t kSampleTrials = 2;

constexpr const char* kRunInjected = "bench.kernels.run_injected";
constexpr const char* kCampaign = "bench.kernels.run_injection_campaign";

/// Trials per structure for each kernel (the quick size divides by 8).
/// CGS is left out: a flip in its CSR column indices sends the kernel
/// reading out of bounds, which the per-trial sandbox does not contain, so
/// its campaigns crash the process.
const std::map<std::string, std::uint64_t>& trials_per_kernel() {
  static const std::map<std::string, std::uint64_t> trials = {
      {"VM", 600}, {"CG", 4},  {"NB", 48}, {"MG", 48},
      {"FT", 400}, {"MC", 64}, {"GEMM", 64}};
  return trials;
}

unsigned campaign_threads() {
  return std::clamp(std::thread::hardware_concurrency(), 1U, 4U);
}

struct KernelEntry {
  std::unique_ptr<KernelCase> kernel;
  std::uint64_t trials = 0;                 ///< per structure
  std::map<std::string, StructureDvf> dvf;  ///< by structure name
};

/// Builds the suite and pays each kernel's one-off costs (golden run,
/// reference count, model) plus its DVF, so rounds time only campaigns.
std::vector<KernelEntry> set_up(bool quick, Report& report) {
  const DvfCalculator calculator(
      Machine::with_cache(caches::small_verification()));
  std::vector<KernelEntry> entries;
  for (auto& kernel : kernels::make_extended_suite()) {
    const auto trials = trials_per_kernel().find(kernel->name());
    if (trials == trials_per_kernel().end()) {
      continue;
    }
    KernelEntry entry;
    entry.trials = std::max<std::uint64_t>(1, trials->second / (quick ? 8 : 1));
    (void)kernel->clean_signature();
    (void)kernel->total_references();
    // T is common to a kernel's structures, so the DVF ranking does not
    // depend on it; 1 s keeps the reference deterministic.
    const Result<ApplicationDvf> app =
        calculator.try_for_model(kernel->model_spec(), 1.0);
    if (!app.ok()) {
      report.fail(kernel->name() + ": DVF failed: " + app.error().message);
    } else {
      for (const StructureDvf& s : app.value().structures) {
        entry.dvf[s.name] = s;
      }
    }
    entry.kernel = std::move(kernel);
    entries.push_back(std::move(entry));
  }
  return entries;
}

bool same_tallies(const std::vector<StructureInjectionStats>& a,
                  const std::vector<StructureInjectionStats>& b) {
  const auto key = [](const StructureInjectionStats& s) {
    return std::tuple(s.structure, s.trials, s.injected, s.masked, s.sdc,
                      s.due_exception, s.due_hang, s.due_invalid, s.corrupted,
                      s.early_stopped);
  };
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [&](const auto& x, const auto& y) { return key(x) == key(y); });
}

}  // namespace

Report run_campaign(const Options& options) {
  Report report;
  report.workload = "campaign";
  std::vector<KernelEntry> entries;
  const double setup_s = timed_setup(options.setup_repeats(), [&] {
    entries.clear();
    entries = set_up(options.quick, report);
  });
  const unsigned threads = campaign_threads();
  const std::string journal =
      (std::filesystem::temp_directory_path() /
       ("dvf_bench_campaign_" + std::to_string(getpid()) + ".journal"))
          .string();

  // First-round tallies of each kernel; later rounds must repeat them.
  std::vector<std::vector<StructureInjectionStats>> reference(entries.size());
  const auto campaign = [&](KernelEntry& entry, std::uint64_t trials,
                            unsigned workers, bool journaled) {
    CampaignConfig config;
    config.trials_per_structure = trials;
    config.seed = options.seed;
    config.threads = workers;
    config.journal_path = journaled ? journal : "";
    return kernels::run_injection_campaign(*entry.kernel, config);
  };

  // Latency per kernel campaign, work in trials.
  const auto pass = [&] {
    RoundBest timings(entries.size(), kTailQuantile);
    const Clock::time_point start = Clock::now();
    do {
      for (std::size_t k = 0; k < entries.size(); ++k) {
        if (stop_mid_round(options, start)) {
          break;
        }
        KernelEntry& entry = entries[k];
        const Clock::time_point sent = Clock::now();
        std::vector<StructureInjectionStats> tallies;
        {
          const obs::ScopedSpan span(kCampaign);
          tallies = campaign(entry, entry.trials, threads, true);
        }
        const double us = us_since(sent);
        bool ok = !tallies.empty();
        std::uint64_t trials = 0;
        for (const StructureInjectionStats& s : tallies) {
          trials += s.trials;
          ok = ok && s.trials == entry.trials &&
               s.masked + s.sdc + s.due_exception + s.due_hang +
                       s.due_invalid ==
                   s.trials;
        }
        timings.record(k, us, static_cast<double>(trials));
        std::error_code error;
        if (std::filesystem::file_size(journal, error) == 0 || error) {
          report.fail(entry.kernel->name() + ": the journal was not written");
        }
        if (!ok) {
          report.fail(entry.kernel->name() +
                      ": outcome classes do not sum to the trials");
        } else if (reference[k].empty()) {
          reference[k] = std::move(tallies);
        } else if (!same_tallies(reference[k], tallies)) {
          report.fail(entry.kernel->name() +
                      ": tallies changed between identical campaigns");
        }
      }
    } while (seconds_since(start) < options.pass_seconds());
    return timings;
  };

  const RoundBest untraced = pass();
  report.attempted = untraced.samples();
  add_end_to_end(report, options, setup_s, untraced);

  // Digest and outcome shares of the first round; DVF vs injected risk.
  Digest digest;
  std::uint64_t trials = 0;
  std::uint64_t sdc = 0;
  std::uint64_t due = 0;
  std::uint64_t hang = 0;
  double rho_sum = 0.0;
  std::uint64_t rho_kernels = 0;
  for (std::size_t k = 0; k < entries.size(); ++k) {
    std::vector<double> risk;
    std::vector<double> dvf;
    for (const StructureInjectionStats& s : reference[k]) {
      for (const std::uint64_t v :
           {s.trials, s.injected, s.masked, s.sdc, s.due_exception, s.due_hang,
            s.due_invalid}) {
        digest.add(v);
      }
      trials += s.trials;
      sdc += s.sdc;
      due += s.due_exception + s.due_hang + s.due_invalid;
      hang += s.due_hang;
      const auto found = entries[k].dvf.find(s.structure);
      const StructureDvf d =
          found == entries[k].dvf.end() ? StructureDvf{} : found->second;
      // §VI: faults strike in proportion to footprint, so injected risk is
      // the per-flip corruption rate times the structure's size.
      risk.push_back(s.corruption_rate_injected() * d.size_bytes);
      dvf.push_back(d.dvf);
    }
    if (risk.size() >= 2) {
      rho_sum += kernels::rank_correlation(dvf, risk);
      ++rho_kernels;
    }
  }
  report.digest = digest.hex();

  if (options.traced()) {
    obs::set_enabled(true);
    const RoundBest traced = pass();

    // Studies on a subset of each round's trials: serial vs parallel, and
    // journal vs none, plus single trials timed one by one.
    Layers layers;
    double serial_s = 0.0;
    double parallel_s = 0.0;
    double journaled_s = 0.0;
    std::uint64_t study_trials = 0;
    for (KernelEntry& entry : entries) {
      const std::uint64_t n =
          std::max<std::uint64_t>(1, entry.trials / kStudyDivisor);
      Clock::time_point start = Clock::now();
      for (const auto& s : campaign(entry, n, 1, false)) {
        study_trials += s.trials;
      }
      serial_s += seconds_since(start);
      start = Clock::now();
      (void)campaign(entry, n, threads, false);
      parallel_s += seconds_since(start);
      start = Clock::now();
      (void)campaign(entry, n, threads, true);
      journaled_s += seconds_since(start);

      // The campaign's own fault sites: trial t of structure s draws its
      // trigger, byte and bit from stream_rng(seed, s, t).
      KernelCase& kernel = *entry.kernel;
      const std::uint64_t refs = kernel.total_references();
      const auto budget = std::max(
          refs, static_cast<std::uint64_t>(
                    std::ceil(CampaignConfig{}.hang_factor *
                              static_cast<double>(refs))));
      const ModelSpec spec = kernel.model_spec();
      for (std::uint64_t s = 0; s < spec.structures.size(); ++s) {
        const auto id = kernel.registry().find(spec.structures[s].name);
        if (!id.has_value()) {
          continue;
        }
        const std::uint64_t size = kernel.registry().info(*id).size_bytes;
        for (std::uint64_t t = 0; t < kSampleTrials; ++t) {
          Xoshiro256 rng = stream_rng(options.seed, s, t);
          const std::uint64_t trigger = 1 + rng.below(refs);
          const std::uint64_t offset = rng.below(size);
          const auto bit = static_cast<std::uint8_t>(rng.below(8));
          const LayerTimer timer(layers, kRunInjected);
          (void)kernel.run_injected(*id, trigger, offset, bit, budget);
        }
      }
    }
    obs::set_enabled(false);

    const double serial_rate =
        static_cast<double>(study_trials) / std::max(serial_s, 1e-9);
    const double parallel_rate =
        static_cast<double>(study_trials) / std::max(parallel_s, 1e-9);
    const auto share = [trials](std::uint64_t n) {
      return trials == 0 ? 0.0
                         : static_cast<double>(n) / static_cast<double>(trials);
    };
    report.metric("kernels.trial_us", layers.mean_us(kRunInjected), "us");
    report.metric("campaign.serial_trials_per_s", serial_rate, "1/s");
    report.metric("parallel.efficiency",
                  parallel_rate / (serial_rate * threads), "ratio");
    report.metric("campaign.journal_overhead_pct",
                  100.0 * (journaled_s / std::max(parallel_s, 1e-9) - 1.0),
                  "%");
    report.metric("campaign.sdc_frac", share(sdc), "ratio");
    report.metric("campaign.due_frac", share(due), "ratio");
    report.metric("campaign.hang_frac", share(hang), "ratio");
    report.metric("campaign.dvf_rank_rho",
                  rho_kernels == 0 ? 0.0
                                   : rho_sum / static_cast<double>(rho_kernels),
                  "rho");
    report.metric("obs.overhead_pct", overhead_pct(traced, untraced), "%");
  }
  std::filesystem::remove(journal);
  return report;
}

}  // namespace dvf::bench
