// Fault-injection campaign vs DVF — the comparison the paper argues for.
//
// §VI positions DVF against statistical fault injection: injection gives
// ground-truth corruption probabilities but "a large number of fault
// injections must be performed", while DVF is analytical and instant. This
// harness runs both on the verification kernels: hundreds of random bit
// flips per data structure (random site, random time) vs the structures'
// DVFs, plus the Spearman rank correlation between the two orderings and
// the wall-clock cost of each methodology.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "dvf/dvf/calculator.hpp"
#include "dvf/kernels/injection_campaign.hpp"
#include "dvf/kernels/kernel_common.hpp"
#include "dvf/kernels/suite.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/machine/machine.hpp"
#include "dvf/obs/obs.hpp"
#include "dvf/parallel/thread_pool.hpp"
#include "dvf/report/table.hpp"

namespace {

bool identical(const std::vector<dvf::kernels::StructureInjectionStats>& a,
               const std::vector<dvf::kernels::StructureInjectionStats>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].structure != b[i].structure || a[i].trials != b[i].trials ||
        a[i].injected != b[i].injected || a[i].masked != b[i].masked ||
        a[i].sdc != b[i].sdc || a[i].due_exception != b[i].due_exception ||
        a[i].due_hang != b[i].due_hang ||
        a[i].due_invalid != b[i].due_invalid ||
        a[i].corrupted != b[i].corrupted ||
        a[i].early_stopped != b[i].early_stopped) {
      return false;
    }
  }
  return true;
}

/// Resilience-machinery overhead: the same campaign with the fault-
/// tolerance features individually enabled, against a bare baseline
/// (no hang budget, no journal). Classification itself is free — the
/// taxonomy falls out of state the trial already has — so the measurable
/// costs are the budget check in the recorder hot path and the journal
/// write per trial.
void overhead_study(dvf::bench::JsonRecords& json) {
  std::cout << dvf::banner(
      "Resilience overhead: hang budget + journaling vs bare campaign");

  auto suite = dvf::kernels::make_verification_suite();
  dvf::Table table(
      {"kernel", "mode", "trials", "wall_s", "trials/s", "overhead_%"});
  for (auto& kernel : suite) {
    if (kernel->name() != "VM" && kernel->name() != "FT") {
      continue;
    }
    dvf::kernels::CampaignConfig base;
    base.trials_per_structure = 400;
    (void)dvf::kernels::run_injection_campaign(*kernel, base);  // warm-up

    const std::string journal_path =
        "BENCH_campaign_overhead_" + kernel->name() + ".journal";
    struct Mode {
      const char* name;
      double hang_factor;
      bool journal;
    };
    const Mode modes[] = {{"bare", 0.0, false},
                          {"budget", 8.0, false},
                          {"budget+journal", 8.0, true}};
    double bare_seconds = 0.0;
    for (const Mode& mode : modes) {
      dvf::kernels::CampaignConfig config = base;
      config.hang_factor = mode.hang_factor;
      config.journal_path = mode.journal ? journal_path : "";

      const dvf::kernels::Stopwatch watch;
      const auto stats = dvf::kernels::run_injection_campaign(*kernel, config);
      const double seconds = watch.seconds();
      if (mode.hang_factor == 0.0 && !mode.journal) {
        bare_seconds = seconds;
      }

      std::uint64_t trials = 0;
      std::uint64_t sdc = 0;
      std::uint64_t due = 0;
      for (const auto& s : stats) {
        trials += s.trials;
        sdc += s.sdc;
        due += s.due_exception + s.due_hang + s.due_invalid;
      }
      const double overhead = 100.0 * (seconds / bare_seconds - 1.0);
      table.add_row({kernel->name(), mode.name,
                     dvf::num(static_cast<double>(trials)),
                     dvf::num(seconds, 3),
                     dvf::num(static_cast<double>(trials) / seconds, 1),
                     dvf::num(overhead, 1)});
      json.add(dvf::bench::JsonRecords::Record{}
                   .field("study", "overhead")
                   .field("kernel", kernel->name())
                   .field("mode", mode.name)
                   .field("trials", trials)
                   .field("sdc", sdc)
                   .field("due", due)
                   .field("wall_s", seconds)
                   .field("overhead_pct", overhead));
      if (mode.journal) {
        std::remove(journal_path.c_str());
      }
    }
  }
  std::cout << table << "\n";
}

/// Thread-scaling study: the same campaign at 1..N threads, verifying the
/// engine's bit-identical determinism claim while measuring throughput.
void scaling_study(dvf::bench::JsonRecords& json) {
  std::cout << dvf::banner(
      "Campaign thread scaling (trials/sec; results must be bit-identical)");

  const unsigned hw = dvf::parallel::default_thread_count();
  std::vector<unsigned> thread_counts = {1};
  for (unsigned t = 2; t <= std::max(4u, hw); t *= 2) {
    thread_counts.push_back(t);
  }
  if (std::find(thread_counts.begin(), thread_counts.end(), hw) ==
      thread_counts.end()) {
    thread_counts.push_back(hw);
  }

  dvf::Table table({"kernel", "threads", "trials", "wall_s", "trials/s",
                    "speedup", "identical"});
  auto suite = dvf::kernels::make_verification_suite();
  for (auto& kernel : suite) {
    // FT and VM re-run in milliseconds, giving the scaling study enough
    // trials to matter without dominating the harness.
    if (kernel->name() != "VM" && kernel->name() != "FT") {
      continue;
    }
    dvf::kernels::CampaignConfig config;
    config.trials_per_structure = 400;

    // Untimed warm-up so the serial baseline does not absorb one-off costs
    // (page faults, allocator growth, instruction-cache fill) that would
    // inflate every later speedup figure.
    (void)dvf::kernels::run_injection_campaign(*kernel, config);

    std::vector<dvf::kernels::StructureInjectionStats> reference;
    double serial_seconds = 0.0;
    for (const unsigned threads : thread_counts) {
      config.threads = threads;
      const dvf::kernels::Stopwatch watch;
      const auto stats = dvf::kernels::run_injection_campaign(*kernel, config);
      const double seconds = watch.seconds();

      std::uint64_t trials = 0;
      for (const auto& s : stats) {
        trials += s.trials;
      }
      const bool same = threads == 1 || identical(stats, reference);
      if (threads == 1) {
        reference = stats;
        serial_seconds = seconds;
      }
      const double rate = static_cast<double>(trials) / seconds;
      table.add_row({kernel->name(), std::to_string(threads),
                     dvf::num(static_cast<double>(trials)),
                     dvf::num(seconds, 3), dvf::num(rate, 1),
                     dvf::num(serial_seconds / seconds, 2),
                     same ? "yes" : "NO"});
      json.add(dvf::bench::JsonRecords::Record{}
                   .field("kernel", kernel->name())
                   .field("threads", threads)
                   .field("trials", trials)
                   .field("wall_s", seconds)
                   .field("trials_per_s", rate)
                   .field("speedup_vs_serial", serial_seconds / seconds)
                   .field("bit_identical", same ? "yes" : "no"));
      if (!same) {
        std::cerr << "FATAL: campaign results diverged at " << threads
                  << " threads\n";
        std::exit(1);
      }
    }
  }
  std::cout << table << "\n";
}

}  // namespace

int main() {
  // Record the whole harness, so BENCH_campaign.json carries the outcome
  // counters and journal-flush timings next to the wall-clock records.
  dvf::obs::set_enabled(true);
  dvf::bench::JsonRecords json;
  scaling_study(json);
  overhead_study(json);
  std::cout << dvf::banner(
      "Fault injection vs DVF: does the analytical metric rank structures "
      "like ground-truth corruption rates?");

  const dvf::DvfCalculator calc(
      dvf::Machine::with_cache(dvf::caches::small_verification()));

  dvf::Table table({"kernel", "structure", "trials", "corrupted|inj_%",
                    "sdc", "due", "risk (rate*S_d)", "DVF", "DVF_rank",
                    "risk_rank"});
  dvf::Table summary({"kernel", "corr(DVF, rate)", "corr(DVF, risk)",
                      "injection_cost_s", "dvf_cost_s"});

  auto suite = dvf::kernels::make_verification_suite();
  for (auto& kernel : suite) {
    // The campaign re-runs the kernel trials*structures times; keep the
    // expensive kernels affordable.
    dvf::kernels::CampaignConfig config;
    config.trials_per_structure =
        (kernel->name() == "CG" || kernel->name() == "MG") ? 40 : 200;

    const dvf::kernels::Stopwatch injection_watch;
    const auto stats = dvf::kernels::run_injection_campaign(*kernel, config);
    const double injection_seconds = injection_watch.seconds();

    const dvf::kernels::Stopwatch dvf_watch;
    const double seconds = kernel->run_timed();
    dvf::ModelSpec spec = kernel->model_spec();
    spec.exec_time_seconds = seconds;
    const dvf::ApplicationDvf app = calc.try_for_model(spec).value_or_throw();
    const double dvf_seconds = dvf_watch.seconds();

    // Paired series: the raw per-flip corruption PROBABILITY (sensitivity),
    // and the incidence-weighted corruption RISK rate * S_d — faults strike
    // in proportion to footprint, which is the quantity DVF's N_error term
    // encodes. The risk series is the apples-to-apples ground truth. Both
    // use the rate CONDITIONED on the fault landing — the unconditional
    // corrupted/trials rate is diluted by trials whose trigger fired after
    // the structure's last use, which would handicap late-read structures
    // in the ranking for no physical reason.
    std::vector<double> corruption;
    std::vector<double> risk;
    std::vector<double> dvfs;
    for (const auto& s : stats) {
      corruption.push_back(s.corruption_rate_injected());
      const auto* result = app.find(s.structure);
      dvfs.push_back(result != nullptr ? result->dvf : 0.0);
      const double size =
          result != nullptr ? result->size_bytes : 0.0;
      risk.push_back(s.corruption_rate_injected() * size);
    }
    const auto rank_of = [](const std::vector<double>& xs, std::size_t i) {
      std::size_t rank = 1;
      for (std::size_t j = 0; j < xs.size(); ++j) {
        if (xs[j] > xs[i]) {
          ++rank;
        }
      }
      return rank;
    };
    for (std::size_t i = 0; i < stats.size(); ++i) {
      const auto& s = stats[i];
      table.add_row({kernel->name(), s.structure,
                     dvf::num(static_cast<double>(s.trials)),
                     dvf::num(100.0 * s.corruption_rate_injected(), 3),
                     dvf::num(static_cast<double>(s.sdc)),
                     dvf::num(static_cast<double>(
                         s.due_exception + s.due_hang + s.due_invalid)),
                     dvf::num(risk[i]), dvf::num(dvfs[i]),
                     std::to_string(rank_of(dvfs, i)),
                     std::to_string(rank_of(risk, i))});
    }
    summary.add_row({kernel->name(),
                     dvf::num(dvf::kernels::rank_correlation(corruption, dvfs),
                              3),
                     dvf::num(dvf::kernels::rank_correlation(risk, dvfs), 3),
                     dvf::num(injection_seconds, 3),
                     dvf::num(dvf_seconds, 3)});
  }

  std::cout << table << "\n" << summary;
  std::cout <<
      "\nReading: corr(DVF, risk) compares DVF against the incidence-\n"
      "weighted ground truth (corruption rate x footprint — faults strike\n"
      "big structures more often); corr(DVF, rate) against the raw per-flip\n"
      "sensitivity, which DVF does NOT claim to measure (small, always-live\n"
      "structures are the most sensitive per flip but rarely hit). The cost\n"
      "columns show the paper's speed argument: the analytical evaluation\n"
      "vs hundreds of full re-runs per structure.\n";
  json.set_metrics(dvf::obs::render_metrics_json(dvf::obs::snapshot_metrics()));
  json.write("campaign");
  return 0;
}
