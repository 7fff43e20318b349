// The load-bearing contract of the analysis subsystem: for every model file
// shipped in the repository — the paper models in models/ and every lint
// regression case — the intervals `dvfc analyze` reports must contain the
// exact values the evaluator computes, on every machine the file declares
// AND on the full profiling-cache matrix. A provably-rejects verdict must
// never coexist with evaluator success. The phase-level facts of the same
// files are pinned against a committed table (analysis_facts_golden.txt).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dvf/analysis/bounds.hpp"
#include "dvf/common/budget.hpp"
#include "dvf/dsl/analysis.hpp"
#include "dvf/dvf/calculator.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/machine/machine.hpp"
#include "dvf/patterns/estimate.hpp"

namespace dvf::analysis {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> aspen_files(const fs::path& dir) {
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".aspen") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

EvalLimits differential_limits() {
  EvalLimits limits;
  limits.max_references = std::uint64_t{1} << 22;
  limits.max_expansion = std::uint64_t{1} << 20;
  limits.wall_seconds = 2.0;
  return limits;
}

/// Checks the report for `machines` against the evaluator, structure by
/// structure and model by model. Only evaluator *successes* constrain the
/// analysis; budget-limited failures are fine (the analysis may still have
/// proved a bound), but a success outside the interval — or any success on
/// a pattern the analysis claims provably rejects — is a soundness bug.
void expect_sound(const std::vector<Machine>& machines,
                  const std::vector<ModelSpec>& models,
                  const AnalysisReport& report, const std::string& label) {
  EvalBudget budget(differential_limits());
  for (std::size_t m = 0; m < machines.size(); ++m) {
    const Machine& machine = machines[m];
    for (const ModelSpec& model : models) {
      const ModelBounds* mb = report.find_model(model.name);
      ASSERT_NE(mb, nullptr) << label << ": model " << model.name;
      ASSERT_LT(m, mb->per_machine.size()) << label;
      for (const DataStructureSpec& ds : model.structures) {
        const StructureBounds* sb = nullptr;
        for (const StructureBounds& candidate : mb->structures) {
          if (candidate.name == ds.name) {
            sb = &candidate;
            break;
          }
        }
        ASSERT_NE(sb, nullptr) << label << ": structure " << ds.name;
        ASSERT_LT(m, sb->per_machine.size()) << label;

        budget.reset();
        const auto n_ha = try_estimate_accesses(
            std::span<const PatternSpec>(ds.patterns), machine.llc, &budget);
        if (sb->per_machine[m].eval_rejects) {
          EXPECT_FALSE(n_ha.ok())
              << label << ": " << model.name << "/" << ds.name << " on "
              << machine.name
              << " claims provable rejection but the evaluator succeeded";
        }
        if (n_ha.ok()) {
          EXPECT_TRUE(sb->per_machine[m].n_ha.contains(*n_ha))
              << label << ": " << model.name << "/" << ds.name << " on "
              << machine.name << ": N_ha " << *n_ha << " outside ["
              << sb->per_machine[m].n_ha.lo << ", "
              << sb->per_machine[m].n_ha.hi << "]";
        }
      }
      if (model.exec_time_seconds.has_value()) {
        DvfCalculator calc(machine);
        budget.reset();
        calc.set_budget(&budget);
        const auto total = calc.try_for_model(model);
        if (total.ok()) {
          EXPECT_TRUE(mb->per_machine[m].dvf.contains(total.value().total))
              << label << ": " << model.name << " on " << machine.name
              << ": DVF " << total.value().total << " outside ["
              << mb->per_machine[m].dvf.lo << ", "
              << mb->per_machine[m].dvf.hi << "]";
        }
      }
    }
  }
}

/// The profiling-cache matrix (Table IV) with an unprotected-DRAM memory
/// model, exercising cache geometries the files themselves never declare.
std::vector<Machine> profiling_matrix() {
  std::vector<Machine> machines;
  for (CacheConfig& cache : caches::all_profiling()) {
    std::string name = "matrix-" + cache.name();
    machines.emplace_back(std::move(name), std::move(cache),
                          MemoryModel(5000.0));
  }
  return machines;
}

void check_directory(const fs::path& dir) {
  const auto files = aspen_files(dir);
  ASSERT_FALSE(files.empty()) << dir;
  const std::vector<Machine> matrix = profiling_matrix();
  for (const fs::path& path : files) {
    SCOPED_TRACE(path.filename().string());
    const dsl::SemanticAnalysis result =
        dsl::analyze_models_file(path.string());
    if (!result.report.has_value()) {
      continue;  // unparseable lint cases have nothing to check
    }
    const std::string label = path.filename().string();
    expect_sound(result.program.machines, result.program.models,
                 *result.report, label + " (declared machines)");

    // Re-run the driver over the same models on the profiling matrix.
    const AnalysisReport matrix_report =
        analyze(matrix, result.program.models);
    expect_sound(matrix, result.program.models, matrix_report,
                 label + " (profiling matrix)");

    // The canonical hash must not depend on which machines were supplied
    // beyond the machines themselves: two runs over identical inputs agree.
    const AnalysisReport again = analyze(matrix, result.program.models);
    EXPECT_EQ(matrix_report.canonical_hash, again.canonical_hash) << label;
  }
}

TEST(AnalysisSoundness, PaperModelsAreContained) {
  check_directory(DVF_MODELS_DIR);
}

TEST(AnalysisSoundness, LintCasesAreContained) {
  check_directory(DVF_LINT_CASES_DIR);
}

/// One row per phase of every bundled model and lint case, on every
/// declared machine ("m:") and every Table IV cache ("c:"): the integer and
/// boolean facts pattern_bounds reports. No floating-point value is pinned,
/// so the table does not depend on libm.
std::vector<std::string> facts_rows() {
  std::vector<CacheConfig> table_iv = {caches::small_verification(),
                                       caches::large_verification()};
  for (CacheConfig& cache : caches::all_profiling()) {
    table_iv.push_back(std::move(cache));
  }
  std::vector<std::string> rows;
  for (const char* dir : {DVF_MODELS_DIR, DVF_LINT_CASES_DIR}) {
    for (const fs::path& path : aspen_files(dir)) {
      const dsl::SemanticAnalysis result =
          dsl::analyze_models_file(path.string());
      if (!result.report.has_value()) {
        continue;
      }
      std::vector<std::pair<std::string, CacheConfig>> targets;
      for (const Machine& machine : result.program.machines) {
        targets.emplace_back("m:" + machine.name, machine.llc);
      }
      for (const CacheConfig& cache : table_iv) {
        targets.emplace_back("c:" + cache.name(), cache);
      }
      const std::string file =
          path.parent_path().filename().string() + "/" +
          path.filename().string();
      for (const ModelSpec& model : result.program.models) {
        for (const DataStructureSpec& ds : model.structures) {
          for (std::size_t p = 0; p < ds.patterns.size(); ++p) {
            for (const auto& [target, cache] : targets) {
              const PatternFacts f = pattern_bounds(ds.patterns[p], cache);
              rows.push_back(
                  file + " " + model.name + "/" + ds.name + "#" +
                  std::to_string(p) + " " + target +
                  " rejects=" + std::to_string(f.provably_rejects) +
                  " kind=" + (f.provably_rejects ? to_string(f.reject_kind)
                                                 : "-") +
                  " exact=" + std::to_string(f.exact) +
                  " ws=" + std::to_string(f.working_set_blocks) +
                  " cap=" + std::to_string(f.capacity_blocks) +
                  " exceeds=" + std::to_string(f.exceeds_share) +
                  " zero=" + std::to_string(f.zero_steady_work));
            }
          }
        }
      }
    }
  }
  return rows;
}

TEST(AnalysisFacts, BundledPhasesMatchTheGoldenTable) {
  std::ifstream in(DVF_ANALYSIS_FACTS_GOLDEN);
  ASSERT_TRUE(in) << DVF_ANALYSIS_FACTS_GOLDEN;
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) {
    golden.push_back(line);
  }
  const std::vector<std::string> rows = facts_rows();
  for (std::size_t i = 0; i < std::max(rows.size(), golden.size()); ++i) {
    const std::string got = i < rows.size() ? rows[i] : "(no row)";
    const std::string want = i < golden.size() ? golden[i] : "(no row)";
    ASSERT_EQ(got, want) << "first differing row, line " << i + 1;
  }
}

}  // namespace
}  // namespace dvf::analysis
