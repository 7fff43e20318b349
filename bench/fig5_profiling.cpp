// Figure 5 (a–f): DVF profiling of the six kernels — per data structure and
// per application (DVF_a), across the four profiling cache configurations of
// Table IV, with the Table VI input sizes.
//
// Execution times T are measured on this host (the paper measured its own
// testbed); absolute DVF values therefore differ from the paper's, but the
// orderings and sensitivities — VM's A >> B, C; CG >> FT; MC >> NB; FT's
// jump below its working-set threshold — are the reproduced observations.
#include <iostream>

#include "dvf/dvf/calculator.hpp"
#include "dvf/kernels/suite.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/machine/machine.hpp"
#include "dvf/report/table.hpp"

int main() {
  std::cout << dvf::banner(
      "Figure 5: DVF profiling (Table VI inputs, Table IV profiling caches, "
      "FIT = 5000/Mbit)");

  const std::vector<dvf::CacheConfig> caches = dvf::caches::all_profiling();
  std::vector<std::string> headers = {"kernel", "structure", "S_d (bytes)",
                                      "T (s)"};
  for (const auto& c : caches) {
    headers.push_back("DVF @" + c.name());
  }
  dvf::Table table(headers);

  auto suite = dvf::kernels::make_profiling_suite();
  for (auto& kernel : suite) {
    const double seconds = kernel->run_timed();
    dvf::ModelSpec spec = kernel->model_spec();
    spec.exec_time_seconds = seconds;

    // Evaluate against every cache; collect per-structure rows plus the
    // application total (Eq. 2).
    std::vector<dvf::ApplicationDvf> results;
    results.reserve(caches.size());
    for (const auto& cache : caches) {
      const dvf::DvfCalculator calc(dvf::Machine::with_cache(cache));
      results.push_back(calc.try_for_model(spec).value_or_throw());
    }

    for (std::size_t s = 0; s < spec.structures.size(); ++s) {
      std::vector<std::string> row = {
          kernel->name(), spec.structures[s].name,
          dvf::num(static_cast<double>(spec.structures[s].size_bytes)),
          dvf::num(seconds, 3)};
      for (const auto& app : results) {
        row.push_back(dvf::num(app.structures[s].dvf));
      }
      table.add_row(std::move(row));
    }
    std::vector<std::string> total_row = {kernel->name(), "(DVF_a)", "", ""};
    for (const auto& app : results) {
      total_row.push_back(dvf::num(app.total));
    }
    table.add_row(std::move(total_row));
  }

  std::cout << table;
  dvf::maybe_export_csv("fig5_profiling", table);
  std::cout <<
      "\nPaper observations to compare against (Fig. 5):\n"
      "  (a) VM: A (larger stride) has clearly larger DVF than B and C.\n"
      "  (b,e) CG's DVF is orders of magnitude above FT's (bigger working\n"
      "        set and much longer runtime despite fewer accesses).\n"
      "  (c,f) MC's DVF is far above NB's (larger working set, more\n"
      "        iterations).\n"
      "  (e) FT jumps sharply once the cache is smaller than its working\n"
      "      set; streaming and random structures change gradually.\n";
  return 0;
}
