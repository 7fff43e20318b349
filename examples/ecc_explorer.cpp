// ecc_explorer: interactive version of the §V-B study — pick one of the six
// kernels, measure it, and explore the protection/performance trade-off.
//
//   build/examples/ecc_explorer [kernel] [max_degradation_%]
//
// kernel: VM | CG | NB | MG | FT | MC (default VM).
#include <iostream>
#include <string>

#include "dvf/dvf/ecc.hpp"
#include "dvf/kernels/suite.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/machine/machine.hpp"
#include "dvf/report/table.hpp"

int main(int argc, char** argv) {
  const std::string wanted = argc > 1 ? argv[1] : "VM";
  const double max_degradation =
      argc > 2 ? std::stod(argv[2]) / 100.0 : 0.30;

  auto suite = dvf::kernels::make_extended_suite();
  dvf::kernels::KernelCase* kernel = nullptr;
  for (auto& candidate : suite) {
    if (candidate->name() == wanted) {
      kernel = candidate.get();
    }
  }
  if (kernel == nullptr) {
    std::cerr << "unknown kernel '" << wanted
              << "' (expected VM|CG|NB|MG|FT|MC|CGS)\n";
    return 1;
  }

  const double seconds = kernel->run_timed();
  dvf::ModelSpec spec = kernel->model_spec();
  spec.exec_time_seconds = seconds;

  const dvf::Machine machine =
      dvf::Machine::with_cache(dvf::caches::profiling_8mb());
  const dvf::EccTradeoffExplorer explorer(machine, spec);

  std::cout << dvf::banner("ECC trade-off for " + kernel->name() + " (" +
                           kernel->method_class() + ")");
  std::cout << "T = " << dvf::num(seconds, 3) << " s, machine "
            << machine.llc.describe() << "\n\n";

  dvf::Table table({"degradation_%", "scheme", "effective FIT", "DVF_a"});
  for (const auto scheme :
       {dvf::EccScheme::kSecDed, dvf::EccScheme::kChipkill}) {
    dvf::EccSweepConfig config;
    config.scheme = scheme;
    config.max_degradation = max_degradation;
    config.step = max_degradation / 15.0;
    const auto points = explorer.try_sweep(config).value_or_throw();
    for (const auto& pt : points) {
      table.add_row({dvf::num(100.0 * pt.degradation, 3),
                     dvf::to_string(scheme), dvf::num(pt.effective_fit),
                     dvf::num(pt.dvf)});
    }
    std::cout << "optimal degradation for " << dvf::to_string(scheme) << ": "
              << dvf::num(100.0 *
                          dvf::EccTradeoffExplorer::optimal_degradation(points))
              << "%\n";
  }
  std::cout << "\n" << table;
  return 0;
}
