// Quickstart: compute the Data Vulnerability Factor of a small application
// model, by hand, in ~40 lines of API.
//
//   build/examples/quickstart
//
// The model is the paper's vector-multiply example (Algorithm 1): three
// streaming arrays, one with a larger stride. We ask two questions the
// paper's methodology is built for: which structure is most vulnerable, and
// how much does ECC help?
#include <iostream>

#include "dvf/dvf/calculator.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/machine/machine.hpp"
#include "dvf/report/table.hpp"

int main() {
  // 1. Describe the application: data structures + access patterns.
  dvf::ModelSpec model;
  model.name = "vector-multiply";
  model.exec_time_seconds = 0.002;  // measured or modeled T

  const auto streaming_array = [](const char* name, std::uint64_t elements,
                                  std::uint64_t stride) {
    dvf::DataStructureSpec ds;
    ds.name = name;
    ds.size_bytes = elements * sizeof(double);
    dvf::StreamingSpec s;
    s.element_bytes = sizeof(double);
    s.element_count = elements;
    s.stride_elements = stride;
    ds.patterns.emplace_back(s);
    return ds;
  };
  model.structures.push_back(streaming_array("A", 400000, 4));
  model.structures.push_back(streaming_array("B", 100000, 1));
  model.structures.push_back(streaming_array("C", 100000, 1));

  // 2. Describe the machine: an LLC plus a memory failure model.
  const dvf::Machine plain = dvf::Machine::with_cache(dvf::caches::profiling_1mb());
  const dvf::Machine protected_machine(
      "with-chipkill", dvf::caches::profiling_1mb(),
      dvf::MemoryModel::with_ecc(dvf::EccScheme::kChipkill));

  // 3. Evaluate Eq. 1 / Eq. 2.
  dvf::Table table({"structure", "N_ha", "DVF (no ECC)", "DVF (chipkill)"});
  const dvf::ApplicationDvf base =
      dvf::DvfCalculator(plain).try_for_model(model).value_or_throw();
  const dvf::ApplicationDvf ecc = dvf::DvfCalculator(protected_machine)
                                      .try_for_model(model)
                                      .value_or_throw();
  for (std::size_t i = 0; i < base.structures.size(); ++i) {
    table.add_row({base.structures[i].name, dvf::num(base.structures[i].n_ha),
                   dvf::num(base.structures[i].dvf),
                   dvf::num(ecc.structures[i].dvf)});
  }
  table.add_row({"(application)", "", dvf::num(base.total),
                 dvf::num(ecc.total)});

  std::cout << "DVF quickstart — " << model.name << " on "
            << plain.llc.describe() << "\n\n"
            << table
            << "\nA's larger stride gives it the largest footprint and the "
               "most memory traffic,\nso it is the structure to protect "
               "first; chipkill cuts DVF by the FIT ratio.\n";
  return 0;
}
