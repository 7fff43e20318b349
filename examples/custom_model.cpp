// custom_model: compile Aspen-extended model files and evaluate every model
// against every machine they declare.
//
//   build/examples/custom_model [model.aspen ...]
//
// With no arguments it loads the bundled example programs from models/
// (looked up relative to the current directory and the repo root).
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <vector>

#include "dvf/common/error.hpp"
#include "dvf/dsl/analyzer.hpp"
#include "dvf/dvf/calculator.hpp"
#include "dvf/report/table.hpp"

namespace {

std::vector<std::string> default_model_files() {
  const std::vector<std::string> roots = {"models", "../models",
                                          "../../models"};
  for (const auto& root : roots) {
    if (std::filesystem::is_directory(root)) {
      std::vector<std::string> files;
      for (const auto& entry : std::filesystem::directory_iterator(root)) {
        if (entry.path().extension() == ".aspen") {
          files.push_back(entry.path().string());
        }
      }
      std::sort(files.begin(), files.end());
      return files;
    }
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    files.emplace_back(argv[i]);
  }
  if (files.empty()) {
    files = default_model_files();
  }
  if (files.empty()) {
    std::cerr << "usage: custom_model <model.aspen> [...]\n"
                 "(no bundled models/ directory found)\n";
    return 1;
  }

  for (const auto& file : files) {
    std::cout << dvf::banner("model file: " + file);
    try {
      const dvf::dsl::CompiledProgram program = dvf::dsl::compile_file(file);
      for (const dvf::ModelSpec& model : program.models) {
        for (const dvf::Machine& machine : program.machines) {
          const dvf::DvfCalculator calc(machine);
          const dvf::ApplicationDvf app =
              calc.try_for_model(model).value_or_throw();
          dvf::Table table({"structure", "S_d (bytes)", "N_ha", "N_error",
                            "DVF"});
          for (const auto& s : app.structures) {
            table.add_row({s.name, dvf::num(s.size_bytes), dvf::num(s.n_ha),
                           dvf::num(s.n_error), dvf::num(s.dvf)});
          }
          table.add_row({"(application)", "", "", "", dvf::num(app.total)});
          std::cout << "model '" << model.name << "' on machine '"
                    << machine.name << "' (T = " << *model.exec_time_seconds
                    << " s):\n"
                    << table << "\n";
        }
      }
    } catch (const dvf::Error& err) {
      std::cerr << "error in " << file << ": " << err.what() << "\n";
      return 1;
    }
  }
  return 0;
}
