// Ablation study of the modeling choices DESIGN.md calls out, judged
// against the trace-driven simulator on the verification workloads:
//
//  1. Random access: the paper's uniform hypergeometric model (Eqs. 5–6)
//     vs the IRM/Che popularity extension (NB tree, MC grid).
//  2. Reuse: Bernoulli set occupancy (Eq. 8) vs contiguous occupancy, and
//     the three interference scenarios (Eqs. 11/12/blend) (CG vectors).
//  3. Template: LRU stack distance vs the paper's literal raw reference
//     distance (MG smoother, FT butterflies).
#include <iostream>
#include <variant>

#include "dvf/cachesim/cache_simulator.hpp"
#include "dvf/common/math.hpp"
#include "dvf/kernels/suite.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/patterns/estimate.hpp"
#include "dvf/report/table.hpp"

namespace {

using dvf::kernels::KernelCase;

struct SimReference {
  double misses = 0.0;
};

SimReference simulate(KernelCase& kernel, const dvf::CacheConfig& cache,
                      const std::string& structure) {
  dvf::CacheSimulator sim(cache);
  kernel.run_traced(sim);
  const auto id = kernel.registry().find(structure);
  return {static_cast<double>(sim.stats(*id).misses)};
}

std::string err_cell(double estimate, double reference) {
  return dvf::num(100.0 * dvf::math::relative_error(estimate, reference), 3);
}

}  // namespace

int main() {
  const dvf::CacheConfig small = dvf::caches::small_verification();
  auto suite = dvf::kernels::make_verification_suite();
  const auto find = [&](const char* name) -> KernelCase& {
    for (auto& kernel : suite) {
      if (kernel->name() == name) {
        return *kernel;
      }
    }
    throw std::runtime_error("kernel not found");
  };

  // ---- 1. uniform vs IRM random model -----------------------------------
  std::cout << dvf::banner(
      "Ablation 1: random-access model — paper uniform (Eqs. 5-6) vs "
      "IRM/Che extension");
  {
    dvf::Table table({"kernel", "structure", "sim_misses", "uniform_est",
                      "uniform_err_%", "irm_est", "irm_err_%"});
    for (const char* name : {"NB", "MC"}) {
      KernelCase& kernel = find(name);
      const dvf::ModelSpec spec = kernel.model_spec();
      for (const auto& ds : spec.structures) {
        const auto* random = std::get_if<dvf::RandomSpec>(&ds.patterns.front());
        if (random == nullptr) {
          continue;
        }
        const SimReference ref = simulate(kernel, small, ds.name);
        dvf::RandomSpec uniform = *random;
        uniform.sorted_visit_fractions.clear();
        const double uniform_est =
            dvf::try_estimate_random(uniform, small).value_or_throw();
        const double irm_est =
            dvf::try_estimate_random(*random, small).value_or_throw();
        table.add_row({kernel.name(), ds.name, dvf::num(ref.misses),
                       dvf::num(uniform_est), err_cell(uniform_est, ref.misses),
                       dvf::num(irm_est), err_cell(irm_est, ref.misses)});
      }
    }
    std::cout << table;
  }

  // ---- 2. reuse occupancy and scenarios ----------------------------------
  std::cout << dvf::banner(
      "Ablation 2: reuse model — occupancy (Bernoulli Eq. 8 vs contiguous) "
      "x scenario (Eq. 11 LRU / Eq. 12 uniform / blend)");
  {
    KernelCase& cg = find("CG");
    const dvf::ModelSpec spec = cg.model_spec();
    dvf::Table table({"cache", "structure", "sim_misses", "occupancy",
                      "scenario", "estimate", "err_%"});
    for (const auto& cache : {small, dvf::caches::large_verification()}) {
      for (const auto& ds : spec.structures) {
        const auto* reuse = std::get_if<dvf::ReuseSpec>(&ds.patterns.front());
        if (reuse == nullptr) {
          continue;
        }
        const SimReference ref = simulate(cg, cache, ds.name);
        for (const auto occupancy : {dvf::ReuseOccupancy::kBernoulli,
                                     dvf::ReuseOccupancy::kContiguous}) {
          for (const auto scenario : {dvf::ReuseScenario::kLruProtects,
                                      dvf::ReuseScenario::kUniformEviction,
                                      dvf::ReuseScenario::kBlend}) {
            dvf::ReuseSpec variant = *reuse;
            variant.occupancy = occupancy;
            variant.scenario = scenario;
            const double est =
                dvf::try_estimate_reuse(variant, cache).value_or_throw();
            table.add_row(
                {cache.name(), ds.name, dvf::num(ref.misses),
                 occupancy == dvf::ReuseOccupancy::kBernoulli ? "bernoulli"
                                                              : "contiguous",
                 scenario == dvf::ReuseScenario::kLruProtects      ? "lru"
                 : scenario == dvf::ReuseScenario::kUniformEviction ? "uniform"
                                                                    : "blend",
                 dvf::num(est), err_cell(est, ref.misses)});
          }
        }
      }
    }
    std::cout << table;
  }

  // ---- 3. template distance kind -----------------------------------------
  std::cout << dvf::banner(
      "Ablation 3: template model — LRU stack distance vs raw reference "
      "distance");
  {
    dvf::Table table({"kernel", "structure", "sim_misses", "stack_est",
                      "stack_err_%", "raw_est", "raw_err_%"});
    for (const char* name : {"MG", "FT"}) {
      KernelCase& kernel = find(name);
      const dvf::ModelSpec spec = kernel.model_spec();
      for (const auto& ds : spec.structures) {
        const auto* tmpl = std::get_if<dvf::TemplateSpec>(&ds.patterns.front());
        if (tmpl == nullptr) {
          continue;
        }
        const SimReference ref = simulate(kernel, small, ds.name);
        dvf::TemplateSpec stack = *tmpl;
        stack.distance = dvf::DistanceKind::kStack;
        dvf::TemplateSpec raw = *tmpl;
        raw.distance = dvf::DistanceKind::kRaw;
        const double stack_est =
            dvf::try_estimate_template(stack, small).value_or_throw();
        const double raw_est =
            dvf::try_estimate_template(raw, small).value_or_throw();
        table.add_row({kernel.name(), ds.name, dvf::num(ref.misses),
                       dvf::num(stack_est), err_cell(stack_est, ref.misses),
                       dvf::num(raw_est), err_cell(raw_est, ref.misses)});
      }
    }
    std::cout << table;
  }

  return 0;
}
