// The kernel suite: a uniform, type-erased handle over the six instrumented
// kernels (paper Table II), plus factories for the paper's verification
// (Table V) and profiling (Table VI) input sizes.
#pragma once

#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dvf/cachesim/cache_simulator.hpp"
#include "dvf/cachesim/hierarchy.hpp"
#include "dvf/dvf/calculator.hpp"
#include "dvf/dvf/model_spec.hpp"
#include "dvf/kernels/kernel_common.hpp"
#include "dvf/trace/fault_injection.hpp"
#include "dvf/trace/recorder.hpp"
#include "dvf/trace/registry.hpp"

namespace dvf::kernels {

/// Taxonomy of fault-injection trial outcomes, following the
/// masked / SDC / interruption classification of application-level
/// resilience studies (Guo et al., arXiv:1705.00267) with the DUE
/// (detected-unrecoverable) interruptions split by detection mechanism
/// (Jaulmes et al., arXiv:1810.06472 argue the DUE/SDC distinction changes
/// vulnerability conclusions).
enum class TrialOutcome : std::uint8_t {
  kMasked = 0,        ///< output matched the golden run (or no flip landed)
  kSdc = 1,           ///< silent data corruption: finite output, deviates
  kDueException = 2,  ///< the kernel threw; contained per-trial
  kDueHang = 3,       ///< reference budget exceeded (runaway control flow)
  kDueInvalid = 4,    ///< NaN/Inf detected in the output signature
};

/// Short stable label ("masked", "sdc", "due_exception", ...) used by the
/// journal format, the CLI and the benches.
[[nodiscard]] const char* to_string(TrialOutcome outcome) noexcept;

/// Inverse of to_string; std::nullopt for an unknown label.
[[nodiscard]] std::optional<TrialOutcome> trial_outcome_from_string(
    const std::string& label) noexcept;

/// Outcome of one injected-fault trial.
struct InjectionOutcome {
  bool injected = false;   ///< the trigger fired before the run ended
  bool corrupted = false;  ///< any non-masked classification
  double deviation = 0.0;  ///< |signature - clean| / max(1, |clean|)
  TrialOutcome classification = TrialOutcome::kMasked;
};

/// Type-erased kernel handle used by the verification and profiling drivers:
/// run against a cache simulator, run untraced for timing, and produce the
/// kernel's Aspen-style model.
class KernelCase {
 public:
  virtual ~KernelCase() = default;
  KernelCase(const KernelCase&) = delete;
  KernelCase& operator=(const KernelCase&) = delete;

  /// Short paper name: "VM", "CG", "NB", "MG", "FT", "MC" (or "PCG").
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// Computational-method class (Table II).
  [[nodiscard]] const std::string& method_class() const noexcept {
    return method_;
  }

  /// Runs the kernel with every reference driven through the simulator.
  virtual void run_traced(CacheSimulator& sim) = 0;
  /// As above but against a multi-level hierarchy.
  virtual void run_traced(CacheHierarchy& hierarchy) = 0;
  /// Runs the kernel while tallying raw reference counts.
  virtual void run_counting(CountingRecorder& rec) = 0;
  /// Runs the kernel capturing the full reference stream (verification-size
  /// workloads; used by `dvfc trace`).
  virtual void run_buffered(TraceBuffer& buffer) = 0;
  /// Untraced timing run; returns wall-clock seconds (T of Eq. 1).
  virtual double run_timed() = 0;
  /// The kernel's analytical self-description. May profile (run with a null
  /// recorder) on first call for kernels whose models need measured k/iter.
  [[nodiscard]] virtual ModelSpec model_spec() = 0;
  [[nodiscard]] virtual const DataStructureRegistry& registry() const = 0;

  /// The kernel's scalar output fingerprint after a clean run (computed and
  /// cached on first use).
  [[nodiscard]] virtual double clean_signature() = 0;
  /// Total references a clean run issues (the fault-trigger range).
  [[nodiscard]] virtual std::uint64_t total_references() = 0;
  /// One fault-injection trial: flip `bit` of byte `byte_offset` within the
  /// structure `target` when the run reaches `trigger_reference`. The
  /// flipped byte is restored afterwards, so trials are independent.
  ///
  /// Fault containment: the run is sandboxed per trial. A kernel exception
  /// is caught and classified kDueException; a non-zero `reference_budget`
  /// bounds runaway control flow (classified kDueHang past the budget); a
  /// non-finite output signature classifies kDueInvalid. None of these
  /// escape to the caller — only precondition violations (bad target/offset)
  /// still throw.
  [[nodiscard]] virtual InjectionOutcome run_injected(
      DsId target, std::uint64_t trigger_reference, std::uint64_t byte_offset,
      std::uint8_t bit, std::uint64_t reference_budget = 0) = 0;

  /// A fresh instance with the same name, method and kernel configuration
  /// (and therefore the same reference stream and registry layout, modulo
  /// base addresses). The parallel campaign clones one kernel per worker so
  /// trials never share mutable kernel state.
  [[nodiscard]] virtual std::unique_ptr<KernelCase> clone() const = 0;

 protected:
  KernelCase(std::string name, std::string method)
      : name_(std::move(name)), method_(std::move(method)) {}

 private:
  std::string name_;
  std::string method_;
};

/// Adapter binding a concrete kernel type to the KernelCase interface. The
/// kernel must provide run(RecorderLike&), reset(), model_spec() and
/// registry().
template <typename K>
class KernelCaseAdapter final : public KernelCase {
 public:
  KernelCaseAdapter(std::string name, std::string method,
                    typename K::Config config)
      : KernelCase(std::move(name), std::move(method)),
        config_(std::move(config)),
        kernel_(config_) {}

  [[nodiscard]] std::unique_ptr<KernelCase> clone() const override {
    return std::make_unique<KernelCaseAdapter<K>>(name(), method_class(),
                                                  config_);
  }

  void run_traced(CacheSimulator& sim) override {
    kernel_.reset();
    kernel_.run(sim);
    sim.flush();
  }
  void run_traced(CacheHierarchy& hierarchy) override {
    kernel_.reset();
    kernel_.run(hierarchy);
    hierarchy.flush();
  }
  void run_counting(CountingRecorder& rec) override {
    kernel_.reset();
    kernel_.run(rec);
  }
  void run_buffered(TraceBuffer& buffer) override {
    kernel_.reset();
    kernel_.run(buffer);
  }
  double run_timed() override {
    kernel_.reset();
    NullRecorder null;
    const Stopwatch watch;
    kernel_.run(null);
    return watch.seconds();
  }
  [[nodiscard]] ModelSpec model_spec() override { return kernel_.model_spec(); }
  [[nodiscard]] const DataStructureRegistry& registry() const override {
    return kernel_.registry();
  }

  [[nodiscard]] double clean_signature() override {
    if (!clean_signature_.has_value()) {
      kernel_.reset();
      NullRecorder null;
      kernel_.run(null);
      clean_signature_ = kernel_.output_signature();
    }
    return *clean_signature_;
  }

  [[nodiscard]] std::uint64_t total_references() override {
    if (total_references_ == 0) {
      CountingRecorder counts;
      kernel_.reset();
      kernel_.run(counts);
      total_references_ = counts.total_references();
    }
    return total_references_;
  }

  [[nodiscard]] InjectionOutcome run_injected(
      DsId target, std::uint64_t trigger_reference, std::uint64_t byte_offset,
      std::uint8_t bit, std::uint64_t reference_budget = 0) override {
    const DataStructureInfo& info = kernel_.registry().info(target);
    DVF_CHECK_MSG(byte_offset < info.size_bytes,
                  "fault byte offset outside the target structure");
    const double clean = clean_signature();

    FaultSpec fault;
    fault.trigger_reference = trigger_reference;
    fault.target_byte =
        reinterpret_cast<std::uint8_t*>(info.base_address + byte_offset);
    fault.bit = bit;
    fault.reference_budget = reference_budget;

    kernel_.reset();
    FaultInjectingRecorder injector(fault);
    InjectionOutcome outcome;
    try {
      kernel_.run(injector);
    } catch (const ReferenceBudgetExceeded&) {
      injector.restore();
      outcome.injected = injector.injected();
      outcome.corrupted = true;
      outcome.deviation = std::numeric_limits<double>::infinity();
      outcome.classification = TrialOutcome::kDueHang;
      return outcome;
    } catch (const std::exception&) {
      // The flip drove the kernel into a throwing path (bad index,
      // violated invariant, ...). Contained: the trial is a DUE, the
      // campaign goes on. The next trial's reset() rebuilds kernel state.
      injector.restore();
      outcome.injected = injector.injected();
      outcome.corrupted = true;
      outcome.deviation = std::numeric_limits<double>::infinity();
      outcome.classification = TrialOutcome::kDueException;
      return outcome;
    }
    const double signature = kernel_.output_signature();
    injector.restore();

    outcome.injected = injector.injected();
    const double scale = std::max(1.0, std::fabs(clean));
    if (!std::isfinite(signature)) {
      outcome.corrupted = true;
      outcome.deviation = std::numeric_limits<double>::infinity();
      outcome.classification = TrialOutcome::kDueInvalid;
    } else {
      outcome.deviation = std::fabs(signature - clean) / scale;
      outcome.corrupted = outcome.deviation > 1e-9;
      outcome.classification =
          outcome.corrupted ? TrialOutcome::kSdc : TrialOutcome::kMasked;
    }
    return outcome;
  }

  [[nodiscard]] K& kernel() noexcept { return kernel_; }

 private:
  typename K::Config config_;
  K kernel_;
  std::optional<double> clean_signature_;
  std::uint64_t total_references_ = 0;
};

/// Table V: the verification-size instances of all six kernels.
[[nodiscard]] std::vector<std::unique_ptr<KernelCase>> make_verification_suite();

/// Table VI: the profiling-size instances of all six kernels.
[[nodiscard]] std::vector<std::unique_ptr<KernelCase>> make_profiling_suite();

/// The verification suite plus the beyond-paper kernels (CGS, the CSR
/// sparse CG, and GEMM, the tiled matmul) — what the interactive tools
/// expose.
[[nodiscard]] std::vector<std::unique_ptr<KernelCase>> make_extended_suite();

/// One kernel's end-to-end DVF evaluation: measured execution time plus the
/// analytical model evaluated on a machine.
struct SuiteEvaluation {
  std::string kernel;
  std::string method;
  double exec_time_seconds = 0.0;
  ApplicationDvf dvf;
};

/// Evaluates every kernel of `suite` (timed run, model extraction, DVF on
/// `calc`) in suite order on the calling thread. `exec_time_seconds` is
/// wall-clock and Eq. 1 is linear in it, so each timing run has the
/// machine to itself: no kernel of the suite runs concurrently with it.
[[nodiscard]] std::vector<SuiteEvaluation> evaluate_suite(
    const std::vector<std::unique_ptr<KernelCase>>& suite,
    const DvfCalculator& calc);

}  // namespace dvf::kernels
