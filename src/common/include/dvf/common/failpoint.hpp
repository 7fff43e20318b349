// Deterministic failpoint injection for the infrastructure itself.
//
// The campaign runner injects faults into *application data* (the paper's
// methodology); this subsystem injects faults into *our own* durability and
// transport paths — journal writes, trace export, serve sockets, thread
// spawn, evaluation allocation — so the hardening around them can be tested
// systematically instead of hoped for (docs/resilience.md
// "Environment-fault injection").
//
// Design, mirroring the obs layer's discipline:
//
//   * The disabled path is ONE relaxed atomic load and a branch. No
//     failpoint spec configured (the overwhelmingly common case) means
//     `DVF_FAILPOINT("x")` costs under a nanosecond and touches no shared
//     cache line (bench/cachesim_throughput's obs_primitives record
//     measures it).
//   * Sites are self-registering: the first armed evaluation of a
//     `DVF_FAILPOINT(name)` site resolves `name` to a slot once (function-
//     local static) and every later hit is lock-free — an atomic hit-count
//     increment plus relaxed loads of the slot's trigger/action fields.
//   * Everything is deterministic. Triggers are pure functions of the
//     slot's hit ordinal (and, for probability triggers, a caller-provided
//     seed fed through SplitMix64), so a failing schedule replays from its
//     spec string alone.
//
// Spec grammar (DVF_FAILPOINTS env var / `dvfc --failpoints`), entries
// separated by ';':
//
//   entry   := name '=' action [trigger]
//   action  := 'off' | 'throw' | 'badalloc' | 'eintr' | 'short'
//            | 'error' [ '(' errno ')' ]          (default errno: EIO)
//   trigger := '@' N                fire on the Nth hit only (1-based)
//            | '/' K                fire on every Kth hit
//            | '%' P [ ':' SEED ]   fire with probability P per hit
//                                   (default seed 1)
//
// Examples:
//   DVF_FAILPOINTS='campaign.journal.write=error(28)@3'   ENOSPC on hit 3
//   DVF_FAILPOINTS='serve.read=eintr/2;serve.write=short%0.25:2014'
//
// Actions `throw` and `badalloc` are raised directly by the evaluation
// (dvf::Error / std::bad_alloc); `error`, `eintr` and `short` are returned
// as an Action for the site to interpret (set errno, truncate the write,
// fail the stream) — a failpoint can only inject faults a real environment
// could produce at that site.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dvf/common/result.hpp"

namespace dvf::failpoint {

/// What an armed, fired failpoint asks its site to do.
enum class ActionKind : std::uint8_t {
  kNone = 0,    ///< not fired — proceed normally
  kError,       ///< fail with errno-style `error_code` (site maps to io_error)
  kThrow,       ///< raised by evaluate(): dvf::Error
  kShortWrite,  ///< site performs a partial write, then fails
  kEintr,       ///< site behaves as if the syscall returned EINTR
  kBadAlloc,    ///< raised by evaluate(): std::bad_alloc
};

/// Result of evaluating a failpoint site. Contextually false when the point
/// did not fire; `error_code` carries the errno for kError.
struct Action {
  ActionKind kind = ActionKind::kNone;
  int error_code = 0;

  explicit operator bool() const noexcept { return kind != ActionKind::kNone; }
};

namespace detail {

extern std::atomic<bool> g_armed;

/// Resolves `name` to a slot index, allocating one under the registry mutex
/// if this is the first time the name is seen. Called once per site (cached
/// in a function-local static) and by configure().
[[nodiscard]] std::uint32_t register_point(std::string_view name);

/// Counts one hit of the slot and evaluates its trigger. Throws for kThrow /
/// kBadAlloc actions; returns the Action otherwise.
Action hit(std::uint32_t slot);

}  // namespace detail

/// True when any failpoint is configured. The only cost every disabled
/// `DVF_FAILPOINT` site pays: one relaxed atomic load.
[[nodiscard]] inline bool armed() noexcept {
  return detail::g_armed.load(std::memory_order_relaxed);
}

/// Parses and installs a failpoint spec (grammar above), arming the global
/// flag when at least one entry carries a live action. Unknown point names
/// are a domain_error unless prefixed "test." (the catalog below is the
/// contract between specs and instrumented sites; a typo'd name would
/// otherwise silently never fire). Entries replace any previous
/// configuration of the same point; other points are untouched.
Result<void> configure(std::string_view spec);

/// Disarms every failpoint and resets all configuration and counters.
void clear();

/// Resets hit/fired counters without touching configuration.
void reset_counters();

/// One point's counters: `hits` evaluations while armed, `fired` of those
/// that triggered the action.
struct HitCount {
  std::string name;
  std::uint64_t hits = 0;
  std::uint64_t fired = 0;
};

/// Counters for every point with hits > 0, name-sorted. Merged into
/// obs::snapshot_metrics() as `failpoint.<name>.hits` / `.fired`, so
/// schedules are visible through `--metrics` and the serve metrics op.
[[nodiscard]] std::vector<HitCount> hit_counts();

/// The instrumented-site catalog configure() validates against.
[[nodiscard]] const std::vector<std::string_view>& catalog();

}  // namespace dvf::failpoint

/// Evaluates the named failpoint at this site. Disabled: one relaxed atomic
/// load, returns a false Action. Armed: counts the hit, applies the
/// configured trigger, and either throws (throw/badalloc actions) or returns
/// the Action for the site to interpret.
#define DVF_FAILPOINT(name)                                             \
  (::dvf::failpoint::armed()                                            \
       ? ::dvf::failpoint::detail::hit([]() -> std::uint32_t {          \
           static const std::uint32_t dvf_failpoint_slot_ =             \
               ::dvf::failpoint::detail::register_point(name);          \
           return dvf_failpoint_slot_;                                  \
         }())                                                           \
       : ::dvf::failpoint::Action{})
