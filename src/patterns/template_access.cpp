#include "dvf/patterns/template_access.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <utility>
#include <vector>

#include "dvf/common/error.hpp"
#include "dvf/common/math.hpp"
#include "dvf/patterns/facts.hpp"

namespace dvf {

namespace {

constexpr std::uint32_t kNoId = ~std::uint32_t{0};
// Ids and the LRU list's sentinel (id `distinct`) must stay below kNoId.
constexpr std::uint32_t kMaxDistinct = kNoId - 1;

/// Renames blocks to dense ids 0, 1, ... in first-use order through a flat
/// open-addressing table kept at most half full, so its memory follows the
/// distinct-block count, not the string length.
class BlockIds {
 public:
  /// The block's id, assigning the next one on first use. kNoId once
  /// kMaxDistinct blocks exist.
  std::uint32_t intern(std::uint64_t block) {
    for (std::size_t s = slot_of(block);; s = (s + 1) & (slots_.size() - 1)) {
      Slot& slot = slots_[s];
      if (slot.id == kNoId) {
        if (count_ == kMaxDistinct) {
          return kNoId;
        }
        slot = {block, count_++};
        const std::uint32_t id = slot.id;
        if (2 * std::size_t{count_} > slots_.size()) {
          grow();
        }
        return id;
      }
      if (slot.block == block) {
        return slot.id;
      }
    }
  }

  [[nodiscard]] std::uint32_t size() const noexcept { return count_; }

 private:
  struct Slot {
    std::uint64_t block = 0;
    std::uint32_t id = kNoId;
  };

  [[nodiscard]] std::size_t slot_of(std::uint64_t block) const noexcept {
    // Fibonacci hashing: the top bits of the product spread runs of
    // consecutive blocks (a stencil's rows) over the table.
    return static_cast<std::size_t>((block * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    --shift_;
    for (const Slot& slot : old) {
      if (slot.id == kNoId) {
        continue;
      }
      std::size_t s = slot_of(slot.block);
      while (slots_[s].id != kNoId) {
        s = (s + 1) & (slots_.size() - 1);
      }
      slots_[s] = slot;
    }
  }

  std::vector<Slot> slots_ = std::vector<Slot>(std::size_t{1} << 10);
  unsigned shift_ = 64 - 10;
  std::uint32_t count_ = 0;
};

/// A fully-associative LRU share of `capacity` blocks over dense ids: an
/// intrusive circular list through a sentinel (node 0; id i is node i + 1),
/// most recent use first. A reference misses exactly when its LRU stack
/// distance is at least the capacity (Mattson inclusion), so the misses of
/// this share are the paper's step 2 without computing any distance.
/// Requires capacity >= 1; a share holding every block misses only on first
/// uses.
class LruShare {
 public:
  explicit LruShare(std::uint64_t capacity) : capacity_(capacity) {}

  /// Makes room for ids below `ids`, growing geometrically.
  void reserve_ids(std::uint32_t ids) {
    if (prev_.size() <= ids) {
      const std::size_t nodes =
          std::max(std::size_t{ids} + 1, 2 * prev_.size());
      prev_.resize(nodes, kNoId);
      next_.resize(nodes, 0);
    }
  }

  /// References `id`; true when it misses.
  bool miss(std::uint32_t id) {
    const std::uint32_t node = id + 1;
    const bool resident = prev_[node] != kNoId;
    if (resident) {
      unlink(node);
    } else if (size_ == capacity_) {
      const std::uint32_t victim = prev_[0];
      unlink(victim);
      prev_[victim] = kNoId;
    } else {
      ++size_;
    }
    prev_[node] = 0;
    next_[node] = next_[0];
    prev_[next_[0]] = node;
    next_[0] = node;
    return !resident;
  }

  [[nodiscard]] bool full() const noexcept { return size_ == capacity_; }
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

  /// Visits the resident ids from least to most recently used while `visit`
  /// returns true; true when every id was visited.
  template <typename Visit>
  bool all_lru_first(Visit visit) const {
    for (std::uint32_t node = prev_[0]; node != 0; node = prev_[node]) {
      if (!visit(node - 1)) {
        return false;
      }
    }
    return true;
  }

 private:
  void unlink(std::uint32_t node) {
    next_[prev_[node]] = next_[node];
    prev_[next_[node]] = prev_[node];
  }

  std::uint64_t capacity_;
  std::uint64_t size_ = 0;
  // kNoId: the block is not in the share.
  std::vector<std::uint32_t> prev_ = std::vector<std::uint32_t>(1, 0);
  std::vector<std::uint32_t> next_ = std::vector<std::uint32_t>(1, 0);
};

EvalError too_many_blocks() {
  return EvalError{ErrorKind::kResourceLimit,
                   "template: more than 2^32-2 distinct blocks"};
}

/// Calls visit(block) for every block reference of iterations [begin, end)
/// in string order (structure block-aligned at offset 0; an element wider
/// than a line touches every block it covers), checking the deadline every
/// 2^16 references. A false from visit stops the walk with too_many_blocks.
template <typename Visit>
Result<void> walk_blocks(const TemplateSpec& spec, int line_shift,
                         std::uint64_t begin, std::uint64_t end,
                         std::uint64_t& observed, EvalBudget& budget,
                         Visit visit) {
  const std::uint64_t e = spec.element_bytes;
  const auto stride = static_cast<std::uint64_t>(spec.step) * e;
  std::uint64_t seen = observed;  // a local the compiler keeps in a register
  for (std::uint64_t i = begin; i < end; ++i) {
    for (const std::uint64_t start : spec.starts) {
      const std::uint64_t first_byte = start * e + i * stride;
      const std::uint64_t last = (first_byte + e - 1) >> line_shift;
      std::uint64_t b = first_byte >> line_shift;
      if (b == last) {
        // Most elements sit in one line. As a branch of its own this case
        // ran about 10% faster than through the general loop below on a
        // 1.2 M-reference explicit string (x86-64 KVM guest, GCC 12).
        if ((++seen & 0xFFFF) == 0) {
          DVF_TRY_CHECK(budget.check_deadline());
        }
        if (!visit(b)) {
          return too_many_blocks();
        }
        continue;
      }
      for (;; ++b) {
        if ((++seen & 0xFFFF) == 0) {
          DVF_TRY_CHECK(budget.check_deadline());
        }
        if (!visit(b)) {
          return too_many_blocks();
        }
        if (b == last) {
          break;
        }
      }
    }
  }
  observed = seen;
  return {};
}

/// Counts the misses of `repetitions` passes over `ids` from at most two.
/// After the first pass every block of the string has been used, so the
/// replay state at the start of each later pass (the LRU order, fixed by the
/// blocks' last uses; the gap to each block's last use) is the same, and so
/// is the pass's access count: N_ha = A1 + (R - 1) * A2.
template <typename Miss>
Result<std::uint64_t> replay(const std::vector<std::uint32_t>& ids,
                             std::uint64_t repetitions, Miss miss,
                             std::uint64_t& observed, EvalBudget& budget) {
  std::uint64_t per_pass[2] = {0, 0};
  for (int pass = 0; pass < (repetitions > 1 ? 2 : 1); ++pass) {
    for (const std::uint32_t id : ids) {
      if ((++observed & 0xFFFF) == 0) {
        DVF_TRY_CHECK(budget.check_deadline());
      }
      per_pass[pass] += miss(id) ? 1 : 0;
    }
  }
  return math::saturating_add(
      per_pass[0], math::saturating_mul(repetitions - 1, per_pass[1]));
}

/// The whole reference string renamed to dense ids and replayed: explicit
/// strings (count 1) and the raw-distance ablation.
Result<double> estimate_materialized(const TemplateSpec& spec, int line_shift,
                                     std::uint64_t capacity_blocks,
                                     EvalBudget& budget) {
  // One pass renames the block string to dense ids; the deadline cadence is
  // the replay's, so a long string stays cancellable here too.
  std::uint64_t observed = 0;
  BlockIds table;
  std::vector<std::uint32_t> ids;
  if (spec.count == 1) {
    ids.reserve(spec.starts.size());
  }
  DVF_TRY_CHECK(walk_blocks(spec, line_shift, 0, spec.count, observed, budget,
                            [&](std::uint64_t block) {
                              const std::uint32_t id = table.intern(block);
                              if (id == kNoId) {
                                return false;
                              }
                              ids.push_back(id);
                              return true;
                            }));

  // Charged as the full replay of ids.size() * repetitions positions,
  // although the repetition collapse below visits at most two passes.
  const std::uint64_t positions =
      math::saturating_mul(ids.size(), spec.repetitions);
  DVF_TRY_CHECK(budget.charge_references(positions));

  if (capacity_blocks == 0) {
    // Stack mode: every distance >= 0. Raw mode: every gap > 0.
    return static_cast<double>(positions);
  }
  if (spec.distance == DistanceKind::kStack &&
      capacity_blocks >= table.size()) {
    // No stack distance reaches the capacity: only first uses miss.
    return static_cast<double>(table.size());
  }

  // Step 1: a block's first use always loads it. Step 2: a reuse misses
  // when its distance reaches the cache share.
  if (spec.distance == DistanceKind::kStack) {
    LruShare share(capacity_blocks);
    share.reserve_ids(table.size());
    DVF_TRY_ASSIGN(accesses,
                   replay(
                       ids, spec.repetitions,
                       [&](std::uint32_t id) { return share.miss(id); },
                       observed, budget));
    return static_cast<double>(accesses);
  }
  // Literal reading of the paper (ablation variant): a reuse misses when
  // more than `capacity_blocks` references lie since the previous use.
  constexpr std::uint64_t kNever = ~std::uint64_t{0};
  std::vector<std::uint64_t> last(table.size(), kNever);
  std::uint64_t t = 0;
  DVF_TRY_ASSIGN(accesses,
                 replay(
                     ids, spec.repetitions,
                     [&](std::uint32_t id) {
                       const std::uint64_t now = t++;
                       const std::uint64_t prev = std::exchange(last[id], now);
                       return prev == kNever || now - prev > capacity_blocks;
                     },
                     observed, budget));
  return static_cast<double>(accesses);
}

std::uint64_t step_magnitude(const TemplateSpec& spec) {
  return spec.step < 0
             ? std::uint64_t{0} - static_cast<std::uint64_t>(spec.step)
             : static_cast<std::uint64_t>(spec.step);
}

/// The progression's period on lines of 2^line_shift bytes: iteration
/// i + iterations touches the blocks of iteration i moved by `shift`
/// blocks (modulo 2^64; `magnitude` and `down` give its size and sign).
/// Meaningful only when count > iterations, where the validated index range
/// bounds iterations * |step| * E below 2^64.
struct Period {
  std::uint64_t iterations = 1;
  std::uint64_t shift = 0;
  std::uint64_t magnitude = 0;
  bool down = false;
};

Period period_of(const TemplateSpec& spec, int line_shift) {
  Period period;
  if (spec.step == 0) {
    return period;  // every iteration touches the same blocks
  }
  // gcd(|step| * E, CL) for a power-of-two CL: the common factors of two.
  const int twos = std::countr_zero(step_magnitude(spec)) +
                   std::countr_zero(spec.element_bytes);
  period.iterations = std::uint64_t{1}
                      << (line_shift - std::min(line_shift, twos));
  if (spec.count <= period.iterations) {
    return period;
  }
  // iterations * |step| <= max index, so the byte distance fits 64 bits.
  period.magnitude = period.iterations * step_magnitude(spec) *
                         spec.element_bytes >>
                     line_shift;
  period.down = spec.step < 0;
  period.shift = period.down ? std::uint64_t{0} - period.magnitude
                             : period.magnitude;
  return period;
}

/// Calls visit(first, last, copies) for each iteration r < P and each
/// start: the blocks [first, last] the start covers in iteration r, which
/// iterations r + P, r + 2P, ... cover again, one shift further each time,
/// `copies` times in all.
template <typename Visit>
void for_each_run(const TemplateSpec& spec, const Period& period,
                  int line_shift, Visit visit) {
  const std::uint64_t e = spec.element_bytes;
  const auto stride = static_cast<std::uint64_t>(spec.step) * e;
  for (std::uint64_t r = 0; r < std::min(period.iterations, spec.count);
       ++r) {
    const std::uint64_t copies = (spec.count - 1 - r) / period.iterations + 1;
    for (const std::uint64_t start : spec.starts) {
      const std::uint64_t first_byte = start * e + r * stride;
      visit(first_byte >> line_shift, (first_byte + e - 1) >> line_shift,
            copies);
    }
  }
}

/// Stack-mode LRU replay of a progression that skips its periodic steady
/// state. Blocks are interned relative to `origin_`, so moving the whole
/// state by k shifts is one addition. Successive pass() calls replay
/// successive passes from the state the last one left.
///
/// The state that decides the rest of a pass is the LRU list down to its
/// deepest block the pass can still reference: blocks below that are never
/// referenced again and never counted in a live block's stack distance, so
/// they change no outcome. Each run of iterations r, r + P, ... of one start
/// covers one block interval from period k on, whose near end moves by a
/// shift per period; a block outside all of them is dead. This live set
/// shrinks from period to period, and no faster than the shift moves it, so
/// equal truncated states at two consecutive boundaries (up to one shift)
/// fix every later period's misses, and the truncated state stays exact for
/// the rest of the pass. When a later pass follows, its references are the
/// blocks this pass left behind, so the whole list is compared instead.
class ProgressionReplay {
 public:
  ProgressionReplay(const TemplateSpec& spec, int line_shift,
                    std::uint64_t capacity, EvalBudget& budget)
      : spec_(spec),
        line_shift_(line_shift),
        period_(period_of(spec, line_shift)),
        share_(capacity),
        budget_(budget) {
    struct Run {
      std::uint64_t copies;
      std::uint64_t lo;
      std::uint64_t hi;
    };
    std::vector<Run> runs;
    for_each_run(spec, period_, line_shift,
                 [&](std::uint64_t first, std::uint64_t last,
                     std::uint64_t copies) {
                   const std::uint64_t travel =
                       (copies - 1) * period_.magnitude;
                   runs.push_back(period_.down
                                      ? Run{copies, first - travel, last}
                                      : Run{copies, first, last + travel});
                 });
    std::sort(runs.begin(), runs.end(), [](const Run& a, const Run& b) {
      return a.copies != b.copies ? a.copies < b.copies : a.lo < b.lo;
    });
    for (const Run& run : runs) {
      if (groups_.empty() || groups_.back().copies != run.copies) {
        groups_.push_back({run.copies, {}, {}});
      }
      RunGroup& group = groups_.back();
      group.max_hi.push_back(
          group.lo.empty() ? run.hi : std::max(group.max_hi.back(), run.hi));
      group.lo.push_back(run.lo);
    }
  }

  /// The misses of one pass over the string. `whole_state` keeps the final
  /// state exact for a pass that follows.
  Result<std::uint64_t> pass(bool whole_state) {
    const std::uint64_t p = period_.iterations;
    const std::uint64_t periods = spec_.count / p;
    std::uint64_t misses = 0;
    std::uint64_t done = 0;  // iterations replayed or skipped
    for (std::uint64_t k = 0; k < periods; ++k) {
      if (k == fixed_at_) {
        // An earlier pass reached its fixed point here. Every pass replays
        // the same string, so a whole state equal to that pass's is that
        // fixed point again. Probing would find it no sooner: until the
        // share has cycled it still holds blocks the pass reaches later.
        DVF_TRY_ASSIGN(same, state_moved_by(0, k, true));
        if (same) {
          skip(periods - k);
          misses = math::saturating_add(
              misses, math::saturating_mul(periods - k, fixed_misses_));
          done = periods * p;
          break;
        }
        fixed_at_ = kNoPeriod;
      }
      // A probe copies and compares the state, O(capacity · log runs)
      // each; it runs only when at least as many references as the state
      // holds were replayed since the last one, so probes cost about as
      // much as the replay, and only when a period is left to skip and no
      // earlier fixed point is still to be checked. A whole-state probe
      // waits for a full share: until then the state only grows.
      const bool probe = fixed_at_ == kNoPeriod && k + 2 <= periods &&
                         (share_.full() || !whole_state) &&
                         since_probe_ >= share_.size();
      if (probe) {
        DVF_TRY_CHECK(remember_state(k, whole_state));
      }
      DVF_TRY_ASSIGN(period_misses, replay(k * p, (k + 1) * p));
      misses = math::saturating_add(misses, period_misses);
      done = (k + 1) * p;
      if (!probe) {
        continue;
      }
      since_probe_ = 0;
      DVF_TRY_ASSIGN(fixed, state_moved_by(period_.shift, k + 1, whole_state));
      if (fixed) {
        // The state is a fixed point of "replay one period, move back by
        // one shift": every remaining whole period misses the same.
        if (whole_state) {
          fixed_at_ = k;
          fixed_misses_ = period_misses;
        }
        skip(periods - (k + 1));
        misses = math::saturating_add(
            misses, math::saturating_mul(periods - (k + 1), period_misses));
        done = periods * p;
        break;
      }
    }
    DVF_TRY_ASSIGN(tail_misses, replay(done, spec_.count));
    return math::saturating_add(misses, tail_misses);
  }

 private:
  /// Replays iterations [begin, end); returns their misses.
  Result<std::uint64_t> replay(std::uint64_t begin, std::uint64_t end) {
    std::uint64_t misses = 0;
    const std::uint64_t before = observed_;
    DVF_TRY_CHECK(walk_blocks(
        spec_, line_shift_, begin, end, observed_, budget_,
        [&](std::uint64_t block) {
          const std::uint64_t key = block - origin_;
          const std::uint32_t id = ids_.intern(key);
          if (id == kNoId) {
            return false;
          }
          if (id == keys_.size()) {
            keys_.push_back(key);
            share_.reserve_ids(id + 1);
          }
          misses += share_.miss(id) ? 1 : 0;
          return true;
        }));
    since_probe_ += observed_ - before;
    return misses;
  }

  /// Whether `block` lies in a run's interval from period k on, found by a
  /// binary search per group. The moved near end stays inside the run's own
  /// interval, so nothing overflows.
  [[nodiscard]] bool live(std::uint64_t block, std::uint64_t k) const {
    const std::uint64_t moved = k * period_.magnitude;
    for (const RunGroup& group : groups_) {
      if (k >= group.copies || (!period_.down && block < moved)) {
        continue;
      }
      // Up: lo + moved <= block <= hi. Down: lo <= block <= hi - moved.
      const std::uint64_t key = period_.down ? block : block - moved;
      const auto below =
          std::upper_bound(group.lo.begin(), group.lo.end(), key) -
          group.lo.begin();
      if (below == 0) {
        continue;
      }
      const std::uint64_t reach = group.max_hi[below - 1];
      if ((period_.down ? reach - moved : reach) >= block) {
        return true;
      }
    }
    return false;
  }

  /// Calls visit(block) from the least recently used block on, skipping
  /// the blocks below the deepest live one unless `whole` is set, while
  /// visit returns true; true when visit never returned false. Checks the
  /// deadline at the replay's cadence.
  template <typename Visit>
  Result<bool> visit_state(std::uint64_t k, bool whole, Visit visit) {
    bool started = whole;
    Result<void> on_time;
    const bool all = share_.all_lru_first([&](std::uint32_t id) {
      if ((++observed_ & 0xFFFF) == 0) {
        on_time = budget_.check_deadline();
        if (!on_time.ok()) {
          return false;
        }
      }
      const std::uint64_t block = keys_[id] + origin_;
      started = started || live(block, k);
      return !started || visit(block);
    });
    DVF_TRY_CHECK(std::move(on_time));
    return all;
  }

  Result<void> remember_state(std::uint64_t k, bool whole) {
    state_.clear();
    DVF_TRY_CHECK(visit_state(k, whole, [&](std::uint64_t block) {
      state_.push_back(block);
      return true;
    }));
    return {};
  }

  /// Whether the state at period k equals the remembered one moved by
  /// `shift` blocks.
  Result<bool> state_moved_by(std::uint64_t shift, std::uint64_t k,
                              bool whole) {
    std::size_t at = 0;
    DVF_TRY_ASSIGN(equal, visit_state(k, whole, [&](std::uint64_t block) {
                     return at < state_.size() &&
                            block == state_[at++] + shift;
                   }));
    return equal && at == state_.size();
  }

  /// Moves the state ahead by `periods` periods.
  void skip(std::uint64_t periods) { origin_ += periods * period_.shift; }

  static constexpr std::uint64_t kNoPeriod = ~std::uint64_t{0};

  const TemplateSpec& spec_;
  int line_shift_;
  Period period_;
  /// The blocks [lo, hi] that one start's iterations r, r + P, ... cover
  /// over the pass, for the runs spanning `copies` periods (one or two
  /// groups), sorted by lo; max_hi is the running maximum of hi.
  struct RunGroup {
    std::uint64_t copies;
    std::vector<std::uint64_t> lo;
    std::vector<std::uint64_t> max_hi;
  };
  std::vector<RunGroup> groups_;
  BlockIds ids_;
  std::vector<std::uint64_t> keys_;  ///< id -> block - origin at interning
  std::uint64_t origin_ = 0;
  LruShare share_;
  std::vector<std::uint64_t> state_;  ///< blocks at the probe, LRU first
  std::uint64_t fixed_at_ = kNoPeriod;  ///< period whose state is fixed
  std::uint64_t fixed_misses_ = 0;      ///< misses of each period from there
  std::uint64_t since_probe_ = 0;     ///< references since the last probe
  std::uint64_t observed_ = 0;
  EvalBudget& budget_;
};

/// Stack mode over a progression (count >= 2).
Result<double> estimate_progression(const TemplateSpec& spec, int line_shift,
                                    std::uint64_t capacity_blocks,
                                    EvalBudget& budget) {
  const TemplateFootprint footprint =
      template_footprint(spec, std::uint32_t{1} << line_shift);
  if (footprint.distinct > kMaxDistinct) {
    return too_many_blocks();
  }
  // Charged as the full replay, however much of it the collapse skips.
  const std::uint64_t positions =
      math::saturating_mul(footprint.references, spec.repetitions);
  DVF_TRY_CHECK(budget.charge_references(positions));
  if (capacity_blocks == 0) {
    return static_cast<double>(positions);  // every distance >= 0
  }
  if (capacity_blocks >= footprint.distinct) {
    // No stack distance reaches the capacity: only first uses miss.
    return static_cast<double>(footprint.distinct);
  }
  ProgressionReplay lru(spec, line_shift, capacity_blocks, budget);
  DVF_TRY_ASSIGN(first, lru.pass(spec.repetitions > 1));
  if (spec.repetitions == 1) {
    return static_cast<double>(first);
  }
  // Pass 2 starts from pass 1's final state, as in the materialized replay.
  DVF_TRY_ASSIGN(second, lru.pass(false));
  return static_cast<double>(math::saturating_add(
      first, math::saturating_mul(spec.repetitions - 1, second)));
}

std::uint64_t saturating_increment(std::uint64_t x) {
  return x == ~std::uint64_t{0} ? x : x + 1;
}

}  // namespace

Result<void> try_check_template_indices(const TemplateSpec& spec) {
  const std::uint64_t e = spec.element_bytes;
  // The last byte of element idx lives at idx*E + E - 1; past this bound the
  // byte address wraps and the block walk would cover a garbage range.
  const std::uint64_t max_index = (~std::uint64_t{0} - (e - 1)) / e;
  const std::uint64_t magnitude = step_magnitude(spec);
  // A start inside [lowest, highest] stays in range over all iterations.
  std::uint64_t travel = 0;  // distance the last iteration moves a start
  const bool far = spec.count > 0 &&
                   __builtin_mul_overflow(spec.count - 1, magnitude, &travel);
  const std::uint64_t lowest = spec.step < 0 ? travel : 0;
  const std::uint64_t highest =
      spec.step > 0 ? (travel > max_index ? 0 : max_index - travel)
                    : max_index;
  const bool some_safe = !far && travel <= max_index;
  // The common case, every start safe, as one branch-free pass.
  bool all_safe = some_safe;
  for (const std::uint64_t start : spec.starts) {
    all_safe &= start - lowest <= highest - lowest;
  }
  if (all_safe) {
    return {};
  }
  // Each start moves monotonically, so it leaves the range at one first
  // iteration; the earliest string position is the one a scan would hit.
  std::uint64_t bad_iteration = spec.count;
  std::size_t bad_start = 0;
  for (std::size_t j = 0; j < spec.starts.size(); ++j) {
    const std::uint64_t start = spec.starts[j];
    std::uint64_t first = 0;
    if (start > max_index) {
      first = 0;
    } else if (spec.step > 0) {
      first = saturating_increment((max_index - start) / magnitude);
    } else if (spec.step < 0) {
      first = saturating_increment(start / magnitude);
    } else {
      continue;
    }
    if (first < bad_iteration) {
      bad_iteration = first;
      bad_start = j;
    }
  }
  if (bad_iteration >= spec.count) {
    return {};
  }
  const std::uint64_t start = spec.starts[bad_start];
  const std::string position = std::to_string(math::saturating_add(
      math::saturating_mul(bad_iteration, spec.starts.size()), bad_start));
  if (start <= max_index && spec.step < 0) {
    return EvalError{ErrorKind::kDomainError,
                     "template: element index at position " + position +
                         " is negative"};
  }
  std::uint64_t reach = 0;
  std::uint64_t index = 0;
  const bool wraps =
      __builtin_mul_overflow(bad_iteration, magnitude, &reach) ||
      __builtin_add_overflow(start, reach, &index);
  const std::string text =
      wraps ? std::to_string(start) + " + " + std::to_string(bad_iteration) +
                  " * " + std::to_string(spec.step)
            : std::to_string(index);
  return EvalError{ErrorKind::kOverflow,
                   "template: element index " + text + " at position " +
                       position + " overflows 64-bit byte addressing"};
}

TemplateFootprint template_footprint(const TemplateSpec& spec,
                                     std::uint32_t line_bytes,
                                     bool count_distinct) {
  DVF_CHECK(std::has_single_bit(line_bytes));
  const int line_shift = std::countr_zero(line_bytes);
  const Period period = period_of(spec, line_shift);
  // Iterations r, r + P, r + 2P, ... of start j touch one block run moved by
  // the shift each time. Per lane (block mod |shift|) the moved copies of a
  // block are consecutive multiples, so the union is a sum of interval
  // unions, one per lane; with no shift (or no second period) lane 0 holds
  // the block runs themselves.
  const bool moves = period.magnitude != 0;
  struct LaneRun {
    std::uint64_t lane;
    std::uint64_t lo;
    std::uint64_t hi;
  };
  std::vector<LaneRun> runs;
  TemplateFootprint out;
  for_each_run(spec, period, line_shift,
               [&](std::uint64_t first, std::uint64_t last,
                   std::uint64_t copies) {
                 out.references = math::saturating_add(
                     out.references,
                     math::saturating_mul(last - first + 1, copies));
                 out.widest = std::max(out.widest, last - first + 1);
                 if (!count_distinct) {
                   return;
                 }
                 if (!moves) {
                   runs.push_back({0, first, last});
                   return;
                 }
                 for (std::uint64_t b = first;; ++b) {
                   const std::uint64_t lane = b % period.magnitude;
                   const std::uint64_t q = b / period.magnitude;
                   runs.push_back(period.down
                                      ? LaneRun{lane, q - (copies - 1), q}
                                      : LaneRun{lane, q, q + (copies - 1)});
                   if (b == last) {
                     break;
                   }
                 }
               });
  std::sort(runs.begin(), runs.end(),
            [](const LaneRun& a, const LaneRun& b) {
              return a.lane != b.lane ? a.lane < b.lane : a.lo < b.lo;
            });
  for (std::size_t i = 0; i < runs.size();) {
    std::uint64_t lo = runs[i].lo;
    std::uint64_t hi = runs[i].hi;
    for (++i; i < runs.size() && runs[i].lane == runs[i - 1].lane; ++i) {
      if (runs[i].lo > hi && runs[i].lo - hi > 1) {
        out.distinct += hi - lo + 1;
        lo = runs[i].lo;
      }
      hi = std::max(hi, runs[i].hi);
    }
    out.distinct += hi - lo + 1;
  }
  return out;
}

Result<TemplateFacts> try_template_facts(const TemplateSpec& spec,
                                         const CacheConfig& cache) {
  DVF_EVAL_REQUIRE(!spec.starts.empty(),
                   "template: reference string must not be empty");
  DVF_EVAL_REQUIRE(spec.count >= 1, "template: count must be >= 1");
  DVF_EVAL_REQUIRE(spec.element_bytes > 0,
                   "template: element size must be > 0");
  DVF_EVAL_REQUIRE(spec.cache_ratio > 0.0 && spec.cache_ratio <= 1.0,
                   "template: cache ratio must be in (0, 1]");
  DVF_EVAL_REQUIRE(spec.repetitions >= 1, "template: repetitions must be >= 1");
  DVF_TRY_CHECK(try_check_template_indices(spec));
  return TemplateFacts{share_blocks(cache, spec.cache_ratio)};
}

Result<double> try_estimate_template(const TemplateSpec& spec,
                                     const CacheConfig& cache,
                                     EvalBudget* budget_in) {
  DVF_TRY_ASSIGN(facts, try_template_facts(spec, cache));
  EvalBudget& budget = budget_or_default(budget_in);
  DVF_TRY_CHECK(budget.check_deadline());

  // Worst-case block string: each element covers at most E/CL + 1 blocks.
  // Charged as expansion before anything is allocated.
  const std::uint64_t e = spec.element_bytes;
  const std::uint64_t cl = cache.line_bytes();
  DVF_TRY_CHECK(budget.charge_expansion(
      math::saturating_mul(spec.length(), e / cl + 1)));

  const int line_shift = std::countr_zero(cache.line_bytes());
  if (spec.count == 1 || spec.distance == DistanceKind::kRaw) {
    return estimate_materialized(spec, line_shift, facts.capacity_blocks,
                                 budget);
  }
  return estimate_progression(spec, line_shift, facts.capacity_blocks, budget);
}

}  // namespace dvf
