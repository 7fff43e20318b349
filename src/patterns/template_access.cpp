#include "dvf/patterns/template_access.hpp"

#include <bit>
#include <string>
#include <utility>

#include "dvf/common/error.hpp"
#include "dvf/common/math.hpp"

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
/// intrusive circular list through a sentinel, most recent use first. A
/// reference misses exactly when its LRU stack distance is at least the
/// capacity (Mattson inclusion), so the misses of this share are the paper's
/// step 2 without computing any distance. Requires 1 <= capacity < distinct;
/// a share holding every block misses only on first uses.
class LruShare {
 public:
  LruShare(std::uint32_t distinct, std::uint64_t capacity)
      : capacity_(capacity),
        sentinel_(distinct),
        prev_(std::size_t{distinct} + 1, kNoId),
        next_(std::size_t{distinct} + 1, distinct) {
    prev_[sentinel_] = sentinel_;
  }

  /// References `id`; true when it misses.
  bool miss(std::uint32_t id) {
    const bool resident = prev_[id] != kNoId;
    if (resident) {
      unlink(id);
    } else if (size_ == capacity_) {
      const std::uint32_t victim = prev_[sentinel_];
      unlink(victim);
      prev_[victim] = kNoId;
    } else {
      ++size_;
    }
    prev_[id] = sentinel_;
    next_[id] = next_[sentinel_];
    prev_[next_[sentinel_]] = id;
    next_[sentinel_] = id;
    return !resident;
  }

 private:
  void unlink(std::uint32_t id) {
    next_[prev_[id]] = next_[id];
    prev_[next_[id]] = prev_[id];
  }

  std::uint64_t capacity_;
  std::uint64_t size_ = 0;
  std::uint32_t sentinel_;
  std::vector<std::uint32_t> prev_;  // kNoId: the block is not in the share
  std::vector<std::uint32_t> next_;
};

/// The first and last cache block element `idx` covers (structure
/// block-aligned at offset 0); elements larger than a line touch every block
/// between. Lines are powers of two, so `line_shift` stands in for two 64-bit
/// divisions per element, which would otherwise cost as much as the replay.
std::pair<std::uint64_t, std::uint64_t> block_range(std::uint64_t idx,
                                                    std::uint64_t element_bytes,
                                                    int line_shift) {
  const std::uint64_t first_byte = idx * element_bytes;
  return {first_byte >> line_shift,
          (first_byte + element_bytes - 1) >> line_shift};
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

}  // namespace

std::vector<std::uint64_t> blocks_from_elements(
    std::span<const std::uint64_t> element_indices, std::uint32_t element_bytes,
    std::uint32_t line_bytes) {
  DVF_CHECK(element_bytes > 0);
  DVF_CHECK(std::has_single_bit(line_bytes));
  std::vector<std::uint64_t> blocks;
  blocks.reserve(element_indices.size());
  const int shift = std::countr_zero(line_bytes);
  for (const std::uint64_t idx : element_indices) {
    const auto [first, last] = block_range(idx, element_bytes, shift);
    for (std::uint64_t b = first;; ++b) {
      blocks.push_back(b);
      if (b == last) {
        break;
      }
    }
  }
  return blocks;
}

Result<double> try_estimate_template(const TemplateSpec& spec,
                                     const CacheConfig& cache,
                                     EvalBudget* budget_in) {
  EvalBudget& budget = budget_or_default(budget_in);
  DVF_EVAL_REQUIRE(!spec.element_indices.empty(),
                   "template: reference string must not be empty");
  DVF_EVAL_REQUIRE(spec.element_bytes > 0,
                   "template: element size must be > 0");
  DVF_EVAL_REQUIRE(spec.cache_ratio > 0.0 && spec.cache_ratio <= 1.0,
                   "template: cache ratio must be in (0, 1]");
  DVF_EVAL_REQUIRE(spec.repetitions >= 1, "template: repetitions must be >= 1");
  DVF_TRY_CHECK(budget.check_deadline());

  const std::uint64_t e = spec.element_bytes;
  const std::uint64_t cl = cache.line_bytes();
  // The last byte of element idx lives at idx*E + E - 1; past this bound the
  // byte address wraps and the block walk would cover a garbage range.
  const std::uint64_t max_index = (~std::uint64_t{0} - (e - 1)) / e;
  for (std::size_t i = 0; i < spec.element_indices.size(); ++i) {
    if (spec.element_indices[i] > max_index) {
      return EvalError{ErrorKind::kOverflow,
                       "template: element index " +
                           std::to_string(spec.element_indices[i]) +
                           " at position " + std::to_string(i) +
                           " overflows 64-bit byte addressing"};
    }
  }
  // Worst-case block string: each element covers at most E/CL + 1 blocks.
  // Charged as expansion before the id string below is allocated.
  DVF_TRY_CHECK(budget.charge_expansion(
      math::saturating_mul(spec.element_indices.size(), e / cl + 1)));

  // One pass renames the block string to dense ids; the deadline cadence is
  // the replay's, so a long string stays cancellable here too.
  std::uint64_t observed = 0;
  BlockIds table;
  std::vector<std::uint32_t> ids;
  ids.reserve(spec.element_indices.size());
  const int shift = std::countr_zero(cache.line_bytes());
  for (const std::uint64_t idx : spec.element_indices) {
    const auto [first, last] = block_range(idx, e, shift);
    for (std::uint64_t b = first;; ++b) {
      if ((++observed & 0xFFFF) == 0) {
        DVF_TRY_CHECK(budget.check_deadline());
      }
      const std::uint32_t id = table.intern(b);
      if (id == kNoId) {
        return EvalError{ErrorKind::kResourceLimit,
                         "template: more than 2^32-2 distinct blocks"};
      }
      ids.push_back(id);
      if (b == last) {
        break;
      }
    }
  }

  // Charged as the full replay of ids.size() * repetitions positions,
  // although the repetition collapse below visits at most two passes.
  const std::uint64_t positions =
      math::saturating_mul(ids.size(), spec.repetitions);
  DVF_TRY_CHECK(budget.charge_references(positions));

  const auto capacity_blocks = static_cast<std::uint64_t>(
      static_cast<double>(cache.total_blocks()) * spec.cache_ratio);
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
    LruShare share(table.size(), capacity_blocks);
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

}  // namespace dvf
