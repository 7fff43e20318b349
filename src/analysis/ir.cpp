#include "dvf/analysis/ir.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

namespace dvf::analysis {

namespace {

/// Streaming 64-bit FNV-1a. Multi-byte values are fed little-endian so the
/// hash is identical on every host.
class Fnv1a {
 public:
  static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  void byte(std::uint8_t b) noexcept {
    state_ = (state_ ^ b) * kPrime;
  }
  void u32(std::uint32_t v) noexcept {
    for (int i = 0; i < 4; ++i) {
      byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void u64(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      byte(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void f64(double v) noexcept { u64(canonical_bits(v)); }
  void str(const std::string& s) noexcept {
    u64(s.size());
    for (const char c : s) {
      byte(static_cast<std::uint8_t>(c));
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return state_; }

  /// -0.0 normalizes to +0.0 and every NaN to one quiet pattern, so
  /// semantically equal specs hash equal.
  static std::uint64_t canonical_bits(double v) noexcept {
    if (std::isnan(v)) {
      return 0x7ff8000000000000ULL;
    }
    if (v == 0.0) {
      return 0;
    }
    return std::bit_cast<std::uint64_t>(v);
  }

 private:
  std::uint64_t state_ = kOffset;
};

// Family tags of the pattern encoding. Stable: changing them changes every
// hash, which invalidates any persisted cache keyed on it.
enum : std::uint8_t {
  kTagStream = 1,
  kTagRandom = 2,
  kTagTemplate = 3,
  kTagReuse = 4,
  kTagTiled = 5,
};

void encode_spec(Fnv1a& h, const StreamingSpec& s) {
  h.byte(kTagStream);
  h.u32(s.element_bytes);
  h.u64(s.element_count);
  h.u64(s.stride_elements);
}

void encode_spec(Fnv1a& h, const RandomSpec& s) {
  h.byte(kTagRandom);
  h.u64(s.element_count);
  h.u32(s.element_bytes);
  h.f64(s.visits_per_iteration);
  h.u64(s.iterations);
  h.f64(s.cache_ratio);
  h.u64(s.sorted_visit_fractions.size());
  for (const double f : s.sorted_visit_fractions) {
    h.f64(f);
  }
}

void encode_spec(Fnv1a& h, const TemplateSpec& s) {
  h.byte(kTagTemplate);
  h.u32(s.element_bytes);
  h.u64(s.repetitions);
  h.f64(s.cache_ratio);
  h.byte(static_cast<std::uint8_t>(s.distance));
  // The expanded reference string, so the key depends on the string alone,
  // not on how the progression spells it.
  h.u64(s.length());
  s.for_each_index([&h](std::uint64_t idx) { h.u64(idx); });
}

void encode_spec(Fnv1a& h, const ReuseSpec& s) {
  h.byte(kTagReuse);
  h.u64(s.self_bytes);
  h.u64(s.other_bytes);
  h.u64(s.reuse_rounds);
  h.byte(static_cast<std::uint8_t>(s.scenario));
  h.byte(static_cast<std::uint8_t>(s.occupancy));
}

void encode_spec(Fnv1a& h, const TiledSpec& s) {
  h.byte(kTagTiled);
  h.u32(s.element_bytes);
  h.u64(s.rows);
  h.u64(s.cols);
  h.u64(s.tile_rows);
  h.u64(s.tile_cols);
  h.u64(s.intra_reuse);
  h.u64(s.passes);
  h.f64(s.cache_ratio);
}

std::uint64_t spec_key(const PatternSpec& spec) {
  Fnv1a h;
  std::visit([&h](const auto& s) { encode_spec(h, s); }, spec);
  return h.value();
}

/// Whether two templates spell the same element reference string.
bool same_reference_string(const TemplateSpec& a,
                           const TemplateSpec& b) noexcept {
  if (a.starts == b.starts && a.count == b.count &&
      (a.step == b.step || a.count == 1)) {
    return true;
  }
  if (a.length() != b.length()) {
    return false;
  }
  const auto at = [](const TemplateSpec& t, std::uint64_t position) {
    return t.starts[position % t.starts.size()] +
           position / t.starts.size() * static_cast<std::uint64_t>(t.step);
  };
  for (std::uint64_t position = 0; position < a.length(); ++position) {
    if (at(a, position) != at(b, position)) {
      return false;
    }
  }
  return true;
}

bool f64_equal(double a, double b) noexcept {
  return Fnv1a::canonical_bits(a) == Fnv1a::canonical_bits(b);
}

}  // namespace

bool spec_equal(const PatternSpec& a, const PatternSpec& b) noexcept {
  if (a.index() != b.index()) {
    return false;
  }
  if (const auto* sa = std::get_if<StreamingSpec>(&a)) {
    const auto& sb = std::get<StreamingSpec>(b);
    return sa->element_bytes == sb.element_bytes &&
           sa->element_count == sb.element_count &&
           sa->stride_elements == sb.stride_elements;
  }
  if (const auto* ra = std::get_if<RandomSpec>(&a)) {
    const auto& rb = std::get<RandomSpec>(b);
    if (ra->element_count != rb.element_count ||
        ra->element_bytes != rb.element_bytes ||
        !f64_equal(ra->visits_per_iteration, rb.visits_per_iteration) ||
        ra->iterations != rb.iterations ||
        !f64_equal(ra->cache_ratio, rb.cache_ratio) ||
        ra->sorted_visit_fractions.size() !=
            rb.sorted_visit_fractions.size()) {
      return false;
    }
    for (std::size_t i = 0; i < ra->sorted_visit_fractions.size(); ++i) {
      if (!f64_equal(ra->sorted_visit_fractions[i],
                     rb.sorted_visit_fractions[i])) {
        return false;
      }
    }
    return true;
  }
  if (const auto* ta = std::get_if<TemplateSpec>(&a)) {
    const auto& tb = std::get<TemplateSpec>(b);
    return ta->element_bytes == tb.element_bytes &&
           same_reference_string(*ta, tb) &&
           ta->repetitions == tb.repetitions &&
           f64_equal(ta->cache_ratio, tb.cache_ratio) &&
           ta->distance == tb.distance;
  }
  if (const auto* ba = std::get_if<TiledSpec>(&a)) {
    const auto& bb = std::get<TiledSpec>(b);
    return ba->element_bytes == bb.element_bytes && ba->rows == bb.rows &&
           ba->cols == bb.cols && ba->tile_rows == bb.tile_rows &&
           ba->tile_cols == bb.tile_cols &&
           ba->intra_reuse == bb.intra_reuse && ba->passes == bb.passes &&
           f64_equal(ba->cache_ratio, bb.cache_ratio);
  }
  const auto& ua = std::get<ReuseSpec>(a);
  const auto& ub = std::get<ReuseSpec>(b);
  return ua.self_bytes == ub.self_bytes && ua.other_bytes == ub.other_bytes &&
         ua.reuse_rounds == ub.reuse_rounds && ua.scenario == ub.scenario &&
         ua.occupancy == ub.occupancy;
}

ProgramIr build_ir(std::span<const Machine> machines,
                   std::span<const ModelSpec> models) {
  ProgramIr ir;
  ir.machines.reserve(machines.size());
  for (const Machine& m : machines) {
    ir.machines.push_back({m.name, m.llc.associativity(), m.llc.num_sets(),
                           m.llc.line_bytes(), m.memory.fit()});
  }

  // Value numbering: one PatternNode per distinct spec. Keyed on the
  // canonical encoding hash; a key collision between unequal specs falls
  // back to a fresh node, so hashing never merges distinct behaviour.
  const auto intern = [&ir](const PatternSpec& spec) -> PatternId {
    const std::uint64_t key = spec_key(spec);
    for (std::size_t i = 0; i < ir.patterns.size(); ++i) {
      if (ir.patterns[i].key == key && spec_equal(ir.patterns[i].spec, spec)) {
        return static_cast<PatternId>(i);
      }
    }
    ir.patterns.push_back({spec, key});
    return static_cast<PatternId>(ir.patterns.size() - 1);
  };

  ir.models.reserve(models.size());
  for (const ModelSpec& model : models) {
    ModelNode node;
    node.name = model.name;
    node.exec_time_seconds = model.exec_time_seconds;
    node.structures.reserve(model.structures.size());
    for (const DataStructureSpec& ds : model.structures) {
      StructureNode s;
      s.name = ds.name;
      s.size_bytes = ds.size_bytes;
      s.phases.reserve(ds.patterns.size());
      for (const PatternSpec& spec : ds.patterns) {
        s.phases.push_back(intern(spec));
      }
      node.structures.push_back(std::move(s));
    }
    ir.models.push_back(std::move(node));
  }
  return ir;
}

void canonicalize(ProgramIr& ir) {
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(ir.machines.begin(), ir.machines.end(), by_name);
  std::sort(ir.models.begin(), ir.models.end(), by_name);
  for (ModelNode& model : ir.models) {
    // Dead structures (no phases) evaluate to N_ha = 0 and DVF = 0 exactly;
    // stripping them is DVF-preserving.
    std::erase_if(model.structures,
                  [](const StructureNode& s) { return s.phases.empty(); });
    std::sort(model.structures.begin(), model.structures.end(), by_name);
    for (StructureNode& s : model.structures) {
      // Phase composition is a commutative sum, so the list sorts by the
      // phases' canonical keys (ties broken by id for determinism).
      std::sort(s.phases.begin(), s.phases.end(),
                [&ir](PatternId a, PatternId b) {
                  const std::uint64_t ka = ir.patterns[a].key;
                  const std::uint64_t kb = ir.patterns[b].key;
                  return ka != kb ? ka < kb : a < b;
                });
    }
  }
}

std::uint64_t content_hash(const ProgramIr& ir) {
  Fnv1a h;
  h.str("dvf-ir-v1");
  h.u64(ir.machines.size());
  for (const MachineNode& m : ir.machines) {
    h.str(m.name);
    h.u32(m.associativity);
    h.u32(m.num_sets);
    h.u32(m.line_bytes);
    h.f64(m.fit);
  }
  h.u64(ir.models.size());
  for (const ModelNode& model : ir.models) {
    h.str(model.name);
    h.byte(model.exec_time_seconds.has_value() ? 1 : 0);
    if (model.exec_time_seconds) {
      h.f64(*model.exec_time_seconds);
    }
    h.u64(model.structures.size());
    for (const StructureNode& s : model.structures) {
      h.str(s.name);
      h.u64(s.size_bytes);
      h.u64(s.phases.size());
      // Phases hash by content (their canonical encoding), not by pool id:
      // the pool's numbering depends on declaration order, the content
      // does not.
      for (const PatternId id : s.phases) {
        std::visit([&h](const auto& spec) { encode_spec(h, spec); },
                   ir.patterns[id].spec);
      }
    }
  }
  return h.value();
}

std::uint64_t canonical_hash(std::span<const Machine> machines,
                             std::span<const ModelSpec> models) {
  ProgramIr ir = build_ir(machines, models);
  canonicalize(ir);
  return content_hash(ir);
}

}  // namespace dvf::analysis
