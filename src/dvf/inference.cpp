#include "dvf/dvf/inference.hpp"

#include <algorithm>
#include <optional>
#include <functional>
#include <unordered_map>
#include <variant>

#include "dvf/common/error.hpp"
#include "dvf/trace/trace_reader.hpp"

namespace dvf {

namespace {

/// Detects a pure constant-stride traversal split into one or more monotone
/// sweeps that all share the same stride and start. Returns the stride in
/// elements (>= 1) and the sweep count, or nullopt.
struct SweepShape {
  std::uint64_t stride = 1;
  std::uint64_t sweeps = 1;
  std::uint64_t elements_per_sweep = 0;
};

std::optional<SweepShape> detect_streaming(
    std::span<const std::uint64_t> indices) {
  if (indices.size() < 2) {
    return std::nullopt;
  }
  // Split into monotone runs at each descent.
  std::vector<std::pair<std::size_t, std::size_t>> runs;  // [begin, end)
  std::size_t begin = 0;
  for (std::size_t i = 1; i <= indices.size(); ++i) {
    if (i == indices.size() || indices[i] <= indices[i - 1]) {
      runs.emplace_back(begin, i);
      begin = i;
    }
  }
  // All runs must start at the same index and advance by one shared stride.
  std::uint64_t stride = 0;
  for (const auto& [run_begin, run_end] : runs) {
    if (indices[run_begin] != indices[runs[0].first]) {
      return std::nullopt;
    }
    for (std::size_t i = run_begin + 1; i < run_end; ++i) {
      const std::uint64_t step = indices[i] - indices[i - 1];
      if (stride == 0) {
        stride = step;
      } else if (step != stride) {
        return std::nullopt;
      }
    }
    if (run_end - run_begin != runs[0].second - runs[0].first) {
      return std::nullopt;  // ragged sweeps: not a clean traversal
    }
  }
  if (stride == 0) {
    return std::nullopt;  // all references to one element: template handles it
  }
  SweepShape shape;
  shape.stride = stride;
  shape.sweeps = runs.size();
  shape.elements_per_sweep = runs[0].second - runs[0].first;
  return shape;
}

/// Smallest period p (dividing the length) such that the string is the
/// first p entries repeated; returns the length itself when aperiodic.
std::size_t smallest_period(std::span<const std::uint64_t> indices) {
  const std::size_t n = indices.size();
  for (std::size_t p = 1; p <= n / 2; ++p) {
    if (n % p != 0) {
      continue;
    }
    bool periodic = true;
    for (std::size_t i = p; i < n && periodic; ++i) {
      periodic = indices[i] == indices[i - p];
    }
    if (periodic) {
      return p;
    }
  }
  return n;
}

}  // namespace

std::vector<PatternSpec> infer_patterns(
    std::span<const std::uint64_t> element_indices,
    std::uint32_t element_bytes, std::uint64_t element_count,
    const InferenceOptions& options) {
  DVF_CHECK_MSG(element_bytes > 0, "inference needs a positive element size");
  std::vector<PatternSpec> patterns;
  if (element_indices.empty()) {
    return patterns;
  }

  // 1. Constant-stride sweeps.
  if (const auto shape = detect_streaming(element_indices)) {
    StreamingSpec s;
    s.element_bytes = element_bytes;
    s.element_count = shape->elements_per_sweep * shape->stride;
    s.stride_elements = shape->stride;
    for (std::uint64_t sweep = 0; sweep < shape->sweeps; ++sweep) {
      patterns.emplace_back(s);
    }
    return patterns;
  }

  // 2./3. Periodic or literal template within budget.
  if (element_indices.size() <= options.literal_template_limit) {
    const std::size_t period = smallest_period(element_indices);
    TemplateSpec t;
    t.element_bytes = element_bytes;
    t.starts.assign(element_indices.begin(),
                    element_indices.begin() +
                        static_cast<std::ptrdiff_t>(period));
    t.repetitions = element_indices.size() / period;
    patterns.emplace_back(std::move(t));
    return patterns;
  }

  // 4. IRM summary for very long irregular streams. Treat the stream as
  // `sweeps` passes where each pass visits the average number of
  // references; the popularity histogram carries the real structure.
  std::unordered_map<std::uint64_t, std::uint64_t> counts;
  counts.reserve(element_count / 4 + 16);
  for (const std::uint64_t idx : element_indices) {
    ++counts[idx];
  }
  const double distinct = static_cast<double>(counts.size());
  const double passes = std::max(
      1.0, static_cast<double>(element_indices.size()) / distinct);

  RandomSpec r;
  r.element_count = element_count;
  r.element_bytes = element_bytes;
  r.iterations = static_cast<std::uint64_t>(passes);
  r.visits_per_iteration = distinct;
  r.sorted_visit_fractions.assign(element_count, 0.0);
  std::size_t slot = 0;
  for (const auto& [idx, count] : counts) {
    (void)idx;
    r.sorted_visit_fractions[slot++] =
        std::min(1.0, static_cast<double>(count) / passes);
  }
  std::sort(r.sorted_visit_fractions.begin(), r.sorted_visit_fractions.end(),
            std::greater<>());
  patterns.emplace_back(std::move(r));
  return patterns;
}

namespace {

// Appends the element-granular reference string of each structure; callable
// per chunk so a streamed trace buckets in O(per-structure indices) memory.
void bucket_records(std::span<const DataStructureInfo> structures,
                    std::span<const MemoryRecord> records,
                    std::vector<std::vector<std::uint64_t>>& per_structure) {
  for (const MemoryRecord& record : records) {
    if (record.ds == kNoDs || record.ds >= structures.size()) {
      continue;
    }
    const DataStructureInfo& info = structures[record.ds];
    if (info.element_bytes == 0 || record.address < info.base_address) {
      continue;
    }
    per_structure[record.ds].push_back(
        (record.address - info.base_address) / info.element_bytes);
  }
}

ModelSpec model_from_buckets(
    std::span<const DataStructureInfo> structures,
    const std::vector<std::vector<std::uint64_t>>& per_structure,
    const InferenceOptions& options) {
  ModelSpec spec;
  spec.name = "inferred";

  // The paper's rule for concurrently accessed structures: split the cache
  // by footprint. Per-structure inference cannot see cross-structure
  // interference, so the share is applied to the capacity-sensitive specs.
  std::uint64_t total_bytes = 0;
  for (std::size_t i = 0; i < structures.size(); ++i) {
    if (!per_structure[i].empty()) {
      total_bytes += structures[i].size_bytes;
    }
  }

  for (std::size_t i = 0; i < structures.size(); ++i) {
    const DataStructureInfo& info = structures[i];
    if (per_structure[i].empty()) {
      continue;
    }
    DataStructureSpec ds;
    ds.name = info.name;
    ds.size_bytes = info.size_bytes;
    ds.patterns = infer_patterns(per_structure[i], info.element_bytes,
                                 info.element_count(), options);
    const double share =
        total_bytes == 0
            ? 1.0
            : std::max(1.0 / 64.0, static_cast<double>(info.size_bytes) /
                                       static_cast<double>(total_bytes));
    for (PatternSpec& pattern : ds.patterns) {
      if (auto* t = std::get_if<TemplateSpec>(&pattern)) {
        t->cache_ratio = share;
      } else if (auto* r = std::get_if<RandomSpec>(&pattern)) {
        r->cache_ratio = share;
      }
    }
    spec.structures.push_back(std::move(ds));
  }
  return spec;
}

}  // namespace

ModelSpec infer_model(std::span<const DataStructureInfo> structures,
                      std::span<const MemoryRecord> records,
                      const InferenceOptions& options) {
  std::vector<std::vector<std::uint64_t>> per_structure(structures.size());
  bucket_records(structures, records, per_structure);
  return model_from_buckets(structures, per_structure, options);
}

ModelSpec infer_model(const TraceFile& trace, const InferenceOptions& options) {
  return infer_model(std::span<const DataStructureInfo>(trace.structures),
                     std::span<const MemoryRecord>(trace.records), options);
}

ModelSpec infer_model(TraceReader& reader, const InferenceOptions& options) {
  std::vector<std::vector<std::uint64_t>> per_structure(
      reader.structures().size());
  while (!reader.done()) {
    bucket_records(reader.structures(), reader.next_chunk(), per_structure);
  }
  return model_from_buckets(reader.structures(), per_structure, options);
}

}  // namespace dvf
