// Memory-reference instrumentation.
//
// The paper collected per-data-structure memory references with a Pin tool;
// here every kernel is compiled against a recorder that receives the same
// logical stream: (data structure, byte address, width, read/write). Kernels
// are templates over the recorder type so that the untraced configuration
// (NullRecorder) compiles to nothing and timing runs measure the bare kernel.
#pragma once

#include <concepts>
#include <cstdint>
#include <vector>

namespace dvf {

/// Identifier of a registered data structure (index into a registry).
using DsId = std::uint32_t;

/// Sentinel for "not attributable" accesses (scratch, loop temporaries).
inline constexpr DsId kNoDs = ~DsId{0};

/// A recorder receives one call per logical load/store a kernel performs on
/// a registered data structure.
template <typename R>
concept RecorderLike = requires(R r, DsId ds, std::uint64_t addr, std::uint32_t bytes) {
  { r.on_load(ds, addr, bytes) };
  { r.on_store(ds, addr, bytes) };
};

/// Zero-cost recorder for untraced (timing) runs.
struct NullRecorder {
  void on_load(DsId, std::uint64_t, std::uint32_t) const noexcept {}
  void on_store(DsId, std::uint64_t, std::uint32_t) const noexcept {}
};
static_assert(RecorderLike<NullRecorder>);

/// Per-structure load/store tallies, independent of any cache.
class CountingRecorder {
 public:
  void on_load(DsId ds, std::uint64_t, std::uint32_t) { bump(ds).loads++; }
  void on_store(DsId ds, std::uint64_t, std::uint32_t) { bump(ds).stores++; }

  struct Counts {
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    [[nodiscard]] std::uint64_t total() const noexcept { return loads + stores; }
  };

  /// Counts for `ds`; zeros if the structure never appeared.
  [[nodiscard]] Counts counts(DsId ds) const {
    return ds < counts_.size() ? counts_[ds] : Counts{};
  }
  [[nodiscard]] std::uint64_t total_references() const {
    std::uint64_t t = 0;
    for (const auto& c : counts_) {
      t += c.total();
    }
    return t;
  }

 private:
  Counts& bump(DsId ds) {
    if (ds >= counts_.size()) {
      counts_.resize(ds + 1);
    }
    return counts_[ds];
  }
  std::vector<Counts> counts_;
};
static_assert(RecorderLike<CountingRecorder>);

/// One recorded reference, for buffered traces.
struct MemoryRecord {
  std::uint64_t address;
  std::uint32_t size;
  DsId ds;
  bool is_write;
  friend bool operator==(const MemoryRecord&, const MemoryRecord&) = default;
};

/// Buffers the full reference stream (verification-size workloads only).
class TraceBuffer {
 public:
  void on_load(DsId ds, std::uint64_t addr, std::uint32_t bytes) {
    records_.push_back({addr, bytes, ds, false});
  }
  void on_store(DsId ds, std::uint64_t addr, std::uint32_t bytes) {
    records_.push_back({addr, bytes, ds, true});
  }
  [[nodiscard]] const std::vector<MemoryRecord>& records() const noexcept {
    return records_;
  }
  void clear() noexcept { records_.clear(); }

 private:
  std::vector<MemoryRecord> records_;
};
static_assert(RecorderLike<TraceBuffer>);

}  // namespace dvf
