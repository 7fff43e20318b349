// The daemon's compiled-model cache: a bounded, thread-safe LRU over
// compiled programs, keyed on PR 7's canonical model hash.
//
// Two indexes reach the same entries:
//
//   - a **source fingerprint** index (FNV-1a over the raw source bytes,
//     verified against the stored source on hit so a fingerprint collision
//     can never serve the wrong program). This is what lets repeat traffic
//     skip lex/parse/analyze entirely — the front end never runs on a hit,
//     which tests pin by asserting no dsl.* spans appear on the hit path.
//   - the **canonical hash** index (dvf::analysis::canonical_hash, the
//     stable content hash docs/analysis.md guarantees). Clients that saved
//     the hash from an earlier response can send hash-only requests and
//     skip shipping the source at all.
//
// Both indexes always point at the same Entry, so the canonical hash a
// response reports is the entry's identity. Entries are shared_ptr-held:
// an eviction never invalidates a request that is mid-evaluation on the
// evicted program. Only successful compiles are cached — a failing source
// re-compiles every time (its diagnostics are cheap and negative entries
// would let an adversary evict real traffic with garbage).
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "dvf/dsl/analyzer.hpp"

namespace dvf::serve {

/// 64-bit FNV-1a over raw bytes — the source-fingerprint function.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes) noexcept;

/// One cached compile: the lowered program plus its canonical hash.
struct CompiledEntry {
  std::string source;            ///< exact source bytes (collision guard)
  dsl::CompiledProgram program;  ///< machines + models, ready to evaluate
  std::uint64_t canonical_hash = 0;
  std::uint64_t source_fingerprint = 0;
};

class CompiledModelCache {
 public:
  /// `capacity` entries; 0 disables caching (every lookup misses, nothing
  /// is stored).
  explicit CompiledModelCache(std::size_t capacity);

  /// Looks up by source bytes, whose fnv1a64 the caller passes in so a miss
  /// can reuse it for insert(). A hit refreshes LRU order and counts in
  /// hits(); a miss returns nullptr (the caller compiles and insert()s).
  [[nodiscard]] std::shared_ptr<const CompiledEntry> find_source(
      std::string_view source, std::uint64_t fingerprint);

  /// Looks up by canonical hash (hash-only requests). Also LRU-refreshing.
  [[nodiscard]] std::shared_ptr<const CompiledEntry> find_hash(
      std::uint64_t canonical_hash);

  /// Inserts a freshly compiled entry, evicting the least-recently-used
  /// entry beyond capacity. If an entry with the same fingerprint was
  /// inserted concurrently, the existing one wins (and is returned).
  std::shared_ptr<const CompiledEntry> insert(
      std::shared_ptr<CompiledEntry> entry);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const;
  /// Counters are relaxed atomics so a metrics scrape never blocks on (or
  /// races with) the request path.
  [[nodiscard]] std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t evictions() const noexcept {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::shared_ptr<CompiledEntry> entry;
    std::list<std::uint64_t>::iterator lru_pos;  ///< into lru_, by fingerprint
  };

  void touch(Slot& slot);  // move to MRU; lock held

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  /// Fingerprint → slot. The canonical-hash index aliases the same entries.
  std::unordered_map<std::uint64_t, Slot> by_fingerprint_;
  std::unordered_map<std::uint64_t, std::uint64_t> hash_to_fingerprint_;
  std::list<std::uint64_t> lru_;  ///< front = most recent, back = victim
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace dvf::serve
