#include "dvf/serve/cache.hpp"

#include <utility>

namespace dvf::serve {

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

CompiledModelCache::CompiledModelCache(std::size_t capacity)
    : capacity_(capacity) {}

void CompiledModelCache::touch(Slot& slot) {
  lru_.splice(lru_.begin(), lru_, slot.lru_pos);
}

std::shared_ptr<const CompiledEntry> CompiledModelCache::find_source(
    std::string_view source, std::uint64_t fingerprint) {
  if (capacity_ == 0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = by_fingerprint_.find(fingerprint);
  if (it == by_fingerprint_.end() || it->second.entry->source != source) {
    // A fingerprint collision with different bytes is a miss, never a
    // wrong answer.
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  touch(it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second.entry;
}

std::shared_ptr<const CompiledEntry> CompiledModelCache::find_hash(
    std::uint64_t canonical_hash) {
  if (capacity_ == 0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto hash_it = hash_to_fingerprint_.find(canonical_hash);
  if (hash_it == hash_to_fingerprint_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  const auto it = by_fingerprint_.find(hash_it->second);
  if (it == by_fingerprint_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  touch(it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second.entry;
}

std::shared_ptr<const CompiledEntry> CompiledModelCache::insert(
    std::shared_ptr<CompiledEntry> entry) {
  if (capacity_ == 0) {
    return entry;  // caching disabled: hand the caller its own entry back
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = by_fingerprint_.find(entry->source_fingerprint);
      it != by_fingerprint_.end()) {
    // A concurrent request compiled the same source first; keep theirs so
    // both requests share one entry.
    touch(it->second);
    return it->second.entry;
  }
  while (by_fingerprint_.size() >= capacity_) {
    const std::uint64_t victim = lru_.back();
    lru_.pop_back();
    const auto it = by_fingerprint_.find(victim);
    if (it != by_fingerprint_.end()) {
      const auto hash_it =
          hash_to_fingerprint_.find(it->second.entry->canonical_hash);
      if (hash_it != hash_to_fingerprint_.end() &&
          hash_it->second == victim) {
        hash_to_fingerprint_.erase(hash_it);
      }
      by_fingerprint_.erase(it);
    }
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  lru_.push_front(entry->source_fingerprint);
  // Two distinct sources can share one canonical hash (the hash identifies
  // programs up to DVF-equivalence); the newest insertion owns the hash key.
  hash_to_fingerprint_[entry->canonical_hash] = entry->source_fingerprint;
  by_fingerprint_[entry->source_fingerprint] =
      Slot{entry, lru_.begin()};
  return entry;
}

std::size_t CompiledModelCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return by_fingerprint_.size();
}

}  // namespace dvf::serve
