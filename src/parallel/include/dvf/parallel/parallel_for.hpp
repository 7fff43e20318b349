// parallel_for on top of ThreadPool.
//
// Determinism contract: a body that derives its state from the index and
// writes only its own index's slot produces results that depend only on
// the index space — never on the thread count or on which thread ran which
// chunk.
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>

#include "dvf/parallel/thread_pool.hpp"

namespace dvf::parallel {

/// Runs body(index) — or body(index, slot) — for every index in
/// [0, count) on `pool`. Order across threads is unspecified; with a
/// 1-slot pool the indices run in ascending order on the caller.
template <typename Body>
void parallel_for(ThreadPool& pool, std::uint64_t count, Body&& body,
                  std::uint64_t grain = 1) {
  const std::function<void(std::uint64_t, unsigned)> wrapped =
      [&body](std::uint64_t index, unsigned slot) {
        if constexpr (std::is_invocable_v<Body&, std::uint64_t, unsigned>) {
          body(index, slot);
        } else {
          body(index);
        }
      };
  pool.for_each(count, grain, wrapped);
}

}  // namespace dvf::parallel
