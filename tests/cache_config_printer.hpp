// gtest printer for CacheConfig. Parameterized suites name each case by the
// cache's name and geometry (CA x NA x CL) instead of a byte dump of the
// object, which holds a heap pointer and so differs from run to run.
#pragma once

#include <ostream>

#include "dvf/machine/cache_config.hpp"

namespace dvf {

inline void PrintTo(const CacheConfig& config, std::ostream* os) {
  *os << config.name() << "_" << config.associativity() << "x"
      << config.num_sets() << "x" << config.line_bytes() << "B";
}

}  // namespace dvf
