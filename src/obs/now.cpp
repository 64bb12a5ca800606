#include "obs/now.hpp"

#include <chrono>

namespace ictm::obs {

std::uint64_t Now() {
  const auto sinceEpoch = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(sinceEpoch)
          .count());
}

}  // namespace ictm::obs
