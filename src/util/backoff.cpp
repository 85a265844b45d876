#include "util/backoff.hpp"

#include <algorithm>
#include <cstdint>

#include "util/check.hpp"
#include "util/hash.hpp"

namespace rfsm {

std::chrono::milliseconds backoffDelay(int attempt,
                                       std::chrono::milliseconds base,
                                       std::chrono::milliseconds cap,
                                       double jitter01) {
  RFSM_CHECK(attempt >= 1, "backoff attempts are 1-based");
  // Saturating shift: attempt is small in practice, but a caller-supplied
  // maxAttempts must not overflow the multiplier.
  const int shift = std::min(attempt - 1, 20);
  auto delay = base * (1 << shift);
  if (delay > cap) delay = cap;
  delay += std::chrono::milliseconds(
      static_cast<long>(jitter01 * static_cast<double>(base.count())));
  return std::min(delay, cap + base);
}

double saltedJitter(std::string_view salt, int attempt) {
  const std::uint64_t hash =
      fnv1a64(static_cast<std::uint64_t>(attempt), fnv1a64(salt));
  return static_cast<double>(hash >> 11) * 0x1.0p-53;
}

}  // namespace rfsm
