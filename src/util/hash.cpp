#include "util/hash.hpp"

namespace rfsm {

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;  // the FNV 64-bit prime
  }
  return hash;
}

std::uint64_t fnv1a64(std::uint64_t value, std::uint64_t hash) {
  char bytes[8];
  for (int k = 0; k < 8; ++k) bytes[k] = static_cast<char>(value >> (8 * k));
  return fnv1a64(std::string_view(bytes, sizeof bytes), hash);
}

}  // namespace rfsm
