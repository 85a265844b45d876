// 64-bit FNV-1a: the one copy behind the journal commit chain, the session
// WAL/snapshot trailers, the reconnect backoff jitter and the chaos
// journal digest.
#pragma once

#include <cstdint>
#include <string_view>

namespace rfsm {

/// The FNV-1a 64-bit offset basis (the hash of no bytes).
inline constexpr std::uint64_t kFnv1a64Basis = 0xcbf29ce484222325ull;

/// FNV-1a over `bytes`, continuing from `hash`: feeding a previous result
/// back in hashes several pieces as one byte stream.
std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t hash = kFnv1a64Basis);

/// FNV-1a over the 8 little-endian bytes of `value`, continuing from `hash`.
std::uint64_t fnv1a64(std::uint64_t value, std::uint64_t hash);

}  // namespace rfsm
