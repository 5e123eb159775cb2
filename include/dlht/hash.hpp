// Hash functions used by DLHT and the baselines: XxMixHash for 8-byte
// keys, wyhash_bytes for variable-size keys.
//
// The table consumes a full 64-bit hash: low bits pick the bin, the top
// byte is the 8-bit fingerprint stored in the bucket header. XxMixHash is
// stateless and cheap to construct at call sites.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace dlht {

/// 128-bit multiply folding, the core of wyhash.
inline std::uint64_t wymix(std::uint64_t a, std::uint64_t b) {
  const unsigned __int128 r =
      static_cast<unsigned __int128>(a) * static_cast<unsigned __int128>(b);
  return static_cast<std::uint64_t>(r) ^ static_cast<std::uint64_t>(r >> 64);
}

/// xxhash64 avalanche with one extra multiply for short-key quality.
struct XxMixHash {
  std::uint64_t operator()(std::uint64_t k) const {
    k *= 0x9e3779b185ebca87ull;
    k ^= k >> 29;
    k *= 0x165667b19e3779f9ull;
    k ^= k >> 32;
    return k;
  }
};

/// Smallest power of two >= n (and >= 1). Tables round their bin count up
/// so the bin index is a mask of the hash's low bits.
inline std::size_t ceil_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Byte-string wyhash used for variable-size keys (Fig. 10 workloads).
inline std::uint64_t wyhash_bytes(const void* data, std::size_t len,
                                  std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed ^ wymix(len, 0xa0761d6478bd642full);
  while (len >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    h = wymix(h ^ w, 0xe7037ed1a0b428dbull);
    p += 8;
    len -= 8;
  }
  if (len > 0) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, len);
    h = wymix(h ^ w, 0x8ebc6af09c88c6e3ull);
  }
  return wymix(h, h ^ 0x589965cc75374cc3ull);
}

}  // namespace dlht
