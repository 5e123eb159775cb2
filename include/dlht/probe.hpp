// Probe-strategy layer: every bucket/link-chain probe in the table funnels
// through the helpers in this header, so slot matching is a pluggable,
// measurable component instead of logic inlined into dlht.hpp.
//
// Three engines share one contract — "given a header word (and, batched,
// eight of them) plus a lookup fingerprint, return the candidate slots" —
// and differ only in how many headers they match per instruction:
//
//   kSwar    portable baseline: one XOR + zero-byte trick over the 24
//            fingerprint bits of a single header word. No ISA requirement;
//            this path must always exist (portability CI, non-x86 hosts,
//            and the scalar fallback lanes of the SIMD pipeline).
//   kAvx2    batched pipeline only: 8 prefetched headers are matched at
//            once — broadcast each lookup fingerprint across its lane,
//            _mm256_cmpeq_epi8 against the header bytes, fold in the
//            valid-state test in vector registers, movemask to per-key
//            candidate bitsets. Link-chain scans vectorize the same way
//            because chained lanes re-enter the next 8-wide sweep.
//   kAvx512  same shape in one 512-bit register with a mask-register
//            compare (_mm512_cmpeq_epi8_mask), for hosts with AVX-512BW.
//
// Dispatch is by cpuid at *table construction* (Options::probe_strategy),
// never per probe: DLHT resolves auto -> best-supported once and the batched
// path branches on the resolved kind per 8-header group. Requesting a SIMD
// kind on a host without it resolves to kSwar — the core never fails for
// lack of an ISA; the bench layer is where an explicit --probe=avx2 on a
// non-AVX2 host becomes a hard error (mislabeled numbers are worse than no
// numbers).
//
// The SIMD kernels carry function-level target attributes, so this header
// builds with a baseline -march and one binary runs on any x86-64 host
// (CMake no longer passes -march=native unless DLHT_NATIVE=1 opts in).
//
// Fingerprints: fp_of(h) mixes the two topmost hash bytes (h>>48 ^ h>>56).
// The bucket index comes from the *low* hash bits, so the fingerprint byte
// range stays disjoint from the bin selector for any table below 2^48 bins
// — within one bucket, candidates are an unbiased 1/256 filter instead of
// aliasing the index. dlht_test asserts the false-positive rate empirically
// (< 2/256 per probe at 1M keys).
#pragma once

#include <cstdint>

#include "dlht/bucket.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define DLHT_PROBE_X86_SIMD 1
#include <immintrin.h>
#else
#define DLHT_PROBE_X86_SIMD 0
#endif

namespace dlht {

/// Which probe engine a table uses (Options::probe_strategy). kAuto picks
/// the best the host supports at construction; explicit SIMD kinds fall
/// back to kSwar when unsupported (see probe::resolve).
enum class ProbeStrategy : std::uint8_t {
  kAuto = 0,
  kSwar,
  kAvx2,
  kAvx512,
};

namespace probe {

inline const char* name(ProbeStrategy s) {
  switch (s) {
    case ProbeStrategy::kAuto:
      return "auto";
    case ProbeStrategy::kSwar:
      return "swar";
    case ProbeStrategy::kAvx2:
      return "avx2";
    case ProbeStrategy::kAvx512:
      return "avx512";
  }
  return "?";
}

/// True when the running CPU can execute the given engine. kSwar (and
/// kAuto, which always has somewhere to land) are unconditionally true.
inline bool host_supports(ProbeStrategy s) {
  switch (s) {
    case ProbeStrategy::kAuto:
    case ProbeStrategy::kSwar:
      return true;
    case ProbeStrategy::kAvx2:
#if DLHT_PROBE_X86_SIMD
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case ProbeStrategy::kAvx512:
#if DLHT_PROBE_X86_SIMD
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0;
#else
      return false;
#endif
  }
  return false;
}

/// Construction-time dispatch: auto picks the widest supported engine; an
/// explicit request is honored when the host can run it and degrades to
/// SWAR when it cannot (the core always works; benches refuse instead).
inline ProbeStrategy resolve(ProbeStrategy requested) {
  if (requested == ProbeStrategy::kAuto) {
    if (host_supports(ProbeStrategy::kAvx512)) return ProbeStrategy::kAvx512;
    if (host_supports(ProbeStrategy::kAvx2)) return ProbeStrategy::kAvx2;
    return ProbeStrategy::kSwar;
  }
  return host_supports(requested) ? requested : ProbeStrategy::kSwar;
}

/// Slot fingerprint for a hash: the two topmost bytes mixed together —
/// disjoint from the low bits that pick the bucket (see header comment).
constexpr std::uint8_t fp_of(std::uint64_t h) {
  return static_cast<std::uint8_t>((h >> 48) ^ (h >> 56));
}

// ------------------------------------------------------ SWAR baseline
//
// Every helper returns a byte-stride mask: bit 8i+7 set <=> slot i, so
// kSlotMask holds all three slots. Callers peel slots with
// `__builtin_ctz(mask) >> 3` — the zero-byte test yields this form
// directly, so the scalar Get loop never pays to compress it.

inline constexpr std::uint32_t kSlotMask = 0x808080u;

/// Slots whose header fingerprint byte equals fp (state ignored): one XOR
/// + zero-byte test matches all three fingerprints branch-free. The result
/// is a superset of the exact matches — the subtraction's borrow can also
/// flag the byte just above a match — so callers confirm every candidate
/// with a full-key compare.
constexpr std::uint32_t fp_matches(std::uint64_t header, std::uint8_t fp) {
  const std::uint32_t fps = static_cast<std::uint32_t>(header) & 0xffffffu;
  const std::uint32_t x = fps ^ (0x010101u * fp);
  return (x - 0x010101u) & ~x & kSlotMask;
}

namespace detail {
// The 2-bit slot states live at header bits [24..29]; callers reduce them
// to one flag per slot at bit 2i, which this moves to bit 8i+7.
constexpr std::uint32_t spread_states(std::uint32_t bits2i) {
  return ((bits2i & 1u) << 7) | ((bits2i & 4u) << 13) | ((bits2i & 16u) << 19);
}
}  // namespace detail

/// Slots in state kValid (2-bit state == 01): readable by Gets.
constexpr std::uint32_t valid_slots(std::uint64_t header) {
  const std::uint32_t st = static_cast<std::uint32_t>(header >> 24) & 0x3fu;
  return detail::spread_states(st & ~(st >> 1) & 0x15u);
}

/// Slots in state kShadow (== 10): reserved, not yet visible to Gets.
constexpr std::uint32_t shadow_slots(std::uint64_t header) {
  const std::uint32_t st = static_cast<std::uint32_t>(header >> 24) & 0x3fu;
  return detail::spread_states((st >> 1) & ~st & 0x15u);
}

/// Slots holding an entry in either state (valid or shadow).
constexpr std::uint32_t occupied_slots(std::uint64_t header) {
  const std::uint32_t st = static_cast<std::uint32_t>(header >> 24) & 0x3fu;
  return detail::spread_states((st | (st >> 1)) & 0x15u);
}

/// Fingerprint matches restricted to readable (kValid) slots — the Get
/// probe's candidate set.
constexpr std::uint32_t match_valid(std::uint64_t header, std::uint8_t fp) {
  return fp_matches(header, fp) & valid_slots(header);
}

// --------------------------------------------------- SIMD batch kernels
//
// Contract: given 8 header words in one vector register plus 8 lookup
// fingerprints packed into one uint64 (byte j = lane j's fp), return a
// packed mask holding lane j's candidate slots — the exact-match subset of
// match_valid(header j, fp j) — as a 3-bit set (bit i = slot i) at a
// per-lane stride of 4 bits (AVX2) or 8 bits (AVX-512); the caller peels
// lane j with `(mask >> stride*j) & 7`. The batched sweep gathers the
// headers as scalar loads and builds the register from them (see the AVX2
// note on why not from a stack array), and moves the fp word straight into
// a vector register — no byte-array round-trips on either side.
// Lock/migrated bits do NOT affect the result (they live in state-byte
// bits the kernels mask off); callers must check them per lane before
// trusting a candidate set, exactly as the scalar path does.

#if DLHT_PROBE_X86_SIMD

/// AVX2 kernel. Matching only reads the low 32 bits of each header (3 fp
/// bytes + the state byte), so all eight lanes fit one ymm: hlo's dword j
/// = low dword of header j. Returns lane j's candidates at bits
/// [4j..4j+2], the layout vpmovmskb naturally yields here. Callers pack
/// dword pairs from headers held in scalar registers (pack_lo_pair) and
/// build hlo with _mm256_set_epi64x — routing the headers through a stack
/// array invites the compiler to coalesce the reads into one 32B load over
/// eight 8B stores, which store-forwarding cannot satisfy (~20 stall
/// cycles per group, silently eating the kernel's whole advantage).
__attribute__((target("avx2"))) inline std::uint32_t match_valid_x8v_avx2(
    __m256i hlo, std::uint64_t fps) {
  // Dword j of fv: lane j's fp in bytes 0-2, zero in byte 3. The broadcast
  // puts all 8 fp bytes in both 128-bit halves, so one shuffle control
  // (low half picks bytes 0-3, high half 4-7) fans them out.
  const __m256i fall = _mm256_broadcastq_epi64(
      _mm_cvtsi64_si128(static_cast<long long>(fps)));
  const __m256i fctl = _mm256_setr_epi8(
      0, 0, 0, -0x80, 1, 1, 1, -0x80, 2, 2, 2, -0x80, 3, 3, 3, -0x80,  //
      4, 4, 4, -0x80, 5, 5, 5, -0x80, 6, 6, 6, -0x80, 7, 7, 7, -0x80);
  const __m256i eq = _mm256_cmpeq_epi8(hlo, _mm256_shuffle_epi8(fall, fctl));
  // Valid-state bytes: replicate each lane's state byte (byte 3 of its
  // dword) across bytes 0-2, isolate slot i's 2-bit state in byte i, and
  // compare against the kValid pattern. Byte 3 compares a masked-to-zero
  // value against 0x80, so it can never survive into the mask (it would
  // otherwise match when an empty unlocked header's state byte is 0).
  const __m256i sctl = _mm256_setr_epi8(
      3, 3, 3, -0x80, 7, 7, 7, -0x80, 11, 11, 11, -0x80, 15, 15, 15, -0x80,
      3, 3, 3, -0x80, 7, 7, 7, -0x80, 11, 11, 11, -0x80, 15, 15, 15, -0x80);
  const __m256i bitsel = _mm256_setr_epi8(
      0x03, 0x0c, 0x30, 0, 0x03, 0x0c, 0x30, 0, 0x03, 0x0c, 0x30, 0,  //
      0x03, 0x0c, 0x30, 0, 0x03, 0x0c, 0x30, 0, 0x03, 0x0c, 0x30, 0,  //
      0x03, 0x0c, 0x30, 0, 0x03, 0x0c, 0x30, 0);
  const __m256i vpat = _mm256_setr_epi8(
      0x01, 0x04, 0x10, -0x80, 0x01, 0x04, 0x10, -0x80,  //
      0x01, 0x04, 0x10, -0x80, 0x01, 0x04, 0x10, -0x80,  //
      0x01, 0x04, 0x10, -0x80, 0x01, 0x04, 0x10, -0x80,  //
      0x01, 0x04, 0x10, -0x80, 0x01, 0x04, 0x10, -0x80);
  const __m256i st = _mm256_shuffle_epi8(hlo, sctl);
  const __m256i va = _mm256_cmpeq_epi8(_mm256_and_si256(st, bitsel), vpat);
  return static_cast<std::uint32_t>(
      _mm256_movemask_epi8(_mm256_and_si256(eq, va)));
}

/// Pack the low dwords of two headers for match_valid_x8v_avx2's input.
constexpr std::uint64_t pack_lo_pair(std::uint64_t even, std::uint64_t odd) {
  return (even & 0xffffffffu) | (odd << 32);
}

/// AVX-512 kernel: the same match over whole headers in one zmm (qword j
/// = header j), returning lane j's candidates at bits [8j..8j+2].
__attribute__((target("avx512f,avx512bw"))) inline std::uint64_t
match_valid_x8v_avx512(__m512i h, std::uint64_t fps) {
  alignas(64) static constexpr std::uint8_t kFctl[64] = {
      0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1,  //
      2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3,  //
      4, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5,  //
      6, 6, 6, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7, 7, 7, 7};
  alignas(64) static constexpr std::uint8_t kSctl[64] = {
      3, 3, 3, 3, 3, 3, 3, 3, 11, 11, 11, 11, 11, 11, 11, 11,  //
      3, 3, 3, 3, 3, 3, 3, 3, 11, 11, 11, 11, 11, 11, 11, 11,  //
      3, 3, 3, 3, 3, 3, 3, 3, 11, 11, 11, 11, 11, 11, 11, 11,  //
      3, 3, 3, 3, 3, 3, 3, 3, 11, 11, 11, 11, 11, 11, 11, 11};
  alignas(64) static constexpr std::uint8_t kBitsel[64] = {
      0x03, 0x0c, 0x30, 0, 0, 0, 0, 0, 0x03, 0x0c, 0x30, 0, 0, 0, 0, 0,  //
      0x03, 0x0c, 0x30, 0, 0, 0, 0, 0, 0x03, 0x0c, 0x30, 0, 0, 0, 0, 0,  //
      0x03, 0x0c, 0x30, 0, 0, 0, 0, 0, 0x03, 0x0c, 0x30, 0, 0, 0, 0, 0,  //
      0x03, 0x0c, 0x30, 0, 0, 0, 0, 0, 0x03, 0x0c, 0x30, 0, 0, 0, 0, 0};
  alignas(64) static constexpr std::uint8_t kVpat[64] = {
      0x01, 0x04, 0x10, 0x80, 0x80, 0x80, 0x80, 0x80,  //
      0x01, 0x04, 0x10, 0x80, 0x80, 0x80, 0x80, 0x80,  //
      0x01, 0x04, 0x10, 0x80, 0x80, 0x80, 0x80, 0x80,  //
      0x01, 0x04, 0x10, 0x80, 0x80, 0x80, 0x80, 0x80,  //
      0x01, 0x04, 0x10, 0x80, 0x80, 0x80, 0x80, 0x80,  //
      0x01, 0x04, 0x10, 0x80, 0x80, 0x80, 0x80, 0x80,  //
      0x01, 0x04, 0x10, 0x80, 0x80, 0x80, 0x80, 0x80,  //
      0x01, 0x04, 0x10, 0x80, 0x80, 0x80, 0x80, 0x80};
  const __m512i fv = _mm512_shuffle_epi8(
      _mm512_broadcastq_epi64(_mm_cvtsi64_si128(static_cast<long long>(fps))),
      _mm512_load_si512(kFctl));
  const __mmask64 eq = _mm512_cmpeq_epi8_mask(h, fv);
  const __m512i st = _mm512_shuffle_epi8(h, _mm512_load_si512(kSctl));
  const __mmask64 va = _mm512_cmpeq_epi8_mask(
      _mm512_and_si512(st, _mm512_load_si512(kBitsel)),
      _mm512_load_si512(kVpat));
  return static_cast<std::uint64_t>(eq & va);
}

#endif  // DLHT_PROBE_X86_SIMD

}  // namespace probe
}  // namespace dlht
