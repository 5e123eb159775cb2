// Atomic primitives on raw bucket words: the header CAS and the loads and
// stores around it (lock cmpxchg and plain movs on x86-64).
//
// The table deliberately stores plain std::uint64_t words (not std::atomic)
// so the same bucket bytes can be read optimistically and CASed, and so
// tests can build headers as plain words.
#pragma once

#include <cstdint>

namespace dlht {

/// One key/value pair. 16 bytes so a 64-byte bucket holds three of them
/// next to an 8-byte header and a 4-byte link.
struct Slot {
  std::uint64_t key;
  std::uint64_t value;
};
static_assert(sizeof(Slot) == 16, "Slot must be two words");

struct Sync {
  static bool cas(std::uint64_t* p, std::uint64_t expected,
                  std::uint64_t desired) {
    return __atomic_compare_exchange_n(p, &expected, desired,
                                       /*weak=*/false, __ATOMIC_ACQ_REL,
                                       __ATOMIC_ACQUIRE);
  }

  static std::uint64_t load_acquire(const std::uint64_t* p) {
    return __atomic_load_n(p, __ATOMIC_ACQUIRE);
  }
  static void store_release(std::uint64_t* p, std::uint64_t v) {
    __atomic_store_n(p, v, __ATOMIC_RELEASE);
  }
  static std::uint64_t load_relaxed(const std::uint64_t* p) {
    return __atomic_load_n(p, __ATOMIC_RELAXED);
  }
  static void store_relaxed(std::uint64_t* p, std::uint64_t v) {
    __atomic_store_n(p, v, __ATOMIC_RELAXED);
  }
};

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  __atomic_thread_fence(__ATOMIC_SEQ_CST);
#endif
}

}  // namespace dlht
