// Paper workload mixes (Sec. 5): Get, InsDel, PutHeavy — each as a scalar
// worker and, for DLHT-like maps, a batched variant that drives the
// prefetch-pipelined batch API.
//
// Workers are *factories*: calling one with a thread id yields the closure
// the driver runs, holding that thread's generators and request buffers.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "dlht/dlht.hpp"

namespace dlht {

/// Uniform key-index generator over [0, n).
struct UniformGenerator {
  UniformGenerator(std::uint64_t n, std::uint64_t seed)
      : rng(seed), range(n != 0 ? n : 1) {}
  std::uint64_t next() { return rng.next_below(range); }

  Xoshiro256 rng;
  std::uint64_t range;
};

/// Never-repeating keys above the prepopulated range: thread `tid` of
/// `threads` walks prepopulated+1+tid, +threads, ... so threads never
/// collide and every draw is a never-before-inserted key. The insert+delete
/// benches (Figs 9/10/14/15) pair each fresh key with an immediate erase,
/// so the table's size stays steady while slots keep cycling.
struct FreshKeyGenerator {
  FreshKeyGenerator(std::uint64_t prepopulated, unsigned tid, unsigned threads)
      : next_(prepopulated + 1 + tid),
        stride_(threads != 0 ? threads : 1) {}

  std::uint64_t next() {
    const std::uint64_t k = next_;
    next_ += stride_;
    return k;
  }

  std::uint64_t next_;
  std::uint64_t stride_;
};

namespace workload {

/// Maps exposing DLHT's native surface: scalar get/put/insert/erase plus
/// the two batched entry points. Baselines with their own batching idioms
/// (DRAMHiT reordering, MICA two-stage) intentionally do not satisfy this.
template <class M>
concept DlhtLikeMap =
    requires(M& m, const M& cm, const typename M::Request* rq,
             typename M::Reply* rp, const std::uint64_t* ks, std::uint64_t k) {
      { cm.get(k) };
      { m.put(k, k) };
      { m.insert(k, k) } -> std::convertible_to<bool>;
      { m.erase(k) } -> std::convertible_to<bool>;
      { m.execute_batch(rq, rp, std::size_t{1}) };
      { cm.get_batch(ks, rp, std::size_t{1}) };
    };

/// Keep a result observable without paying for a volatile store per op.
inline void sink(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

/// Keys used by every read/update mix: uniform over the prepopulated set
/// (populate() inserted 1..keys, so draw next()+1).
template <class M>
auto make_get_worker(M& m, std::uint64_t keys, std::uint64_t seed) {
  return [&m, keys, seed](int tid) {
    return [&m, keys,
            gen = UniformGenerator(keys, splitmix64(seed + 0x100u + tid))]()
               mutable -> std::size_t {
      auto v = m.get(gen.next() + 1);
      sink(&v);
      return 1;
    };
  };
}

template <class M>
auto make_get_batch_worker(M& m, std::uint64_t keys, std::size_t batch,
                           std::uint64_t seed) {
  return [&m, keys, batch, seed](int tid) {
    return [&m, keys, batch,
            gen = UniformGenerator(keys, splitmix64(seed + 0x100u + tid)),
            ks = std::vector<std::uint64_t>(batch),
            out = std::vector<typename M::Reply>(batch)]()
               mutable -> std::size_t {
      for (std::size_t i = 0; i < batch; ++i) ks[i] = gen.next() + 1;
      m.get_batch(ks.data(), out.data(), batch);
      sink(out.data());
      return batch;
    };
  };
}

/// Replay variant of the batched-Get worker: the whole key stream is drawn
/// once at setup and batches replay it from a power-of-two ring. Per batch
/// the driver does one pointer bump — no per-key generator work — so the
/// measurement isolates the table's probe pipeline. Same seed => the exact
/// same access sequence, which is what makes per-engine comparisons
/// (micro_ops' probe sweep) apples-to-apples.
template <class M>
auto make_get_batch_replay_worker(M& m, std::uint64_t keys, std::size_t batch,
                                  std::uint64_t seed) {
  constexpr std::size_t kStream = std::size_t{1} << 16;  // keys, pow-2 ring
  return [&m, keys, batch, seed](int tid) {
    std::vector<std::uint64_t> stream(kStream + batch);
    UniformGenerator gen(keys, splitmix64(seed + 0x100u + tid));
    for (auto& k : stream) k = gen.next() + 1;
    return [&m, batch, stream = std::move(stream), pos = std::size_t{0},
            out = std::vector<typename M::Reply>(batch)]()
               mutable -> std::size_t {
      m.get_batch(stream.data() + pos, out.data(), batch);
      sink(out.data());
      pos = (pos + batch) & (kStream - 1);
      return batch;
    };
  };
}

/// InsDel: each thread cycles insert->delete over a private key window above
/// the prepopulated range, so the table size stays steady and every op is a
/// real slot allocation/free (the mix that collapses tombstone designs).
inline constexpr std::uint64_t kInsDelWindow = 4096;

template <class M>
auto make_insdel_worker(M& m, std::uint64_t prepopulated, int /*threads*/) {
  return [&m, prepopulated](int tid) {
    const std::uint64_t base =
        prepopulated + 1 + static_cast<std::uint64_t>(tid) * kInsDelWindow;
    return [&m, base, i = std::uint64_t{0}]() mutable -> std::size_t {
      const std::uint64_t k = base + (i++ & (kInsDelWindow - 1));
      m.insert(k, k);
      m.erase(k);
      return 2;
    };
  };
}

template <class M>
auto make_insdel_batch_worker(M& m, std::uint64_t prepopulated,
                              int /*threads*/, std::size_t batch) {
  return [&m, prepopulated, batch](int tid) {
    const std::uint64_t base =
        prepopulated + 1 + static_cast<std::uint64_t>(tid) * kInsDelWindow;
    return [&m, base, batch, i = std::uint64_t{0},
            reqs = std::vector<typename M::Request>(batch),
            reps = std::vector<typename M::Reply>(batch)]()
               mutable -> std::size_t {
      const std::size_t pairs = batch / 2;
      for (std::size_t p = 0; p < pairs; ++p) {
        const std::uint64_t k = base + (i++ & (kInsDelWindow - 1));
        reqs[2 * p] = {OpType::kInsert, k, k, 0};
        reqs[2 * p + 1] = {OpType::kDelete, k, 0, 0};
      }
      m.execute_batch(reqs.data(), reps.data(), pairs * 2);
      return pairs * 2;
    };
  };
}

/// Hot-set skewed Gets (Fig. 13): `frac` of lookups hit `hot` fixed keys
/// shared by every thread, the rest are uniform over the populated range.
template <class M>
auto make_skewed_get_worker(M& m, std::uint64_t keys, std::uint64_t hot,
                            double frac, std::uint64_t seed) {
  return [&m, keys, hot, frac, seed](int tid) {
    return [&m, gen = HotSetGenerator(keys, hot, frac,
                                      splitmix64(seed + 0x500u + tid))]()
               mutable -> std::size_t {
      auto v = m.get(gen.next() + 1);
      sink(&v);
      return 1;
    };
  };
}

template <class M>
auto make_skewed_get_batch_worker(M& m, std::uint64_t keys, std::uint64_t hot,
                                  double frac, std::size_t batch,
                                  std::uint64_t seed) {
  return [&m, keys, hot, frac, batch, seed](int tid) {
    return [&m, batch,
            gen = HotSetGenerator(keys, hot, frac,
                                  splitmix64(seed + 0x500u + tid)),
            ks = std::vector<std::uint64_t>(batch),
            out = std::vector<typename M::Reply>(batch)]()
               mutable -> std::size_t {
      for (std::size_t i = 0; i < batch; ++i) ks[i] = gen.next() + 1;
      m.get_batch(ks.data(), out.data(), batch);
      sink(out.data());
      return batch;
    };
  };
}

/// PutHeavy: 50 % Get / 50 % Put over the prepopulated keys.
template <class M>
auto make_putheavy_worker(M& m, std::uint64_t keys, std::uint64_t seed) {
  return [&m, keys, seed](int tid) {
    return [&m, keys,
            gen = UniformGenerator(keys, splitmix64(seed + 0x200u + tid)),
            coin = Xoshiro256(splitmix64(seed + 0x300u + tid))]()
               mutable -> std::size_t {
      const std::uint64_t k = gen.next() + 1;
      const std::uint64_t r = coin();
      if (r & 1) {
        auto v = m.get(k);
        sink(&v);
      } else {
        m.put(k, r);
      }
      return 1;
    };
  };
}

template <class M>
auto make_putheavy_batch_worker(M& m, std::uint64_t keys, std::size_t batch,
                                std::uint64_t seed) {
  return [&m, keys, batch, seed](int tid) {
    return [&m, keys, batch,
            gen = UniformGenerator(keys, splitmix64(seed + 0x200u + tid)),
            coin = Xoshiro256(splitmix64(seed + 0x300u + tid)),
            reqs = std::vector<typename M::Request>(batch),
            reps = std::vector<typename M::Reply>(batch)]()
               mutable -> std::size_t {
      for (std::size_t i = 0; i < batch; ++i) {
        const std::uint64_t k = gen.next() + 1;
        const std::uint64_t r = coin();
        reqs[i] = (r & 1) ? typename M::Request{OpType::kGet, k, 0, 0}
                          : typename M::Request{OpType::kPut, k, r, 0};
      }
      m.execute_batch(reqs.data(), reps.data(), batch);
      sink(reps.data());
      return batch;
    };
  };
}

}  // namespace workload
}  // namespace dlht
