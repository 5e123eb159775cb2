// Figure 9: varying the value size (8 B ... 1.5 KB), Allocator mode.
//
// Values live out-of-line in PoolAllocator size-class blocks
// (Options::fixed_value_size picks the class); the table slot stores the
// block pointer. Workloads: Get (returns the pointer only — barely
// affected by value size), Get-Access (reads the whole value through the
// pointer — drops fast with size), InsDel (pays a growing allocation+copy
// per insert — declines gently).
//
// The rows are the sweep; the shape checks compare the 8 B and 1.5 KB
// tables in interleaved slices (bench::interleaved_mops), so host drift
// hits both ends alike.
#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>

#include "bench_maps.hpp"

using namespace dlht;
using namespace dlht::bench;

namespace {

// Get: resolve 64 keys to their block pointers, never read the blobs.
auto get_worker(AllocatorMap<>& m, std::uint64_t keys, int tid) {
  return [&m, gen = UniformGenerator(keys, splitmix64(tid + 1))]() mutable {
    std::uint64_t hits = 0;
    for (int i = 0; i < 64; ++i) {
      hits += m.get_ptr(gen.next() + 1) != nullptr;
    }
    workload::sink(&hits);
    return std::size_t{64};
  };
}

// Get-Access: additionally read every cache line of each value. No erases
// run in this phase, so dereferencing outside a pin is safe; the pin()
// guard shows the idiom real readers need under churn.
auto access_worker(AllocatorMap<>& m, std::uint64_t keys, std::size_t vsize,
                   int tid) {
  return [&m, gen = UniformGenerator(keys, splitmix64(tid + 9)),
          vsize]() mutable {
    auto pin = m.pin();
    std::uint64_t sum = 0;
    for (int i = 0; i < 64; ++i) {
      const char* p = m.get_ptr(gen.next() + 1);
      if (p != nullptr) {
        for (std::size_t off = 0; off < vsize; off += 64) sum += p[off];
      }
    }
    workload::sink(&sum);
    return std::size_t{64};
  };
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse_args(argc, argv);
  args.keys = std::min<std::uint64_t>(args.keys, 1u << 19);  // blobs are big
  const std::uint64_t keys = args.keys;
  const int threads = args.threads_list.back();
  const double secs = args.seconds();
  print_header("fig09", "throughput vs value size (Allocator mode)");

  constexpr std::size_t kFirst = 8, kLast = 1536;
  std::unique_ptr<AllocatorMap<>> first, last;  // kept for the shape checks

  for (const std::size_t vsize : {kFirst, std::size_t{16}, std::size_t{64},
                                  std::size_t{256}, std::size_t{1024},
                                  kLast}) {
    Options opts = dlht_options(keys);
    opts.fixed_value_size = vsize;
    auto owned = std::make_unique<AllocatorMap<>>(opts);
    AllocatorMap<>& m = *owned;
    std::vector<char> blob(vsize, 'v');
    for (std::uint64_t k = 1; k <= keys; ++k) {
      m.insert(k, blob.data(), vsize);
    }

    const double g = run_tput(threads, secs, [&m, keys](int tid) {
      return get_worker(m, keys, tid);
    });
    print_row("fig09", "Get", static_cast<double>(vsize), g, "Mreq/s");

    const double a = run_tput(threads, secs, [&m, keys, vsize](int tid) {
      return access_worker(m, keys, vsize, tid);
    });
    print_row("fig09", "Get-Access", static_cast<double>(vsize), a, "Mreq/s");

    // InsDel on fresh keys: one vsize-block allocation + copy per insert,
    // one epoch retirement per erase.
    const double d = run_tput(threads, secs,
                              [&m, keys, &blob, vsize, threads](int tid) {
      return [&m, gen = FreshKeyGenerator(keys, (unsigned)tid,
                                          (unsigned)threads),
              &blob, vsize]() mutable {
        for (int i = 0; i < 32; ++i) {
          const std::uint64_t k = gen.next();
          m.insert(k, blob.data(), vsize);
          m.erase(k);
        }
        return std::uint64_t{64};
      };
    });
    print_row("fig09", "InsDel", static_cast<double>(vsize), d, "Mreq/s");
    m.quiesce();
    if (vsize == kFirst) first = std::move(owned);
    if (vsize == kLast) last = std::move(owned);
  }

  std::vector<std::function<std::size_t()>> workers = {
      get_worker(*first, keys, 0), get_worker(*last, keys, 0),
      access_worker(*first, keys, kFirst, 0),
      access_worker(*last, keys, kLast, 0)};
  const std::vector<double> p = interleaved_mops(workers, secs);
  std::printf("# paired slices (Mreq/s): Get %.2f -> %.2f, Get-Access "
              "%.2f -> %.2f (8 B -> 1536 B)\n",
              p[0], p[1], p[2], p[3]);
  check_shape("Get nearly flat across value sizes (pointer API)",
              p[1] > p[0] * 0.5);
  check_shape("Get-Access drops much faster than Get",
              p[3] / p[2] < p[1] / p[0]);
  return 0;
}
