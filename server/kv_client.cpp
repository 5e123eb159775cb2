// kv_client — closed-loop load generator for dlht_server.
//
//   kv_client --connect unix:/tmp/dlht.sock --keys 65536 --ms 300 \
//             --threads-list 1,2 --batch 32 [--json out.json]
//
// Each client thread owns one pipelined connection (server/client.hpp
// implements the table's own batch surface) and cycles the paper's mixed
// workload — batched Get, PutHeavy, InsDel — through the standard
// workload/ factories, so the network bench reuses byte-for-byte the mixes
// the in-process figures run. run_for's closed-loop latency mode times
// each batch round trip; rows go through the usual print_row/--json sink
// as figure "kv_server" (BENCH_kv_server.json in the perf trajectory).
//
// After the sweep the client audits the table end-to-end: every
// prepopulated key present, every InsDel scratch window empty, and the
// server's count matching exactly — zero lost, zero duplicated/invented
// keys across everything the network layer batched. Audit failure is the
// process exit status.
//
// A --connect SPEC other than unix:PATH or HOST:PORT refuses with exit 2.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "server/client.hpp"
#include "server/server.hpp"  // KvServer::kMaxBatch, the --batch cap
#include "workload/driver.hpp"
#include "workload/mixes.hpp"

namespace {

using dlht::OpType;
using dlht::Status;
using dlht::server::KvClient;

/// Bulk-load keys 1..keys (value = key, matching workload::populate) over
/// one connection in pipelined chunks. False on any failed insert.
bool populate_remote(KvClient& c, std::uint64_t keys) {
  constexpr std::size_t kChunk = 256;
  std::vector<KvClient::Request> reqs(kChunk);
  std::vector<KvClient::Reply> reps(kChunk);
  std::uint64_t k = 1;
  while (k <= keys) {
    std::size_t n = 0;
    for (; n < kChunk && k <= keys; ++n, ++k) {
      reqs[n] = {OpType::kInsert, k, k, 0};
    }
    c.execute_batch(reqs.data(), reps.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      if (reps[i].status != Status::kOk && reps[i].status != Status::kExists) {
        std::fprintf(stderr, "kv_client: populate failed at key %" PRIu64 "\n",
                     reqs[i].key);
        return false;
      }
    }
  }
  return true;
}

/// End-to-end audit over a fresh connection (traffic quiescent): every
/// prepopulated key present, every InsDel scratch window empty, server
/// count exact. Returns the number of violations.
std::uint64_t audit_remote(KvClient& c, std::uint64_t keys, int max_threads) {
  std::uint64_t failures = 0;
  constexpr std::size_t kChunk = 512;
  std::vector<std::uint64_t> ks(kChunk);
  std::vector<KvClient::Reply> reps(kChunk);
  std::uint64_t lost = 0;
  for (std::uint64_t k = 1; k <= keys;) {
    std::size_t n = 0;
    for (; n < kChunk && k <= keys; ++n, ++k) ks[n] = k;
    c.get_batch(ks.data(), reps.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      if (reps[i].status != Status::kOk) ++lost;
    }
  }
  std::uint64_t leftover = 0;
  for (int tid = 0; tid < max_threads; ++tid) {
    const std::uint64_t base = keys + 1 +
                               static_cast<std::uint64_t>(tid) *
                                   dlht::workload::kInsDelWindow;
    for (std::uint64_t w = 0; w < dlht::workload::kInsDelWindow;) {
      std::size_t n = 0;
      for (; n < kChunk && w < dlht::workload::kInsDelWindow; ++n, ++w) {
        ks[n] = base + w;
      }
      c.get_batch(ks.data(), reps.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        if (reps[i].status == Status::kOk) ++leftover;
      }
    }
  }
  const std::int64_t count = c.count();
  dlht::bench::check_shape("audit: zero lost prepopulated keys", lost == 0);
  dlht::bench::check_shape("audit: InsDel scratch windows empty",
                           leftover == 0);
  dlht::bench::check_shape("audit: server count matches exactly (no dup/"
                           "invented keys)",
                           count == static_cast<std::int64_t>(keys));
  if (lost != 0) {
    std::fprintf(stderr, "kv_client: audit LOST %" PRIu64 " keys\n", lost);
    failures += lost;
  }
  if (leftover != 0) {
    std::fprintf(stderr, "kv_client: audit %" PRIu64 " scratch leftovers\n",
                 leftover);
    failures += leftover;
  }
  if (count != static_cast<std::int64_t>(keys)) {
    std::fprintf(stderr,
                 "kv_client: audit count=%lld expected=%" PRIu64
                 " (dup/invented/lost)\n",
                 static_cast<long long>(count), keys);
    ++failures;
  }
  return failures;
}

int run_bench(const dlht::bench::Args& a, const std::string& connect,
              std::size_t batch, std::uint64_t seed) {
  using namespace dlht::bench;
  using namespace dlht::workload;

  {
    KvClient boot;
    if (!boot.connect(connect)) return 1;
    if (!populate_remote(boot, a.keys)) return 1;
    const std::int64_t n = boot.count();
    if (n != static_cast<std::int64_t>(a.keys)) {
      std::fprintf(stderr,
                   "kv_client: populate count=%lld expected=%" PRIu64 "\n",
                   static_cast<long long>(n), a.keys);
      return 1;
    }
  }

  print_header("kv_server",
               "network KV node over DLHT: mixed Get/PutHeavy/InsDel, "
               "pipelined batches, closed-loop RTT");
  std::printf("# connect=%s client-batch=%zu\n", connect.c_str(), batch);

  int max_threads = 1;
  for (const int t : a.threads_list) {
    if (t > max_threads) max_threads = t;
  }

  bool latency_sane = true;
  for (const int t : a.threads_list) {
    std::vector<std::unique_ptr<KvClient>> clients;
    clients.reserve(static_cast<std::size_t>(t));
    for (int i = 0; i < t; ++i) {
      auto c = std::make_unique<KvClient>();
      if (!c->connect(connect)) return 1;
      clients.push_back(std::move(c));
    }
    RunSpec spec;
    spec.threads = t;
    spec.seconds = a.seconds();
    spec.measure_latency = true;
    const std::uint64_t keys = a.keys;
    const bool with_insdel = batch >= 2;
    const auto r = run_for(spec, [&](int tid) {
      KvClient& c = *clients[static_cast<std::size_t>(tid)];
      auto get = make_get_batch_worker(c, keys, batch, seed)(tid);
      auto ph = make_putheavy_batch_worker(c, keys, batch, seed)(tid);
      auto ins = make_insdel_batch_worker(c, keys, t, batch)(tid);
      return [get = std::move(get), ph = std::move(ph),
              ins = std::move(ins), with_insdel,
              phase = 0]() mutable -> std::size_t {
        const int p = phase++ % (with_insdel ? 3 : 2);
        if (p == 0) return get();
        if (p == 1) return ph();
        return ins();
      };
    });
    print_row("kv_server", "mixed/tput", t, r.mreqs_per_sec, "Mreq/s");
    print_row("kv_server", "rtt/p50", t, static_cast<double>(r.p50_ns), "ns");
    print_row("kv_server", "rtt/p99", t, static_cast<double>(r.p99_ns), "ns");
    if (!(r.p50_ns > 0 && r.p99_ns >= r.p50_ns)) latency_sane = false;
    // clients destruct here: connections close, the server quiesces.
  }
  check_shape("closed-loop p50/p99 finite and ordered", latency_sane);

  KvClient auditor;
  if (!auditor.connect(connect)) return 1;
  const std::uint64_t failures = audit_remote(auditor, a.keys, max_threads);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using dlht::bench::parse_uint_or_die;
  std::string connect = "127.0.0.1:11311";
  std::size_t batch = 32;
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
  // The client's own flags; the rest go to parse_args, which refuses any
  // flag it does not know.
  std::vector<char*> rest{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--connect") {
      connect = dlht::server::endpoint_flag_or_die("--connect", next());
    } else if (arg == "--batch") {
      batch = parse_uint_or_die("--batch", next(), 1,
                                dlht::server::KvServer::kMaxBatch);
    } else if (arg == "--seed") {
      seed = parse_uint_or_die("--seed", next(), 0, UINT64_MAX);
    } else {
      rest.push_back(argv[i]);
    }
  }
  const auto a =
      dlht::bench::parse_args(static_cast<int>(rest.size()), rest.data());
  return run_bench(a, connect, batch, seed);
}
