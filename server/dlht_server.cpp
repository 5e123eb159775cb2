// dlht_server — the network-facing KV node over DLHT (include/server/).
//
//   dlht_server --listen unix:/tmp/dlht.sock --threads 2 --batch 24
//   dlht_server --listen 127.0.0.1:11311 --durable /tmp/dlht_wal
//
// Flags:
//   --listen SPEC        unix:PATH or host:port      (default 127.0.0.1:11311)
//   --threads N          worker shards               (default 2)
//   --batch N            batch-former threshold, 1..1024;
//                        1 = unbatched baseline      (default 24)
//   --keys N             table sized for N keys      (default 1M)
//   --durable DIR        log to a WAL + snapshots in DIR, with
//                        DurabilityOptions' group-commit defaults
//   --checkpoint-ms M    durable mode: periodic checkpoint interval
//                        (default 0 = none)
// A malformed or out-of-range value refuses with exit 2, naming the flag:
// a --listen SPEC must be unix:PATH (PATH fits sun_path) or HOST:PORT with
// an IPv4 host and a port in 1..65535.
// Shard threads are pinned by the DLHT_PIN plan (DLHT_PIN=none: unpinned),
// and a malformed DLHT_PIN refuses with exit 2 too. DLHT_NUMA and
// DLHT_ABLATION shape the table as in every bench.
//
// Prints a single "ready" line once the listener is live (harness scripts
// wait for it), serves until SIGTERM/SIGINT, then prints shutdown stats:
// ops, flushes, ops/flush, and merged per-flush p50/p99.
#include <climits>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "server/server.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using dlht::bench::parse_uint_or_die;
  using dlht::server::KvServer;
  using dlht::server::ServerOptions;

  ServerOptions o;
  std::uint64_t keys = 1u << 20;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--listen") {
      o.listen = dlht::server::endpoint_flag_or_die("--listen", next());
    } else if (arg == "--threads") {
      o.shards = static_cast<int>(
          parse_uint_or_die("--threads", next(), 1, INT_MAX));
    } else if (arg == "--batch") {
      o.batch = parse_uint_or_die("--batch", next(), 1, KvServer::kMaxBatch);
    } else if (arg == "--keys") {
      keys = parse_uint_or_die("--keys", next(), 1, UINT64_MAX);
    } else if (arg == "--durable") {
      o.durable_dir = next();
    } else if (arg == "--checkpoint-ms") {
      o.checkpoint_ms = static_cast<unsigned>(
          parse_uint_or_die("--checkpoint-ms", next(), 0, UINT_MAX));
    } else {
      std::fprintf(stderr, "dlht_server: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  // Refuse a malformed DLHT_PIN with exit 2, as every bench does, before
  // anything is built: KvServer::start reports it only as a failed start.
  (void)dlht::pin_plan_from_env_or_die();
  // Same geometry + env-knob overlay every bench table gets, so a server
  // run is comparable with the in-process figures at equal --keys.
  o.table = dlht::bench::dlht_options(keys);

  KvServer server(o);
  if (!server.start()) return 1;

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::printf("# dlht_server ready listen=%s shards=%d batch=%zu durable=%s\n",
              o.listen.c_str(), o.shards, o.batch,
              o.durable_dir.empty() ? "no" : o.durable_dir.c_str());
  std::fflush(stdout);

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.stop();

  const auto lat = server.flush_latency();
  const std::uint64_t ops = server.total_ops();
  const std::uint64_t flushes = server.total_flushes();
  std::printf("# dlht_server stats: ops=%llu flushes=%llu ops/flush=%.2f "
              "conns=%llu flush_p50=%llu ns flush_p99=%llu ns size=%lld\n",
              static_cast<unsigned long long>(ops),
              static_cast<unsigned long long>(flushes),
              flushes != 0 ? static_cast<double>(ops) /
                                 static_cast<double>(flushes)
                           : 0.0,
              static_cast<unsigned long long>(server.conns_accepted()),
              static_cast<unsigned long long>(lat.q1_ns),
              static_cast<unsigned long long>(lat.q2_ns),
              static_cast<long long>(server.table_size()));
  return 0;
}
