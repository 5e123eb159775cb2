// Sharded epoll KV node: the network front end that turns DLHT's batch
// API into a batching engine.
//
// Shape: one shared DurableDLHT (logging only in --durable mode) behind N
// worker shards. Each shard owns an epoll loop, its accepted connections,
// and a view of the table — an epoch slot, a batch former, and a
// latency reservoir. Connections are dealt round-robin at accept; the
// table synchronizes internally (per-bucket locks, sharded size counters,
// and WAL shards owned by writer threads), so any shard can serve any key
// and no cross-worker hand-off sits on the request path.
//
// The batching engine IS the request loop: every decoded Get/Put/Insert/
// Delete is appended to the shard's pending batch, which flushes into one
// execute_batch call when it reaches ServerOptions::batch
// (dlht_server --batch) — or at the end of the event-loop turn, when
// the loop has drained every ready socket and would otherwise block
// ("loop-idle"). So under load the software pipeline runs full batches,
// and a lone request still sees one-turn latency. batch <= 1 disables the
// engine entirely (flush + reply write per op): that configuration is the
// unbatched baseline the loopback smoke compares against.
//
// Replies are buffered per connection and written once per turn (or
// immediately when batch <= 1); a slow reader gets EPOLLOUT re-arming and
// a hard output cap instead of unbounded buffering.
//
// Poll, then park: after a turn that saw events, a shard keeps polling
// (epoll_wait with timeout 0) until kPollWindowNs passes with no event,
// and only then blocks. Waking a parked thread is the largest cost on a
// networked Get's path, so while a shard's requests keep arriving within
// the window it holds its CPU and answers each without a wake-up; once
// traffic stops it parks after one window and uses no CPU.
#pragma once

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/latency.hpp"
#include "common/topology.hpp"
#include "dlht/dlht.hpp"
#include "dlht/durability.hpp"
#include "server/protocol.hpp"

namespace dlht::server {

struct ServerOptions {
  /// "unix:/path/to.sock" or "host:port" (TCP, TCP_NODELAY set), as
  /// parse_endpoint reads it.
  std::string listen = "127.0.0.1:11311";
  /// Worker shards (epoll loops). dlht_server --threads.
  int shards = 2;
  /// Batch former flush threshold, at most KvServer::kMaxBatch.
  /// dlht_server --batch. <= 1 disables batching (the unbatched
  /// comparison baseline).
  std::size_t batch = 24;
  /// Non-empty: log to a WAL + snapshots in this directory (durable mode),
  /// with DurabilityOptions' group-commit defaults. Empty: the table runs
  /// in DurableDLHT's in-memory mode.
  std::string durable_dir;
  /// Durable mode: periodic checkpoint() interval; 0 = no checkpointer.
  unsigned checkpoint_ms = 0;
  /// Table geometry and knobs.
  Options table;
};

class KvServer {
 public:
  explicit KvServer(ServerOptions o)
      : opts_(std::move(o)),
        table_(opts_.table, DurabilityOptions{opts_.durable_dir}) {
    if (opts_.shards < 1) opts_.shards = 1;
    if (opts_.batch < 1) opts_.batch = 1;
    if (opts_.batch > kMaxBatch) opts_.batch = kMaxBatch;
  }

  ~KvServer() { stop(); }

  KvServer(const KvServer&) = delete;
  KvServer& operator=(const KvServer&) = delete;

  /// Bind + listen + recover (durable mode) + spawn the shard threads.
  /// False (with a stderr diagnostic) on any setup failure.
  bool start() {
    if (table_.open() != Status::kOk) {
      std::fprintf(stderr, "kv_server: durable open(%s) failed\n",
                   opts_.durable_dir.c_str());
      return false;
    }
    listen_fd_ = open_listener(opts_.listen);
    if (listen_fd_ < 0) return false;
    shards_.reserve(static_cast<std::size_t>(opts_.shards));
    for (int i = 0; i < opts_.shards; ++i) {
      auto sh = std::make_unique<Shard>(static_cast<std::uint64_t>(i));
      sh->epfd = ::epoll_create1(EPOLL_CLOEXEC);
      sh->wakefd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
      if (sh->epfd < 0 || sh->wakefd < 0) {
        std::fprintf(stderr, "kv_server: epoll/eventfd setup failed\n");
        return false;
      }
      add_fd(sh->epfd, sh->wakefd, EPOLLIN);
      shards_.push_back(std::move(sh));
    }
    add_fd(shards_[0]->epfd, listen_fd_, EPOLLIN);
    // Shard threads are pinned by the DLHT_PIN plan (the table's prefetch
    // pipeline assumes threads stay put); DLHT_PIN=none leaves them free.
    std::string pin_err;
    const PinPlan plan = pin_plan_from_env(&pin_err);
    if (!pin_err.empty()) {
      // A server that silently ignores an operator's placement spec is
      // worse than one that refuses to start.
      std::fprintf(stderr, "kv_server: %s\n", pin_err.c_str());
      return false;
    }
    for (int i = 0; i < opts_.shards; ++i) {
      Shard* sh = shards_[static_cast<std::size_t>(i)].get();
      threads_.emplace_back([this, sh, i, plan] {
        plan.pin(static_cast<std::size_t>(i));
        shard_loop(*sh);
      });
    }
    if (durable() && opts_.checkpoint_ms > 0) {
      checkpointer_ = std::thread([this] {
        while (!stop_.load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(opts_.checkpoint_ms));
          if (stop_.load(std::memory_order_acquire)) break;
          table_.checkpoint();
        }
      });
    }
    return true;
  }

  /// Signal every shard, join, close everything. Idempotent.
  void stop() {
    if (stop_.exchange(true, std::memory_order_acq_rel)) {
      // Second caller still waits for the first stop to finish joining.
    }
    for (auto& sh : shards_) {
      if (sh->wakefd >= 0) {
        const std::uint64_t one = 1;
        [[maybe_unused]] ssize_t r = ::write(sh->wakefd, &one, sizeof one);
      }
    }
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
    if (checkpointer_.joinable()) checkpointer_.join();
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      Endpoint ep;
      if (parse_endpoint(opts_.listen, &ep) == nullptr &&
          ep.family() == AF_UNIX) {
        ::unlink(ep.unix_path());
      }
    }
    for (auto& sh : shards_) {
      for (auto& [fd, c] : sh->conns) ::close(fd);
      sh->conns.clear();
      if (sh->epfd >= 0) ::close(sh->epfd);
      if (sh->wakefd >= 0) ::close(sh->wakefd);
      sh->epfd = sh->wakefd = -1;
    }
  }

  // ------------------------------------------------------------- stats

  std::uint64_t total_ops() const {
    std::uint64_t n = 0;
    for (const auto& sh : shards_) {
      n += sh->ops.load(std::memory_order_relaxed);
    }
    return n;
  }
  std::uint64_t total_flushes() const {
    std::uint64_t n = 0;
    for (const auto& sh : shards_) {
      n += sh->flushes.load(std::memory_order_relaxed);
    }
    return n;
  }
  std::uint64_t conns_accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }

  /// Merged per-flush service latency (batch form -> replies encoded)
  /// across shards. Call after stop(): the reservoirs are owned by the
  /// shard threads while they run.
  MergedLatency flush_latency() const {
    std::vector<LatencyReservoir> all;
    all.reserve(shards_.size());
    for (const auto& sh : shards_) all.push_back(sh->lat);
    return merge_latency(all);
  }

  std::int64_t table_size() const { return table_.approx_size(); }
  /// True when --durable was given: the table logs to durable_dir.
  bool durable() const { return !opts_.durable_dir.empty(); }
  /// The served table, logging or not (see durable()).
  DurableDLHT* durable_tier() { return &table_; }

  /// The batch former's cap: a larger ServerOptions::batch is clamped here.
  static constexpr std::size_t kMaxBatch = 1024;

 private:
  /// Per-connection buffer caps: input is a protocol-error close (frames
  /// are tiny; only a byte-flood hits this), output is a slow-reader close.
  static constexpr std::size_t kMaxInBuf = std::size_t{1} << 20;
  static constexpr std::size_t kMaxOutBuf = std::size_t{16} << 20;
  static constexpr int kEpollEvents = 128;
  static constexpr int kEpollTimeoutMs = 100;  // stop-flag poll granularity
  /// How long a shard polls after its last event before it parks. Waking
  /// a parked thread cost ~5 µs of a ~16 µs unix-socket round trip on a
  /// 4-vCPU KVM guest, and an empty poll costs one syscall, so the window
  /// pays for itself whenever a shard's next request arrives inside it.
  /// 50 µs is the value Linux's sysctl docs recommend for
  /// net.core.busy_read, about ten wake-ups here; no caller needs
  /// another. The poll never yields: under EEVDF each sched_yield() moves
  /// the caller's deadline back a slice, and with SCHED_IDLE spinners on
  /// the shard CPUs (as perfbench runs them) that put a Get's p50 past
  /// 1 ms.
  static constexpr std::uint64_t kPollWindowNs = 50'000;

  struct Conn {
    int fd = -1;
    enum class Mode : std::uint8_t { kUnknown, kBinary, kText } mode =
        Mode::kUnknown;
    std::vector<std::uint8_t> in;
    std::size_t in_len = 0;
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;
    bool dirty = false;       // queued on the shard's write list this turn
    bool want_write = false;  // EPOLLOUT armed
    bool closing = false;     // close once out drains
    bool refused = false;     // protocol error: stop parsing this conn
    bool dead = false;        // fd closed; pending replies are dropped
    // Text shim state: a `set` line whose data block is still in flight.
    bool text_need_data = false;
    TextCommand text_set;
  };

  struct Pending {
    Conn* conn;
    OpType op;
    std::uint64_t key;
    std::uint64_t value;
    std::uint64_t opaque;
    bool text;
  };

  /// Per-worker view of the shared table: batch former + reservoir +
  /// counters. The epoch slot is implicit (the shard thread registers with
  /// the table's EpochManager on first op, like any other thread).
  struct Shard {
    explicit Shard(std::uint64_t id) : lat(id) {}
    int epfd = -1;
    int wakefd = -1;
    std::unordered_map<int, std::unique_ptr<Conn>> conns;
    std::vector<Pending> pending;
    std::vector<Conn*> write_list;
    std::vector<std::unique_ptr<Conn>> graveyard;  // freed after the turn
    // Handed over from the accepting shard; drained on wakefd events.
    std::mutex inbox_mu;
    std::vector<int> inbox;
    LatencyReservoir lat;
    std::atomic<std::uint64_t> ops{0};
    std::atomic<std::uint64_t> flushes{0};
    // Flush scratch (reused across turns).
    std::vector<DLHT::Request> reqs;
    std::vector<DLHT::Reply> reps;
  };

  // ------------------------------------------------------- socket setup

  static void add_fd(int epfd, int fd, std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    ::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev);
  }

  static void mod_fd(int epfd, int fd, std::uint32_t events) {
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    ::epoll_ctl(epfd, EPOLL_CTL_MOD, fd, &ev);
  }

  static int open_listener(const std::string& spec) {
    Endpoint ep;
    if (const char* err = parse_endpoint(spec, &ep)) {
      std::fprintf(stderr, "kv_server: bad listen spec '%s': %s\n",
                   spec.c_str(), err);
      return -1;
    }
    const int fd =
        ::socket(ep.family(), SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    if (ep.family() == AF_UNIX) {
      ::unlink(ep.unix_path());
    } else {
      const int on = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &on, sizeof on);
    }
    if (::bind(fd, ep.sockaddr_ptr(), ep.len) != 0) {
      std::fprintf(stderr, "kv_server: bind(%s): %s\n", spec.c_str(),
                   std::strerror(errno));
      ::close(fd);
      return -1;
    }
    if (::listen(fd, 256) != 0) {
      std::fprintf(stderr, "kv_server: listen: %s\n", std::strerror(errno));
      ::close(fd);
      return -1;
    }
    return fd;
  }

  // --------------------------------------------------------- event loop

  static std::uint64_t mono_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  void shard_loop(Shard& sh) {
    epoll_event evs[kEpollEvents];
    // Poll, then park (see kPollWindowNs). Level-triggered epoll reports
    // whatever arrives while the loop switches to the blocking wait.
    std::uint64_t park_at = 0;
    while (!stop_.load(std::memory_order_acquire)) {
      const int timeout = mono_ns() < park_at ? 0 : kEpollTimeoutMs;
      const int n = ::epoll_wait(sh.epfd, evs, kEpollEvents, timeout);
      for (int i = 0; i < n; ++i) {
        const int fd = evs[i].data.fd;
        if (fd == sh.wakefd) {
          std::uint64_t tick;
          while (::read(sh.wakefd, &tick, sizeof tick) > 0) {
          }
          drain_inbox(sh);
          continue;
        }
        if (fd == listen_fd_) {
          accept_loop(sh);
          continue;
        }
        auto it = sh.conns.find(fd);
        if (it == sh.conns.end()) continue;
        Conn* c = it->second.get();
        if (evs[i].events & (EPOLLHUP | EPOLLERR)) {
          close_conn(sh, c);
          continue;
        }
        if (evs[i].events & EPOLLIN) handle_read(sh, c);
        if (!c->dead && (evs[i].events & EPOLLOUT)) mark_dirty(sh, c);
      }
      // Loop-idle flush: every ready socket has been drained and decoded;
      // whatever the turn accumulated goes through the table now, before
      // the loop would block. This is where network batching and the
      // paper's software pipeline become the same mechanism.
      flush(sh);
      drain_writes(sh);
      sh.graveyard.clear();
      if (n > 0) park_at = mono_ns() + kPollWindowNs;
    }
    // Final courtesy flush so a stop with decoded-but-unflushed requests
    // still answers them before the fd teardown in stop().
    flush(sh);
    drain_writes(sh);
    sh.graveyard.clear();
  }

  void drain_inbox(Shard& sh) {
    std::vector<int> fds;
    {
      std::lock_guard<std::mutex> g(sh.inbox_mu);
      fds.swap(sh.inbox);
    }
    for (const int fd : fds) adopt_conn(sh, fd);
  }

  void accept_loop(Shard& sh0) {
    for (;;) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN or a transient accept error: next event retries
      }
      const int on = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof on);  // no-op on unix
      accepted_.fetch_add(1, std::memory_order_relaxed);
      const std::size_t target =
          rr_next_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
      if (target == 0) {
        adopt_conn(sh0, fd);
      } else {
        Shard& t = *shards_[target];
        {
          std::lock_guard<std::mutex> g(t.inbox_mu);
          t.inbox.push_back(fd);
        }
        const std::uint64_t one = 1;
        [[maybe_unused]] ssize_t r = ::write(t.wakefd, &one, sizeof one);
      }
    }
  }

  void adopt_conn(Shard& sh, int fd) {
    auto c = std::make_unique<Conn>();
    c->fd = fd;
    c->in.resize(4096);
    add_fd(sh.epfd, fd, EPOLLIN);
    sh.conns.emplace(fd, std::move(c));
  }

  void close_conn(Shard& sh, Conn* c) {
    if (c->dead) return;
    c->dead = true;
    ::epoll_ctl(sh.epfd, EPOLL_CTL_DEL, c->fd, nullptr);
    ::close(c->fd);
    auto it = sh.conns.find(c->fd);
    // Defer destruction to the end of the turn: sh.pending and
    // sh.write_list may still hold this Conn*.
    if (it != sh.conns.end()) {
      sh.graveyard.push_back(std::move(it->second));
      sh.conns.erase(it);
    }
  }

  // ---------------------------------------------------------- read path

  void handle_read(Shard& sh, Conn* c) {
    bool peer_eof = false;
    for (;;) {
      if (c->in_len == c->in.size()) {
        if (c->in.size() >= kMaxInBuf) {
          close_conn(sh, c);  // byte flood with no parseable frame
          return;
        }
        c->in.resize(std::min(c->in.size() * 2, kMaxInBuf));
      }
      const ssize_t r = ::recv(c->fd, c->in.data() + c->in_len,
                               c->in.size() - c->in_len, 0);
      if (r > 0) {
        c->in_len += static_cast<std::size_t>(r);
        continue;
      }
      if (r == 0) {
        peer_eof = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_conn(sh, c);
      return;
    }
    parse_conn(sh, c);
    if (peer_eof && !c->dead) {
      c->closing = true;  // answer what was decoded, then hang up
      mark_dirty(sh, c);  // ensure the turn's write pass visits (and
                          // closes) this conn even with no output queued
    }
  }

  void parse_conn(Shard& sh, Conn* c) {
    std::size_t off = 0;
    while (!c->dead && !c->refused && off < c->in_len) {
      const std::uint8_t* p = c->in.data() + off;
      const std::size_t avail = c->in_len - off;
      if (c->mode == Conn::Mode::kUnknown) {
        c->mode = (p[0] == kMagic) ? Conn::Mode::kBinary : Conn::Mode::kText;
      }
      if (c->mode == Conn::Mode::kBinary) {
        Frame f;
        std::size_t consumed = 0;
        const Decode d = decode_request(p, avail, &f, &consumed);
        if (d == Decode::kNeedMore) break;
        if (d != Decode::kFrame) {
          refuse(sh, c, d == Decode::kBadMagic ? 0 : f.opaque);
          break;
        }
        off += consumed;
        on_request(sh, c, f);
      } else {
        const std::size_t eaten = parse_text(sh, c, p, avail);
        if (eaten == 0) break;
        off += eaten;
        if (c->closing) break;  // quit: drop whatever rides behind it
      }
    }
    if (off > 0 && !c->dead) {
      std::memmove(c->in.data(), c->in.data() + off, c->in_len - off);
      c->in_len -= off;
    }
  }

  /// Consume one text protocol step (a command line, or a set's data
  /// block). Returns bytes eaten; 0 = need more input.
  std::size_t parse_text(Shard& sh, Conn* c, const std::uint8_t* p,
                         std::size_t avail) {
    if (c->text_need_data) {
      const std::size_t need = c->text_set.set_bytes + 2;
      if (avail < need) return 0;
      if (p[need - 2] != '\r' || p[need - 1] != '\n') {
        append_out(sh, c, "CLIENT_ERROR bad data chunk\r\n");
        c->closing = true;
        c->refused = true;
        return need;
      }
      c->text_need_data = false;
      enqueue(sh, {c, OpType::kPut, c->text_set.key,
                   text_value(p, c->text_set.set_bytes), 0, true});
      return need;
    }
    const std::size_t scan = avail < kMaxTextLine ? avail : kMaxTextLine;
    const void* nl = std::memchr(p, '\n', scan);
    if (nl == nullptr) {
      if (avail >= kMaxTextLine) {
        append_out(sh, c, "CLIENT_ERROR line too long\r\n");
        c->closing = true;
        c->refused = true;
      }
      return 0;
    }
    std::size_t linelen =
        static_cast<std::size_t>(static_cast<const std::uint8_t*>(nl) - p);
    const std::size_t eaten = linelen + 1;
    if (linelen > 0 && p[linelen - 1] == '\r') --linelen;
    const TextCommand tc =
        parse_text_line(reinterpret_cast<const char*>(p), linelen);
    switch (tc.kind) {
      case TextCommand::Kind::kGet:
        enqueue(sh, {c, OpType::kGet, tc.key, 0, 0, true});
        break;
      case TextCommand::Kind::kDelete:
        enqueue(sh, {c, OpType::kDelete, tc.key, 0, 0, true});
        break;
      case TextCommand::Kind::kSet:
        c->text_set = tc;
        c->text_need_data = true;
        break;
      case TextCommand::Kind::kQuit:
        c->closing = true;
        mark_dirty(sh, c);  // close this turn even with nothing buffered
        break;
      case TextCommand::Kind::kError:
        append_out(sh, c, "ERROR\r\n");
        break;
    }
    return eaten;
  }

  void refuse(Shard& sh, Conn* c, std::uint64_t opaque) {
    std::uint8_t buf[kHeaderBytes + 8];
    const std::size_t n =
        encode_reply(buf, WireStatus::kBadRequest, 0, false, opaque);
    append_out(sh, c, buf, n);
    c->refused = true;
    c->closing = true;
  }

  void on_request(Shard& sh, Conn* c, const Frame& f) {
    const WireOp op = static_cast<WireOp>(f.op);
    switch (op) {
      case WireOp::kGet:
      case WireOp::kPut:
      case WireOp::kInsert:
      case WireOp::kDelete:
        enqueue(sh, {c, static_cast<OpType>(f.op), f.key, f.value, f.opaque,
                     false});
        return;
      case WireOp::kSync: {
        // Barrier: everything decoded before this frame must be applied
        // (and WAL-buffered) before the sync runs, so an acked sync covers
        // every previously-acked op on this connection.
        flush(sh);
        const Status st = table_.wal_sync();
        std::uint8_t buf[kHeaderBytes + 8];
        append_out(sh, c, buf,
                   encode_reply(buf, to_wire(st), 0, false, f.opaque));
        if (opts_.batch <= 1) write_conn(sh, c);
        return;
      }
      case WireOp::kCount: {
        flush(sh);
        const std::int64_t sz = table_size();
        std::uint8_t buf[kHeaderBytes + 8];
        append_out(sh, c, buf,
                   encode_reply(buf, WireStatus::kOk,
                                static_cast<std::uint64_t>(sz), true,
                                f.opaque));
        if (opts_.batch <= 1) write_conn(sh, c);
        return;
      }
    }
  }

  void enqueue(Shard& sh, Pending p) {
    sh.pending.push_back(p);
    if (sh.pending.size() >= opts_.batch) flush(sh);
  }

  // --------------------------------------------------------- batch flush

  void flush(Shard& sh) {
    const std::size_t n = sh.pending.size();
    if (n == 0) return;
    const std::uint64_t t0 = mono_ns();
    sh.reqs.resize(n);
    sh.reps.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Pending& p = sh.pending[i];
      sh.reqs[i] = DLHT::Request{p.op, p.key, p.value, i};
    }
    table_.execute_batch(sh.reqs.data(), sh.reps.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const Pending& p = sh.pending[i];
      if (p.conn->dead) continue;
      encode_pending_reply(sh, p, sh.reps[i]);
    }
    sh.lat.add(mono_ns() - t0);
    sh.ops.fetch_add(n, std::memory_order_relaxed);
    sh.flushes.fetch_add(1, std::memory_order_relaxed);
    if (opts_.batch <= 1) {
      // Unbatched baseline: no reply coalescing either — each op costs its
      // own write(2), exactly what a batching-free request loop would pay.
      for (std::size_t i = 0; i < n; ++i) {
        if (!sh.pending[i].conn->dead) write_conn(sh, sh.pending[i].conn);
      }
    }
    sh.pending.clear();
  }

  void encode_pending_reply(Shard& sh, const Pending& p,
                            const DLHT::Reply& rp) {
    if (!p.text) {
      std::uint8_t buf[kHeaderBytes + 8];
      const bool hit = p.op == OpType::kGet && rp.status == Status::kOk;
      append_out(sh, p.conn, buf,
                 encode_reply(buf, to_wire(rp.status), rp.value, hit,
                              p.opaque));
      return;
    }
    char line[64];
    switch (p.op) {
      case OpType::kGet:
        if (rp.status == Status::kOk) {
          const int h = std::snprintf(line, sizeof line,
                                      "VALUE %llu 0 8\r\n",
                                      static_cast<unsigned long long>(p.key));
          append_out(sh, p.conn, line, static_cast<std::size_t>(h));
          std::uint8_t v[8];
          store_le64(v, rp.value);
          append_out(sh, p.conn, v, 8);
          append_out(sh, p.conn, "\r\nEND\r\n", 7);
        } else {
          append_out(sh, p.conn, "END\r\n", 5);
        }
        return;
      case OpType::kPut:
      case OpType::kInsert:
        append_out(sh, p.conn,
                   rp.status == Status::kIOError ? "SERVER_ERROR io\r\n"
                                                 : "STORED\r\n");
        return;
      case OpType::kDelete:
        append_out(sh, p.conn,
                   rp.status == Status::kOk ? "DELETED\r\n" : "NOT_FOUND\r\n");
        return;
    }
  }

  // --------------------------------------------------------- write path

  void append_out(Shard& sh, Conn* c, const void* data, std::size_t n) {
    if (c->dead) return;
    if (c->out.size() - c->out_off + n > kMaxOutBuf) {
      close_conn(sh, c);  // slow reader: cap, don't buffer unboundedly
      return;
    }
    const auto* p = static_cast<const std::uint8_t*>(data);
    c->out.insert(c->out.end(), p, p + n);
    mark_dirty(sh, c);
  }

  void append_out(Shard& sh, Conn* c, const char* s) {
    append_out(sh, c, s, std::strlen(s));
  }

  void mark_dirty(Shard& sh, Conn* c) {
    if (!c->dirty && !c->dead) {
      c->dirty = true;
      sh.write_list.push_back(c);
    }
  }

  void drain_writes(Shard& sh) {
    for (Conn* c : sh.write_list) {
      c->dirty = false;
      if (!c->dead) write_conn(sh, c);
    }
    sh.write_list.clear();
  }

  void write_conn(Shard& sh, Conn* c) {
    while (c->out_off < c->out.size()) {
      const ssize_t w = ::send(c->fd, c->out.data() + c->out_off,
                               c->out.size() - c->out_off, MSG_NOSIGNAL);
      if (w > 0) {
        c->out_off += static_cast<std::size_t>(w);
        continue;
      }
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!c->want_write) {
          c->want_write = true;
          mod_fd(sh.epfd, c->fd, EPOLLIN | EPOLLOUT);
        }
        return;
      }
      if (w < 0 && errno == EINTR) continue;
      close_conn(sh, c);
      return;
    }
    c->out.clear();
    c->out_off = 0;
    if (c->want_write) {
      c->want_write = false;
      mod_fd(sh.epfd, c->fd, EPOLLIN);
    }
    if (c->closing) close_conn(sh, c);
  }

  ServerOptions opts_;
  DurableDLHT table_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> threads_;
  std::thread checkpointer_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> rr_next_{0};
  std::atomic<std::uint64_t> accepted_{0};
  int listen_fd_ = -1;
};

}  // namespace dlht::server
