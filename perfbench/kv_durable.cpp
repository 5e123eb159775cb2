// kv_durable: the network node. An in-process KvServer with 2 shards
// serves 1M keys (a 32 MiB bucket array, inside the L3) over a unix socket
// in durable mode, with the WAL on tmpfs and the default flush policy:
// group commit, one fsync per 64 records per WAL shard plus a 500 us
// committer. Two open-loop generator threads, each driving one data
// connection, send YCSB-A (50% Get, 50% Put, scrambled Zipf 0.99) at
// Poisson arrival times, stepping through a fixed ladder of offered rates.
// Each request is timed from its intended send time. A third connection
// sends a Sync every millisecond; connect order puts it on the same server
// shard as data connection 0, so an fsync on a serving thread shows up in
// Get latency. Here the socket, the batch former and the WAL do most of
// the work and the table does little. The gated throughput is the node's
// capacity on the last, saturated step; max_rate_mops, the highest step
// within the latency limit, is reported beside it.
#include <dirent.h>
#include <sched.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dlht/durability.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace srv = dlht::server;
using dlht::DurableDLHT;

constexpr std::uint64_t kKeys = std::uint64_t{1} << 20;
constexpr std::size_t kBins = std::size_t{1} << 19;  // 67% full at kKeys
constexpr int kServerShards = 2;
constexpr unsigned kDataConns = 2;
constexpr double kTheta = 0.99;
/// Offered load of each ladder step, Mops/s summed over both connections.
/// The node sustains about 2 Mops/s on the reference host; the last step
/// is far beyond that so that it always saturates, and no step sits near
/// the saturation point, where the pass/fail verdict would flip between
/// runs.
constexpr double kLadder[] = {0.2, 0.4, 0.8, 1.2, 4.8};
constexpr std::size_t kSteps = std::size(kLadder);
/// Share of the run each step gets. The gated figures come from the
/// reference step (Get latency) and the saturated last step (capacity),
/// so those two get most of it.
constexpr double kStepShare[kSteps] = {0.5, 0.1, 0.1, 0.1, 0.2};
/// Before the ladder, the first this-many ns of the reference step's
/// schedule run once, checked but not measured.
constexpr std::uint64_t kWarmupNs = 1'000'000'000;
/// A generator stops sending this long after its step ends. Requests of
/// the schedule not sent by then are dropped, not attempted, and the step
/// counts as one that did not keep up; on the saturated step this holds
/// the step to its length instead of serving its whole schedule.
constexpr std::uint64_t kSendGraceNs = 100'000'000;
/// Capacity is the median over windows of this width of the saturated
/// step's replies per second of CPU (the first window, the ramp-up, is
/// left out).
constexpr std::uint64_t kRateWindowNs = 100'000'000;
/// Latencies are reported at this step, well below saturation.
constexpr std::size_t kReferenceStep = 0;
/// A step meets the latency limit when the p99 of its requests, timed from
/// their intended send, is at most this. The p99 is the median over
/// kWindows equal slices of the step of each slice's p99. The reference
/// host is a virtual machine that loses 2-25% of its CPU time to other
/// tenants, which puts tens of milliseconds into the tail at any load; a
/// step whose queue grows reaches hundreds of milliseconds within a second.
constexpr double kP99LimitUs = 100'000;
constexpr std::size_t kWindows = 10;
constexpr std::uint64_t kSyncIntervalNs = 1'000'000;
constexpr std::uint64_t kSampleNs = 1'000'000;  // backlog sampling period
/// A backlog grows when its last-quarter mean exceeds twice its
/// first-quarter mean plus this many requests; a saturated step gains tens
/// of thousands a second, one host stall a few hundred for a moment.
constexpr double kBacklogSlack = 1000;
constexpr std::uint64_t kDrainTimeoutNs = 20'000'000'000;
/// Requests a connection may have unanswered. Past it the generator holds
/// back sends; they still count from their intended time, so latency and
/// backlog keep growing on an overloaded step, but the server's
/// per-connection buffers stay far below the limits at which it closes a
/// connection. A power of two: send times live in a ring of this size.
constexpr std::uint64_t kMaxOutstanding = 8192;
static_assert((kMaxOutstanding & (kMaxOutstanding - 1)) == 0);
constexpr int kSetups = 3;
constexpr unsigned kPopulateThreads = 4;

constexpr std::uint32_t kPutBit = 1u << 31;
constexpr int kSeqBits = 28;

/// One data connection's requests for one ladder step: intended send time
/// (ns after the step starts) and the op, Put flag in the top bit.
struct Schedule {
  std::vector<std::uint64_t> at;
  std::vector<std::uint32_t> op;
};

struct Inputs {
  /// schedule[c][step]
  std::vector<std::vector<Schedule>> schedule;
  /// put_keys[c][s - 1]: key index of the s-th Put in connection c's
  /// schedule, over all steps in order. A value read back must name a Put
  /// that was made for its key.
  std::vector<std::vector<std::uint32_t>> put_keys;
  /// put_base[c][step]: Puts in connection c's schedule before the step.
  std::vector<std::vector<std::uint32_t>> put_base;
};

Inputs make_inputs(std::uint64_t seed, const std::vector<double>& step_s) {
  Inputs in;
  in.schedule.resize(kDataConns);
  in.put_keys.resize(kDataConns);
  in.put_base.resize(kDataConns);
  // Each connection's schedule comes from its own generators; build them
  // side by side.
  run_threads(kDataConns, [&](unsigned c) {
    dlht::ScrambledZipf zipf(kKeys, kTheta, dlht::splitmix64(seed * 7 + c));
    dlht::Xoshiro256 rng(dlht::splitmix64(seed * 13 + c));
    for (std::size_t s = 0; s < kSteps; ++s) {
      in.put_base[c].push_back(
          static_cast<std::uint32_t>(in.put_keys[c].size()));
      Schedule sch;
      const double rate_per_ns = kLadder[s] / kDataConns * 1e-3;
      const double horizon = step_s[s] * 1e9;
      double t = 0;
      for (;;) {
        const double u = static_cast<double>((rng() >> 11) + 1) * 0x1.0p-53;
        t += -std::log(u) / rate_per_ns;
        if (t >= horizon) break;
        const std::uint32_t k = static_cast<std::uint32_t>(zipf.next());
        const bool put = (rng() & 1) != 0;
        if (put) in.put_keys[c].push_back(k);
        sch.at.push_back(static_cast<std::uint64_t>(t));
        sch.op.push_back(k | (put ? kPutBit : 0));
      }
      in.schedule[c].push_back(std::move(sch));
    }
  });
  return in;
}

std::uint32_t put_version(unsigned c, std::uint32_t seq) {
  return ((c + 1) << kSeqBits) | seq;
}

/// A Get hit is right when its value names the key and either is the
/// populated value or names a Put the schedule made for this key.
bool get_value_ok(const Inputs& in, std::uint64_t idx, std::uint64_t key,
                  std::uint64_t value) {
  if (!value_names_key(value, key)) return false;
  const std::uint32_t v = version_of(value);
  if (v == 0) return true;
  const std::uint32_t c = (v >> kSeqBits) - 1;
  const std::uint32_t s = v & ((1u << kSeqBits) - 1);
  return c < kDataConns && s >= 1 && s <= in.put_keys[c].size() &&
         in.put_keys[c][s - 1] == idx;
}

/// A nonblocking client connection speaking the binary frame protocol.
class Wire {
 public:
  Wire() = default;
  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;
  ~Wire() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connect(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un addr{};
    if (fd_ < 0 || path.size() + 1 > sizeof addr.sun_path) return false;
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      return false;
    }
    return ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK) == 0;
  }

  void queue(srv::WireOp op, std::uint64_t key, std::uint64_t value,
             std::uint64_t opaque) {
    std::uint8_t buf[srv::kHeaderBytes + 16];
    const std::size_t n = srv::encode_request(buf, op, key, value, opaque);
    out_.insert(out_.end(), buf, buf + n);
  }
  bool pending() const { return off_ < out_.size(); }

  /// Write what is queued, as far as the socket takes it.
  bool flush() {
    while (off_ < out_.size()) {
      const ssize_t w = ::write(fd_, out_.data() + off_, out_.size() - off_);
      if (w < 0) return errno == EAGAIN || errno == EINTR;
      off_ += static_cast<std::size_t>(w);
    }
    out_.clear();
    off_ = 0;
    return true;
  }

  /// Read what has arrived and call on_reply(frame, arrival_ns) for each
  /// whole reply. False when the connection broke or sent garbage.
  template <class F>
  bool poll(F&& on_reply) {
    const ssize_t r = ::read(fd_, in_.data() + len_, in_.size() - len_);
    if (r == 0) return false;
    if (r < 0) return errno == EAGAIN || errno == EINTR;
    const std::uint64_t t = now_ns();
    len_ += static_cast<std::size_t>(r);
    std::size_t off = 0;
    for (;;) {
      srv::Frame f;
      std::size_t used = 0;
      const srv::Decode d =
          srv::decode_reply(in_.data() + off, len_ - off, &f, &used);
      if (d == srv::Decode::kNeedMore) break;
      if (d != srv::Decode::kFrame) return false;
      on_reply(f, t);
      off += used;
    }
    std::memmove(in_.data(), in_.data() + off, len_ - off);
    len_ -= off;
    return true;
  }

  /// Send one request and wait for its reply (set-up and final checks).
  bool call(srv::WireOp op, std::uint64_t key, srv::Frame* reply) {
    queue(op, key, 0, 0);
    bool got = false;
    const std::uint64_t deadline = now_ns() + kDrainTimeoutNs;
    while (!got && now_ns() < deadline) {
      if (!flush() || !poll([&](const srv::Frame& f, std::uint64_t) {
            *reply = f;
            got = true;
          })) {
        return false;
      }
    }
    return got;
  }

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> out_;
  std::size_t off_ = 0;
  std::vector<std::uint8_t> in_ = std::vector<std::uint8_t>(1 << 16);
  std::size_t len_ = 0;
};

/// One SCHED_IDLE spinning thread on each server CPU while the ladder
/// runs. Without them an idle virtual CPU halts, and waking a halted one
/// costs the host's scheduling delay, often milliseconds on a shared host:
/// that would measure the hypervisor, not the server. A SCHED_IDLE thread
/// runs only when its CPU has nothing else to do and gives way the moment
/// a server thread wakes there.
class IdleSpinners {
 public:
  explicit IdleSpinners(unsigned cpus) {
    for (unsigned c = 0; c < cpus; ++c) {
      threads_.emplace_back([this, c] {
        pin_to_cpu(c);
        const sched_param p{0};
        ::sched_setscheduler(0, SCHED_IDLE, &p);
        while (!stop_.load(std::memory_order_relaxed)) {
          dlht::cpu_relax();
        }
      });
    }
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;
  ~IdleSpinners() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// What one generator thread measured in one ladder step.
struct StepTally {
  Histogram put, all, rtt, lag, sync, sync_rtt;
  std::vector<Histogram> win_get = std::vector<Histogram>(kWindows);
  std::vector<Histogram> win_all = std::vector<Histogram>(kWindows);
  std::vector<std::uint64_t> backlog;
  /// Replies by arrival time, in the step's rate windows.
  std::vector<std::uint64_t> win_replies;
  std::uint64_t requests = 0, replied = 0, bad = 0;
  std::uint64_t unsent = 0;  // due in the schedule, not sent in time
  std::uint64_t syncs = 0, syncs_ok = 0;
  std::uint64_t backlog_max = 0;
  std::uint64_t last_reply = 0;
};

/// Drive connection c through the first duration_ns of one step's
/// schedule, starting at t0. Thread 0 also sends the Syncs and reads the
/// steal counter at the step's window boundaries.
template <bool kTrace>
void drive_step(unsigned c, std::size_t step, std::uint64_t t0,
                std::uint64_t duration_ns, const Inputs& in,
                const KeySpace& ks, Wire& data, Wire* sync, Windows& clock,
                StepTally& out, ThreadTrace* tr) {
  const Schedule& sch = in.schedule[c][step];
  const std::size_t n = static_cast<std::size_t>(
      std::lower_bound(sch.at.begin(), sch.at.end(), duration_ns) -
      sch.at.begin());
  // Send times of the requests in flight: at most kMaxOutstanding.
  std::vector<std::uint64_t> sent(kMaxOutstanding);
  constexpr std::uint64_t kRing = kMaxOutstanding - 1;
  std::uint32_t put_seq = in.put_base[c][step];
  out.win_replies.assign(clock.count() + 1, 0);
  const std::size_t n_sync =
      sync != nullptr ? duration_ns / kSyncIntervalNs : 0;
  std::vector<std::uint64_t> sync_sent(n_sync);
  std::size_t next = 0, due = 0, got = 0, sync_next = 0, sync_got = 0;
  std::uint64_t next_sample = t0;
  const std::uint64_t end = t0 + duration_ns;
  const std::uint64_t deadline = end + kDrainTimeoutNs;
  bool cut = false;
  const std::uint64_t tag = static_cast<std::uint64_t>(step) << 32;
  bool broken = false;

  const auto on_data = [&](const srv::Frame& f, std::uint64_t t) {
    const std::uint64_t i = f.opaque - tag;
    if (i >= next || i + kMaxOutstanding < next) {
      ++out.bad;
      return;
    }
    const std::uint32_t op = sch.op[i];
    const std::uint64_t idx = op & ~kPutBit;
    const std::uint64_t key = ks.key(idx);
    const RequestTiming rt{t0 + sch.at[i], sent[i & kRing], t};
    const std::size_t w = std::min<std::uint64_t>(
        kWindows - 1, sch.at[i] * kWindows / duration_ns);
    out.win_all[w].add(rt.latency());
    bool ok;
    if (op & kPutBit) {
      ok = f.op == static_cast<std::uint8_t>(srv::WireStatus::kOk);
      out.put.add(rt.latency());
    } else {
      ok = f.op == static_cast<std::uint8_t>(srv::WireStatus::kOk) &&
           f.vallen == 8 && get_value_ok(in, idx, key, f.value);
      out.win_get[w].add(rt.latency());
    }
    out.all.add(rt.latency());
    out.rtt.add(rt.rtt());
    out.bad += !ok;
    ++got;
    ++out.win_replies[clock.index(t)];
    out.last_reply = t;
    if constexpr (kTrace) {
      tr->record(SpanName::kRequest, tag | i, rt.intended, t);
    }
  };
  const auto on_sync = [&](const srv::Frame& f, std::uint64_t t) {
    const std::uint64_t i = f.opaque;
    if (i >= sync_next) return;
    const RequestTiming rt{t0 + i * kSyncIntervalNs, sync_sent[i], t};
    out.sync.add(rt.latency());
    out.sync_rtt.add(rt.rtt());
    out.syncs_ok += f.op == static_cast<std::uint8_t>(srv::WireStatus::kOk);
    ++sync_got;
  };

  while (!broken) {
    const std::uint64_t now = now_ns();
    if (sync != nullptr) clock.sample(now);
    cut = cut || now > end + kSendGraceNs;
    while (due < n && t0 + sch.at[due] <= now) ++due;
    while (!cut && next < due && next - got < kMaxOutstanding) {
      const std::uint32_t op = sch.op[next];
      const std::uint64_t key = ks.key(op & ~kPutBit);
      if (op & kPutBit) {
        data.queue(srv::WireOp::kPut, key,
                   value_of(key, put_version(c, ++put_seq)), tag | next);
      } else {
        data.queue(srv::WireOp::kGet, key, 0, tag | next);
      }
      sent[next & kRing] = now;
      out.lag.add(RequestTiming{t0 + sch.at[next], now, now}.lag());
      ++next;
    }
    while (!cut && sync_next < n_sync &&
           t0 + sync_next * kSyncIntervalNs <= now) {
      sync->queue(srv::WireOp::kSync, 0, 0, sync_next);
      sync_sent[sync_next++] = now;
    }
    if (data.pending()) {
      broken |= !data.flush();
      if constexpr (kTrace) {
        tr->record(SpanName::kSend, tag | next, now, now_ns());
      }
    }
    if (sync != nullptr && sync->pending()) broken |= !sync->flush();
    if (now >= next_sample && now < t0 + duration_ns) {
      const std::uint64_t b = due - got;
      out.backlog.push_back(b);
      out.backlog_max = std::max(out.backlog_max, b);
      next_sample += kSampleNs;
    }
    broken |= !data.poll(on_data);
    if (sync != nullptr) broken |= !sync->poll(on_sync);
    const bool all_sent = cut || (next == n && sync_next == n_sync);
    if (now >= end && all_sent && got == next && sync_got == sync_next) {
      break;
    }
    if (now > deadline) break;
    // Spin, but give the CPU away on every turn: the server's WAL
    // committer shares a CPU with generator 1, and a committer that waits
    // out a spinner's time slice holds up every writer. Sleeping instead
    // lets the virtual CPU halt, and waking it again costs the host's
    // scheduling delay, which would measure the hypervisor.
    sched_yield();
  }
  out.requests = next;
  out.replied = got;
  out.bad += next - got;  // never answered
  out.unsent = (n - next) + (n_sync - sync_next);
  out.syncs = sync_next;
  out.bad += sync_next - out.syncs_ok;
}

struct Ladder {
  /// tally[step][c]
  std::vector<std::vector<StepTally>> tally;
  std::vector<LadderStep> steps;
  std::vector<std::uint64_t> t0;
  /// Each step's rate windows, with the steal the host took in each.
  std::vector<Windows> clock;
  /// Median over a step's windows after the first of its replies per
  /// second of CPU the machine was given: on the saturated last step, the
  /// node's capacity.
  std::vector<double> rate_mops;
  int best = -1;
  std::uint64_t bad = 0, attempted = 0;
};

/// Run the first `step_ns.size()` steps of the ladder, step s for
/// step_ns[s] ns of its schedule.
template <bool kTrace>
Ladder run_ladder(const std::vector<std::uint64_t>& step_ns,
                  const Inputs& in, const KeySpace& ks,
                  std::vector<std::unique_ptr<Wire>>& wires,
                  std::vector<ThreadTrace>* traces) {
  const std::size_t steps = step_ns.size();
  Ladder L;
  const IdleSpinners keep_server_cpus_awake(kServerShards);
  L.tally.assign(steps, std::vector<StepTally>(kDataConns));
  L.t0.assign(steps, 0);
  L.clock.assign(steps, Windows(0, kRateWindowNs, 2));
  std::size_t step = 0;
  std::barrier start(kDataConns, [&]() noexcept {
    if (step < steps) {
      L.t0[step] = now_ns() + 1'000'000;
      L.clock[step] = Windows(
          L.t0[step], kRateWindowNs,
          std::max<std::uint64_t>(2, step_ns[step] / kRateWindowNs));
    }
  });
  std::barrier finish(kDataConns, [&]() noexcept { ++step; });
  std::vector<std::thread> ts;
  for (unsigned c = 0; c < kDataConns; ++c) {
    ts.emplace_back([&, c] {
      // The server's shard threads and committer sit on the low CPUs.
      pin_to_cpu(kServerShards + c);
      while (true) {
        start.arrive_and_wait();
        const std::size_t s = step;
        if (s >= steps) break;
        drive_step<kTrace>(c, s, L.t0[s], step_ns[s], in, ks, *wires[c],
                           c == 0 ? wires[kDataConns].get() : nullptr,
                           L.clock[s], L.tally[s][c],
                           kTrace ? &(*traces)[c] : nullptr);
        finish.arrive_and_wait();
      }
    });
  }
  for (std::thread& t : ts) t.join();

  for (std::size_t s = 0; s < steps; ++s) {
    LadderStep st;
    st.offered_mops = kLadder[s];
    std::vector<Histogram> all(kWindows);
    const Windows& clock = L.clock[s];
    std::vector<double> win_replies(clock.count(), 0), win_cpu_s;
    std::uint64_t replied = 0, last = L.t0[s];
    for (const StepTally& t : L.tally[s]) {
      for (std::size_t w = 0; w < kWindows; ++w) all[w].merge(t.win_all[w]);
      for (std::size_t w = 0; w < clock.count(); ++w) {
        win_replies[w] += static_cast<double>(t.win_replies[w]);
      }
      replied += t.replied;
      last = std::max(last, t.last_reply);
      st.failed += t.bad;
      // A step that could not send its schedule in time did not keep up.
      st.backlog_grew |=
          backlog_growing(t.backlog, kBacklogSlack) || t.unsent > 0;
      L.attempted += t.requests + t.syncs;
    }
    for (std::size_t w = 0; w < clock.count(); ++w) {
      win_cpu_s.push_back(clock.cpu_seconds(w));
    }
    // The first window holds the ramp-up.
    win_replies.erase(win_replies.begin());
    win_cpu_s.erase(win_cpu_s.begin());
    L.rate_mops.push_back(median_rate(win_replies, win_cpu_s) * 1e-6);
    const double dur = std::max(static_cast<double>(step_ns[s]),
                                static_cast<double>(last - L.t0[s])) *
                       1e-9;
    st.achieved_mops = static_cast<double>(replied) / dur * 1e-6;
    st.p99_us = median_window_quantile(all, 0.99).value * 1e-3;
    L.bad += st.failed;
    L.steps.push_back(st);
  }
  L.best = highest_passing_step(L.steps, kP99LimitUs);
  return L;
}

void clear_dir(const std::string& dir) {
  if (DIR* d = ::opendir(dir.c_str())) {
    while (dirent* e = ::readdir(d)) {
      if (std::strcmp(e->d_name, ".") != 0 &&
          std::strcmp(e->d_name, "..") != 0) {
        ::unlink((dir + "/" + e->d_name).c_str());
      }
    }
    ::closedir(d);
  }
}

dlht::Options table_options() {
  dlht::Options o;
  o.initial_bins = kBins;
  return o;
}

/// The server and its three client connections.
struct Node {
  std::unique_ptr<srv::KvServer> server;
  std::vector<std::unique_ptr<Wire>> wires;  // data 0, data 1, sync
};

struct Setup {
  double total_s = 0, populate_s = 0, open_s = 0, start_s = 0;
};

/// Fresh WAL directory, 1M keys put through a DurableDLHT, then the server
/// started on that directory (replaying the log) and the clients connected.
bool set_up(const RunArgs& a, const KeySpace& ks, Node& node, Setup& s,
            Report& r, ThreadTrace* tr, std::uint64_t id) {
  clear_dir(a.wal_dir);
  {
    DurableDLHT d(table_options(), dlht::DurabilityOptions{a.wal_dir});
    const std::uint64_t t0 = now_ns();
    const Stopwatch open;
    if (d.open() != dlht::Status::kOk) return false;
    s.open_s = open.seconds();
    if (tr != nullptr) tr->record(SpanName::kDurableOpen, id, t0, now_ns());
    const std::uint64_t t1 = now_ns();
    const Stopwatch populate;
    std::atomic<std::uint64_t> bad{0};
    run_threads(kPopulateThreads, [&](unsigned t) {
      std::uint64_t b = 0;
      for (std::uint64_t i = t; i < kKeys; i += kPopulateThreads) {
        const std::uint64_t k = ks.key(i);
        b += d.insert(k, value_of(k, 0)) != dlht::Status::kOk;
      }
      bad += b;
    });
    d.close();
    s.populate_s = populate.seconds();
    if (tr != nullptr) tr->record(SpanName::kPopulate, id, t1, now_ns());
    r.add_checks(kKeys, bad.load());
  }
  const std::uint64_t t2 = now_ns();
  const Stopwatch start;
  srv::ServerOptions so;
  so.listen = "unix:" + a.socket;
  so.shards = kServerShards;
  so.durable_dir = a.wal_dir;
  so.table = table_options();
  node.server = std::make_unique<srv::KvServer>(so);
  if (!node.server->start()) return false;
  // Connections are dealt to shards round-robin in accept order: data 0
  // and the Sync connection land on shard 0, data 1 on shard 1.
  for (unsigned i = 0; i <= kDataConns; ++i) {
    node.wires.push_back(std::make_unique<Wire>());
    if (!node.wires.back()->connect(a.socket)) return false;
  }
  while (node.server->conns_accepted() < kDataConns + 1) {
    if (seconds_since(t2) > 10) return false;
    std::this_thread::yield();
  }
  s.start_s = start.seconds();
  if (tr != nullptr) tr->record(SpanName::kServerStart, id, t2, now_ns());
  return true;
}

}  // namespace

int run_kv_durable(const RunArgs& a, Report& r) {
  const std::string fs = fs_type(a.wal_dir);
  r.config("wal_dir_fs", fs);
  if (fs != "tmpfs") {
    std::fprintf(stderr,
                 "perfbench: WAL directory %s is %s, not tmpfs; refusing so "
                 "the flush policy cannot drift between runs\n",
                 a.wal_dir.c_str(), fs.c_str());
    return kExitNotTmpfs;
  }
  const KeySpace ks(a.seed);
  // Each step gets its share of the run; a traced run spends half its
  // time on an untraced ladder and half on a traced one.
  const double ladder_s = a.trace ? a.seconds / 2 : a.seconds;
  std::vector<double> step_s;
  std::vector<std::uint64_t> step_ns;
  for (std::size_t s = 0; s < kSteps; ++s) {
    step_s.push_back(ladder_s * kStepShare[s]);
    step_ns.push_back(static_cast<std::uint64_t>(step_s.back() * 1e9));
  }

  const std::uint64_t g0 = now_ns();
  const Inputs in = make_inputs(a.seed, step_s);
  r.config("generate_s", seconds_since(g0));
  // Set-up is repeated and its median reported, so that one slow set-up
  // does not decide the comparison.
  std::vector<Setup> setups(kSetups);
  // Generator threads' spans, then the main thread's (set-up, recovery).
  std::vector<ThreadTrace> traces;
  for (unsigned c = 0; a.trace && c <= kDataConns; ++c) {
    traces.emplace_back(1 << 14);
  }
  ThreadTrace* main_trace = a.trace ? &traces[kDataConns] : nullptr;
  Node node;
  for (int i = 0; i < kSetups; ++i) {
    node = Node{};
    const Stopwatch sw;
    if (!set_up(a, ks, node, setups[i], r, main_trace,
                static_cast<std::uint64_t>(i))) {
      std::fprintf(stderr, "perfbench: kv_durable set-up failed\n");
      return kExitSetup;
    }
    setups[i].total_s = sw.seconds();
  }
  srv::KvServer& server = *node.server;
  DurableDLHT& dur = *server.durable_tier();
  record_table_stats(r, "table_start", dur.core());

  Ladder untraced, traced;
  // Warm-up: the start of the first step, checked but not measured, so
  // the ladder starts after the set-up's memory has settled.
  static_assert(kReferenceStep == 0);
  const Ladder warmup = run_ladder<false>(
      {std::min(kWarmupNs, step_ns[0])}, in, ks, node.wires, nullptr);
  r.add_checks(warmup.attempted, warmup.bad);
  const std::uint64_t ladder_t0 = now_ns();
  untraced = run_ladder<false>(step_ns, in, ks, node.wires, nullptr);
  const DurableDLHT::Stats d0 = dur.stats();
  const std::uint64_t ops0 = server.total_ops();
  const std::uint64_t flushes0 = server.total_flushes();
  if (a.trace) {
    traced = run_ladder<true>(step_ns, in, ks, node.wires, &traces);
  }
  const Ladder& measured = a.trace ? traced : untraced;
  const DurableDLHT::Stats d1 = dur.stats();
  const std::uint64_t ops1 = server.total_ops();
  const std::uint64_t flushes1 = server.total_flushes();
  const double ladders_s = seconds_since(ladder_t0);
  r.add_checks(untraced.attempted, untraced.bad);
  if (a.trace) r.add_checks(traced.attempted, traced.bad);

  // Final barrier on both data connections, then the server's count.
  srv::Frame f;
  for (unsigned c = 0; c < kDataConns; ++c) {
    r.invariant(node.wires[c]->call(srv::WireOp::kSync, 0, &f) &&
                    f.op == static_cast<std::uint8_t>(srv::WireStatus::kOk),
                "final Sync acknowledged");
  }
  r.invariant(node.wires[kDataConns]->call(srv::WireOp::kCount, 0, &f) &&
                  f.value == kKeys,
              "server Count == populated keys");
  node.wires.clear();
  server.stop();

  // Read the table back, then reopen the directory afresh: the
  // recovered table must equal it exactly.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
  entries.reserve(kKeys);
  dur.for_each(
      [&](std::uint64_t k, std::uint64_t v) { entries.emplace_back(k, v); });
  std::sort(entries.begin(), entries.end());
  // Exactly the populated keys, each holding its populated value or one a
  // Put of the schedule wrote to it.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> populated;  // key, i
  populated.reserve(kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    populated.emplace_back(ks.key(i), i);
  }
  std::sort(populated.begin(), populated.end());
  std::uint64_t wrong = 0;
  for (std::size_t j = 0; j < entries.size() && j < kKeys; ++j) {
    const auto& [k, v] = entries[j];
    wrong += k != populated[j].first ||
             !get_value_ok(in, populated[j].second, k, v);
  }
  r.invariant(entries.size() == kKeys,
              "read-back for_each count == populated keys");
  r.invariant(dur.approx_size() == static_cast<std::int64_t>(kKeys),
              "approx_size() == populated keys");
  r.invariant(wrong == 0,
              "read-back keys are the populated keys, values ones written");
  record_table_stats(r, "table_end", dur.core());
  const DurableDLHT::Stats dfinal = dur.stats();
  const dlht::MergedLatency flush = server.flush_latency();
  if (a.trace) record_table_layers(r, dur.core(), ks, kKeys, kKeys, a.seed);
  node.server.reset();  // closes the durable tier: its last wal_sync

  const std::uint64_t tr0 = now_ns();
  const Stopwatch recover;
  DurableDLHT reopened(table_options(), dlht::DurabilityOptions{a.wal_dir});
  const bool opened = reopened.open() == dlht::Status::kOk;
  const double recover_s = recover.seconds();
  if (main_trace != nullptr) {
    main_trace->record(SpanName::kRecover, 0, tr0, now_ns());
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> recovered;
  recovered.reserve(kKeys);
  reopened.for_each(
      [&](std::uint64_t k, std::uint64_t v) { recovered.emplace_back(k, v); });
  std::sort(recovered.begin(), recovered.end());
  r.invariant(opened, "reopened WAL directory");
  r.invariant(recovered == entries,
              "recovered table == table read back after the final Sync");
  r.invariant(dfinal.io_errors == 0 && !dfinal.degraded, "no WAL IO errors");
  reopened.close();

  // End-to-end figures: the max rate, and latency at the reference step.
  StepTally ref;
  for (const StepTally& t : untraced.tally[kReferenceStep]) {
    for (std::size_t w = 0; w < kWindows; ++w) {
      ref.win_get[w].merge(t.win_get[w]);
    }
    ref.put.merge(t.put);
    ref.sync.merge(t.sync);
  }
  const double max_rate =
      untraced.best >= 0 ? untraced.steps[untraced.best].achieved_mops : 0.0;
  std::vector<double> setup_s;
  for (const Setup& s : setups) setup_s.push_back(s.total_s);
  r.gated("throughput_mops", untraced.rate_mops.back(), "Mops/s");
  r.gated("get_p50_us", median_window_quantile(ref.win_get, 0.50), "us",
          1e-3);
  r.extra("get_p99_us", median_window_quantile(ref.win_get, 0.99), "us", 1e-3);
  r.gated("setup_s", median(setup_s), "s");
  r.gated("peak_rss_mib", rss_mib("VmHWM"), "MiB");
  r.extra("max_rate_mops", max_rate, "Mops/s");
  r.extra("write_p50_us", ref.put.quantile(0.50), "us", 1e-3);
  r.extra("write_p99_us", ref.put.quantile(0.99), "us", 1e-3);
  r.extra("sync_p99_us", ref.sync.quantile(0.99), "us", 1e-3);
  r.extra("fail_ratio", fail_ratio(r.failed, r.attempted), "ratio");
  for (std::size_t s = 0; s < kSteps; ++s) {
    const LadderStep& st = untraced.steps[s];
    Histogram all;
    for (const StepTally& t : untraced.tally[s]) all.merge(t.all);
    std::uint64_t unsent = 0;
    for (const StepTally& t : untraced.tally[s]) unsent += t.unsent;
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "offered=%.3f achieved=%.4f rate=%.4f unsent=%llu "
                  "p50_us=%.1f p99_us=%.1f backlog_grew=%d failed=%llu",
                  st.offered_mops, st.achieved_mops, untraced.rate_mops[s],
                  static_cast<unsigned long long>(unsent),
                  all.quantile(0.5).value * 1e-3, st.p99_us,
                  st.backlog_grew ? 1 : 0,
                  static_cast<unsigned long long>(st.failed));
    r.config("ladder_step_" + std::to_string(s), buf);
  }
  r.config("reference_step_offered_mops", kLadder[kReferenceStep]);
  r.config("p99_limit_us", kP99LimitUs);
  std::string shares;
  for (const double s : step_s) shares += std::to_string(s) + " ";
  r.config("step_seconds", shares);
  r.config("loop", "open, Poisson arrivals");
  r.config("data_connections", kDataConns);
  r.config("server_shards", kServerShards);
  r.config("sync_interval_us", kSyncIntervalNs / 1000.0);
  r.config("flush_policy", "group commit: fsync per 64 records per WAL shard "
                           "+ 500 us committer");
  r.config("keys", static_cast<double>(kKeys));

  if (a.trace) {
    StepTally m;
    for (const StepTally& t : measured.tally[kReferenceStep]) {
      m.all.merge(t.all);
      m.rtt.merge(t.rtt);
      m.lag.merge(t.lag);
      m.sync_rtt.merge(t.sync_rtt);
    }
    std::uint64_t backlog_max = 0;
    if (measured.best >= 0) {
      for (const StepTally& t : measured.tally[measured.best]) {
        backlog_max = std::max(backlog_max, t.backlog_max);
      }
    }
    StepTally u;
    for (const StepTally& t : untraced.tally[kReferenceStep]) {
      u.all.merge(t.all);
    }
    std::vector<double> populate, open, start;
    for (const Setup& s : setups) {
      populate.push_back(s.populate_s);
      open.push_back(s.open_s);
      start.push_back(s.start_s);
    }
    const std::uint64_t records = d1.records_logged - d0.records_logged;
    r.layer("durability.records_per_fsync",
            static_cast<double>(records) /
                static_cast<double>(
                    std::max<std::uint64_t>(1, d1.syncs - d0.syncs)));
    r.layer("durability.wal_bytes_per_write",
            static_cast<double>(d1.wal_bytes - d0.wal_bytes) /
                static_cast<double>(std::max<std::uint64_t>(1, records)));
    r.layer("workload.populate_s", median(populate));
    r.layer("durability.open_s", median(open));
    r.layer("server.start_s", median(start));
    r.layer("durability.recover_s", recover_s);
    r.layer("server.ops_per_flush",
            static_cast<double>(ops1 - ops0) /
                static_cast<double>(
                    std::max<std::uint64_t>(1, flushes1 - flushes0)));
    r.layer("server.flush_busy_frac",
            static_cast<double>(flush.total_ns) * 1e-9 /
                (kServerShards * ladders_s));
    r.layer("server.flush_p50_us", static_cast<double>(flush.q1_ns) * 1e-3);
    r.layer("server.flush_p99_us", static_cast<double>(flush.q2_ns) * 1e-3);
    r.layer("client.rtt_p50_us", m.rtt.quantile(0.50), 1e-3);
    r.layer("client.rtt_p99_us", m.rtt.quantile(0.99), 1e-3);
    r.layer("client.sync_rtt_p50_us", m.sync_rtt.quantile(0.50), 1e-3);
    r.layer("client.backlog_max", static_cast<double>(backlog_max));
    r.layer("client.send_lag_p99_us", m.lag.quantile(0.99), 1e-3);
    r.layer("bench.trace_overhead_frac",
            m.all.quantile(0.50).value / u.all.quantile(0.50).value - 1.0);
    write_trace(a.trace_path, traces);
  }
  return 0;
}

}  // namespace perfbench
