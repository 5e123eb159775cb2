// Blocking pipelined client for the KV server. One KvClient is one
// connection; it deliberately implements the same surface as the table
// (`workload::DlhtLikeMap`), so the bench mixes in include/workload/ drive
// a remote node with zero changes — execute_batch/get_batch pipeline the
// whole batch as one write + one reply drain, which is exactly the client
// behaviour the server's batch former is designed to meet.
//
// Replies are matched by order: the server processes one connection's
// frames strictly FIFO (decode order -> batch order -> reply order), so
// the opaque field is carried for debugging, not for correlation.
//
// A send/recv failure (server killed mid-run) marks the connection dead;
// every subsequent op fails with kIOError instead of raising, which is
// what the kill-and-recover harness needs — the client must outlive the
// server's death and exit cleanly.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "dlht/dlht.hpp"
#include "server/protocol.hpp"

namespace dlht::server {

class KvClient {
 public:
  using Request = DLHT::Request;
  using Reply = DLHT::Reply;

  KvClient() = default;
  ~KvClient() { close(); }
  KvClient(const KvClient&) = delete;
  KvClient& operator=(const KvClient&) = delete;

  /// Connect to "unix:/path" or "host:port" (see parse_endpoint). False
  /// on failure, with a diagnostic on stderr.
  bool connect(const std::string& spec) {
    close();
    Endpoint ep;
    if (const char* err = parse_endpoint(spec, &ep)) {
      std::fprintf(stderr, "kv_client: bad endpoint '%s': %s\n", spec.c_str(),
                   err);
      return false;
    }
    fd_ = ::socket(ep.family(), SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    if (::connect(fd_, ep.sockaddr_ptr(), ep.len) != 0) {
      std::fprintf(stderr, "kv_client: connect(%s): %s\n", spec.c_str(),
                   std::strerror(errno));
      close();
      return false;
    }
    if (ep.family() == AF_INET) {
      const int on = 1;
      ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &on, sizeof on);
    }
    dead_ = false;
    return true;
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    dead_ = true;
    in_len_ = 0;
  }

  bool ok() const { return fd_ >= 0 && !dead_; }

  // ------------------------------------------- DlhtLikeMap surface

  std::optional<std::uint64_t> get(std::uint64_t key) const {
    Reply r;
    get_batch(&key, &r, 1);
    if (r.status != Status::kOk) return std::nullopt;
    return r.value;
  }

  /// Put succeeds whether it inserted or overwrote. dlht_server answers
  /// kOk for both; kExists for an overwrite is accepted too.
  bool put(std::uint64_t key, std::uint64_t value) {
    const Status s = mutate(WireOp::kPut, key, value);
    return s == Status::kOk || s == Status::kExists;
  }

  bool insert(std::uint64_t key, std::uint64_t value) {
    return mutate(WireOp::kInsert, key, value) == Status::kOk;
  }

  bool erase(std::uint64_t key) {
    return mutate(WireOp::kDelete, key, 0) == Status::kOk;
  }

  /// Pipelined mixed batch: encode all n requests, one send, drain n
  /// replies in order. On a dead connection every reply is kIOError.
  void execute_batch(const Request* reqs, Reply* reps, std::size_t n) {
    out_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      std::uint8_t buf[kHeaderBytes + 16];
      const std::size_t len =
          encode_request(buf, static_cast<WireOp>(reqs[i].op), reqs[i].key,
                         reqs[i].value, seq_++);
      out_.insert(out_.end(), buf, buf + len);
    }
    if (!send_all()) {
      fail_batch(reps, n);
      return;
    }
    recv_replies(reps, n);
    for (std::size_t i = 0; i < n; ++i) reps[i].user = reqs[i].user;
  }

  void get_batch(const std::uint64_t* keys, Reply* reps,
                 std::size_t n) const {
    auto* self = const_cast<KvClient*>(this);
    self->out_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      std::uint8_t buf[kHeaderBytes + 16];
      const std::size_t len =
          encode_request(buf, WireOp::kGet, keys[i], 0, self->seq_++);
      self->out_.insert(self->out_.end(), buf, buf + len);
    }
    if (!self->send_all()) {
      self->fail_batch(reps, n);
      return;
    }
    self->recv_replies(reps, n);
  }

  // ------------------------------------------- server-level verbs

  /// Durability barrier: kOk means every previously-acked op on this
  /// connection is on stable storage (trivially kOk on a non-durable node).
  Status sync() {
    std::uint8_t buf[kHeaderBytes + 16];
    out_.clear();
    const std::size_t len =
        encode_request(buf, WireOp::kSync, 0, 0, seq_++);
    out_.insert(out_.end(), buf, buf + len);
    Reply r;
    if (!send_all()) return Status::kIOError;
    recv_replies(&r, 1);
    return r.status;
  }

  /// Table size (approx_size(); exact when traffic is quiescent).
  std::int64_t count() {
    std::uint8_t buf[kHeaderBytes + 16];
    out_.clear();
    const std::size_t len =
        encode_request(buf, WireOp::kCount, 0, 0, seq_++);
    out_.insert(out_.end(), buf, buf + len);
    Reply r;
    if (!send_all()) return -1;
    recv_replies(&r, 1);
    if (r.status != Status::kOk) return -1;
    return static_cast<std::int64_t>(r.value);
  }

 private:
  Status mutate(WireOp op, std::uint64_t key, std::uint64_t value) {
    std::uint8_t buf[kHeaderBytes + 16];
    out_.clear();
    const std::size_t len = encode_request(buf, op, key, value, seq_++);
    out_.insert(out_.end(), buf, buf + len);
    Reply r;
    if (!send_all()) return Status::kIOError;
    recv_replies(&r, 1);
    return r.status;
  }

  bool send_all() {
    if (!ok()) return false;
    std::size_t off = 0;
    while (off < out_.size()) {
      const ssize_t w =
          ::send(fd_, out_.data() + off, out_.size() - off, MSG_NOSIGNAL);
      if (w > 0) {
        off += static_cast<std::size_t>(w);
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      dead_ = true;  // EPIPE / ECONNRESET: server is gone
      return false;
    }
    return true;
  }

  void fail_batch(Reply* reps, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      reps[i].status = Status::kIOError;
      reps[i].value = 0;
    }
  }

  void recv_replies(Reply* reps, std::size_t n) {
    std::size_t got = 0;
    while (got < n) {
      // Decode everything already buffered first.
      std::size_t off = 0;
      while (got < n) {
        Frame f;
        std::size_t consumed = 0;
        const Decode d =
            decode_reply(in_.data() + off, in_len_ - off, &f, &consumed);
        if (d == Decode::kNeedMore) break;
        if (d != Decode::kFrame) {
          dead_ = true;  // server spoke garbage: poison the connection
          break;
        }
        off += consumed;
        reps[got].status = from_wire(static_cast<WireStatus>(f.op));
        reps[got].value = f.vallen == 8 ? f.value : 0;
        ++got;
      }
      if (off > 0) {
        std::memmove(in_.data(), in_.data() + off, in_len_ - off);
        in_len_ -= off;
      }
      if (got == n) break;
      if (dead_) {
        fail_batch(reps + got, n - got);
        return;
      }
      if (in_len_ == in_.size()) in_.resize(in_.size() * 2);
      const ssize_t r =
          ::recv(fd_, in_.data() + in_len_, in_.size() - in_len_, 0);
      if (r > 0) {
        in_len_ += static_cast<std::size_t>(r);
        continue;
      }
      if (r < 0 && errno == EINTR) continue;
      dead_ = true;  // EOF or hard error mid-pipeline
      fail_batch(reps + got, n - got);
      return;
    }
  }

  int fd_ = -1;
  bool dead_ = true;
  std::uint64_t seq_ = 0;
  std::vector<std::uint8_t> out_;
  std::vector<std::uint8_t> in_ = std::vector<std::uint8_t>(4096);
  std::size_t in_len_ = 0;
};

}  // namespace dlht::server
