// Wire protocol for the DLHT KV server front end (include/server/).
//
// Two framings share one connection-level decoder contract: every parse
// function here is a *total* function over arbitrary bytes — any input
// yields kNeedMore, a frame, or a typed error; nothing throws, nothing
// reads past the length it is given (tests/protocol_test.cpp fuzzes both
// framings over random buffers, truncations, and bit flips under
// ASan/UBSan).
//
// Binary v1 (CRC-free; the durable tier owns integrity, the wire is a
// local/trusted transport): a fixed 16-byte little-endian header followed
// by the key and value payloads —
//
//     byte  0      magic 0xD1
//     byte  1      request: op (WireOp)   /   reply: status (WireStatus)
//     bytes 2-3    keylen  (u16; v1: 8 for keyed ops, else 0)
//     bytes 4-7    vallen  (u32; v1: 8 when a value rides along, else 0)
//     bytes 8-15   opaque  (u64, echoed verbatim into the reply)
//     then         keylen key bytes, vallen value bytes (little-endian u64)
//
// The lengths are carried on the wire (not implied by the op) so later
// versions can widen keys/values without re-framing; v1 servers reject
// anything over kMaxKeyLen/kMaxValLen as kOversized before buffering it.
//
// Text shim: enough of the memcached ASCII protocol (`get`, `set`,
// `delete`, `quit`) that off-the-shelf load generators can drive the
// server. Keys are decimal uint64; stored values are the first 8 data
// bytes, zero-padded. A connection commits to one framing with its first
// byte (0xD1 = binary — not printable ASCII, so the framings cannot
// collide).
//
// Endpoints: the server's listen address and the client's connect address
// are one spec, "unix:PATH" or "HOST:PORT", read by parse_endpoint.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>

#include "dlht/dlht.hpp"

namespace dlht::server {

inline constexpr std::uint8_t kMagic = 0xD1;
inline constexpr std::size_t kHeaderBytes = 16;
/// v1 payload bounds: fixed 8-byte keys and values (the DLHT core's
/// surface). The decoder classifies anything larger as kOversized without
/// consuming it, so a malicious length can never force buffering.
inline constexpr std::size_t kMaxKeyLen = 8;
inline constexpr std::size_t kMaxValLen = 8;
/// Hard cap on one memcached-text line / set-data block.
inline constexpr std::size_t kMaxTextLine = 1024;
inline constexpr std::size_t kMaxTextData = 4096;

/// Request ops. 0..3 mirror dlht::OpType so the batch former can cast
/// straight into DLHT::Request; 4+ are server-level verbs.
enum class WireOp : std::uint8_t {
  kGet = 0,
  kPut = 1,
  kInsert = 2,
  kDelete = 3,
  /// Durability barrier: ack only after wal_sync() succeeds — the client's
  /// commit point in --durable mode (kOk on a non-durable node).
  kSync = 4,
  /// Reply value = table approx_size(); the shutdown audit primitive.
  kCount = 5,
};

/// Reply status. 0..4 mirror dlht::Status; kBadRequest marks a frame the
/// server refused (malformed, oversized, unknown op) before touching the
/// table — the connection closes after it is sent.
enum class WireStatus : std::uint8_t {
  kOk = 0,
  kNotFound = 1,
  kExists = 2,
  kFull = 3,
  kIOError = 4,
  kBadRequest = 0xEE,
};

struct Frame {
  std::uint8_t op = 0;  // WireOp in requests, WireStatus in replies
  std::uint16_t keylen = 0;
  std::uint32_t vallen = 0;
  std::uint64_t opaque = 0;
  std::uint64_t key = 0;
  std::uint64_t value = 0;
};

enum class Decode : std::uint8_t {
  kNeedMore = 0,  // keep the bytes, wait for the rest of the frame
  kFrame,         // *out valid, *consumed bytes eaten
  kBadMagic,      // first byte of a frame is not kMagic
  kBadOp,         // unknown WireOp
  kOversized,     // keylen/vallen over the v1 bounds
  kBadShape,      // lengths inconsistent with the op (e.g. Get with a value)
};

inline std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

inline void store_le64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Decode one request frame from buf[0..n). Total function: every byte
/// string maps to exactly one Decode value; *consumed is set only on
/// kFrame (errors consume nothing — the caller drops the connection, so
/// resynchronization is not a goal).
inline Decode decode_request(const std::uint8_t* buf, std::size_t n,
                             Frame* out, std::size_t* consumed) {
  if (n < 1) return Decode::kNeedMore;
  if (buf[0] != kMagic) return Decode::kBadMagic;
  if (n < kHeaderBytes) return Decode::kNeedMore;
  Frame f;
  f.op = buf[1];
  f.keylen = static_cast<std::uint16_t>(buf[2] | (buf[3] << 8));
  f.vallen = static_cast<std::uint32_t>(buf[4]) |
             (static_cast<std::uint32_t>(buf[5]) << 8) |
             (static_cast<std::uint32_t>(buf[6]) << 16) |
             (static_cast<std::uint32_t>(buf[7]) << 24);
  f.opaque = load_le64(buf + 8);
  if (f.op > static_cast<std::uint8_t>(WireOp::kCount)) return Decode::kBadOp;
  if (f.keylen > kMaxKeyLen || f.vallen > kMaxValLen) {
    return Decode::kOversized;
  }
  const WireOp op = static_cast<WireOp>(f.op);
  const bool keyed = op == WireOp::kGet || op == WireOp::kPut ||
                     op == WireOp::kInsert || op == WireOp::kDelete;
  const bool valued = op == WireOp::kPut || op == WireOp::kInsert;
  if (keyed != (f.keylen == 8)) return Decode::kBadShape;
  if (valued != (f.vallen == 8)) return Decode::kBadShape;
  const std::size_t total = kHeaderBytes + f.keylen + f.vallen;
  if (n < total) return Decode::kNeedMore;
  if (f.keylen == 8) f.key = load_le64(buf + kHeaderBytes);
  if (f.vallen == 8) f.value = load_le64(buf + kHeaderBytes + f.keylen);
  *out = f;
  *consumed = total;
  return Decode::kFrame;
}

/// Decode one reply frame (client side). Same totality contract; replies
/// never carry a key, only an optional 8-byte value.
inline Decode decode_reply(const std::uint8_t* buf, std::size_t n, Frame* out,
                           std::size_t* consumed) {
  if (n < 1) return Decode::kNeedMore;
  if (buf[0] != kMagic) return Decode::kBadMagic;
  if (n < kHeaderBytes) return Decode::kNeedMore;
  Frame f;
  f.op = buf[1];
  f.keylen = static_cast<std::uint16_t>(buf[2] | (buf[3] << 8));
  f.vallen = static_cast<std::uint32_t>(buf[4]) |
             (static_cast<std::uint32_t>(buf[5]) << 8) |
             (static_cast<std::uint32_t>(buf[6]) << 16) |
             (static_cast<std::uint32_t>(buf[7]) << 24);
  f.opaque = load_le64(buf + 8);
  if (f.keylen != 0 || (f.vallen != 0 && f.vallen != 8)) {
    return Decode::kBadShape;
  }
  const std::size_t total = kHeaderBytes + f.vallen;
  if (n < total) return Decode::kNeedMore;
  if (f.vallen == 8) f.value = load_le64(buf + kHeaderBytes);
  *out = f;
  *consumed = total;
  return Decode::kFrame;
}

/// Encode a request into dst (must hold kHeaderBytes + 16). Returns bytes
/// written.
inline std::size_t encode_request(std::uint8_t* dst, WireOp op,
                                  std::uint64_t key, std::uint64_t value,
                                  std::uint64_t opaque) {
  const bool keyed = op == WireOp::kGet || op == WireOp::kPut ||
                     op == WireOp::kInsert || op == WireOp::kDelete;
  const bool valued = op == WireOp::kPut || op == WireOp::kInsert;
  dst[0] = kMagic;
  dst[1] = static_cast<std::uint8_t>(op);
  dst[2] = keyed ? 8 : 0;
  dst[3] = 0;
  dst[4] = valued ? 8 : 0;
  dst[5] = dst[6] = dst[7] = 0;
  store_le64(dst + 8, opaque);
  std::size_t off = kHeaderBytes;
  if (keyed) {
    store_le64(dst + off, key);
    off += 8;
  }
  if (valued) {
    store_le64(dst + off, value);
    off += 8;
  }
  return off;
}

/// Encode a reply into dst (must hold kHeaderBytes + 8). `has_value`
/// attaches an 8-byte value (Get hits, Count).
inline std::size_t encode_reply(std::uint8_t* dst, WireStatus st,
                                std::uint64_t value, bool has_value,
                                std::uint64_t opaque) {
  dst[0] = kMagic;
  dst[1] = static_cast<std::uint8_t>(st);
  dst[2] = dst[3] = 0;
  dst[4] = has_value ? 8 : 0;
  dst[5] = dst[6] = dst[7] = 0;
  store_le64(dst + 8, opaque);
  if (!has_value) return kHeaderBytes;
  store_le64(dst + kHeaderBytes, value);
  return kHeaderBytes + 8;
}

inline WireStatus to_wire(Status s) {
  switch (s) {
    case Status::kOk: return WireStatus::kOk;
    case Status::kNotFound: return WireStatus::kNotFound;
    case Status::kExists: return WireStatus::kExists;
    case Status::kFull: return WireStatus::kFull;
    case Status::kIOError: return WireStatus::kIOError;
  }
  return WireStatus::kBadRequest;
}

inline Status from_wire(WireStatus s) {
  switch (s) {
    case WireStatus::kOk: return Status::kOk;
    case WireStatus::kNotFound: return Status::kNotFound;
    case WireStatus::kExists: return Status::kExists;
    case WireStatus::kFull: return Status::kFull;
    default: return Status::kIOError;  // kIOError and kBadRequest both fail
  }
}

// ------------------------------------------------------- memcached shim

/// One parsed text command. For kSet the server must still consume
/// `set_bytes` data bytes plus a trailing CRLF before the op can run.
struct TextCommand {
  enum class Kind : std::uint8_t { kGet, kSet, kDelete, kQuit, kError };
  Kind kind = Kind::kError;
  std::uint64_t key = 0;
  std::uint32_t set_bytes = 0;
};

namespace detail_text {

/// Bounded uint64 parse: [p, end) must be all digits, at least one. Total:
/// overflow and junk both return false.
inline bool parse_u64(const char* p, const char* end, std::uint64_t* out) {
  if (p == end) return false;
  std::uint64_t v = 0;
  for (; p != end; ++p) {
    if (*p < '0' || *p > '9') return false;
    const std::uint64_t d = static_cast<std::uint64_t>(*p - '0');
    if (v > (~0ull - d) / 10) return false;
    v = v * 10 + d;
  }
  *out = v;
  return true;
}

/// [start, end) of the next space-separated token at *p (spaces skipped);
/// advances *p past it. Empty token = end of line.
inline std::pair<const char*, const char*> next_token(const char** p,
                                                      const char* end) {
  const char* s = *p;
  while (s != end && *s == ' ') ++s;
  const char* e = s;
  while (e != end && *e != ' ') ++e;
  *p = e;
  return {s, e};
}

}  // namespace detail_text

/// Parse one memcached-text command line (without the trailing CRLF/LF —
/// the caller strips it). Total function: any line maps to a TextCommand,
/// unknown/malformed ones to Kind::kError. Supported:
///     get <key>            (single key; multi-get riders are kError)
///     set <key> <flags> <exptime> <bytes> [noreply is NOT supported]
///     delete <key>
///     quit
inline TextCommand parse_text_line(const char* line, std::size_t len) {
  using detail_text::next_token;
  using detail_text::parse_u64;
  TextCommand c;
  const char* p = line;
  const char* end = line + len;
  auto [cs, ce] = next_token(&p, end);
  const std::size_t clen = static_cast<std::size_t>(ce - cs);
  auto is = [&](const char* w) {
    return clen == std::strlen(w) && std::memcmp(cs, w, clen) == 0;
  };
  if (is("quit")) {
    auto [xs, xe] = next_token(&p, end);
    c.kind = xs == xe ? TextCommand::Kind::kQuit : TextCommand::Kind::kError;
    return c;
  }
  if (is("get") || is("gets") || is("delete")) {
    auto [ks, ke] = next_token(&p, end);
    if (!parse_u64(ks, ke, &c.key)) return c;
    auto [xs, xe] = next_token(&p, end);
    if (xs != xe) return c;  // multi-get / trailing junk: refused in v1
    c.kind = (cs[0] == 'd') ? TextCommand::Kind::kDelete
                            : TextCommand::Kind::kGet;
    return c;
  }
  if (is("set")) {
    auto [ks, ke] = next_token(&p, end);
    if (!parse_u64(ks, ke, &c.key)) return c;
    std::uint64_t flags, exptime, bytes;
    auto [fs, fe] = next_token(&p, end);
    if (!parse_u64(fs, fe, &flags)) return c;
    auto [es, ee] = next_token(&p, end);
    if (!parse_u64(es, ee, &exptime)) return c;
    auto [bs, be] = next_token(&p, end);
    if (!parse_u64(bs, be, &bytes) || bytes > kMaxTextData) return c;
    auto [xs, xe] = next_token(&p, end);
    if (xs != xe) return c;
    c.kind = TextCommand::Kind::kSet;
    c.set_bytes = static_cast<std::uint32_t>(bytes);
    return c;
  }
  return c;
}

/// Fold a text set's data block into the u64 value the table stores: the
/// first 8 bytes little-endian, zero-padded (the shim's documented v1
/// narrowing — binary clients should use the native framing).
inline std::uint64_t text_value(const std::uint8_t* data, std::size_t n) {
  std::uint64_t v = 0;
  const std::size_t m = n < 8 ? n : 8;
  for (std::size_t i = 0; i < m; ++i) {
    v |= static_cast<std::uint64_t>(data[i]) << (8 * i);
  }
  return v;
}

// ------------------------------------------------------------- endpoints

/// A parsed listen/connect address: the socket family and the address to
/// bind or connect to.
struct Endpoint {
  sockaddr_storage addr{};
  socklen_t len = 0;

  int family() const { return addr.ss_family; }
  const sockaddr* sockaddr_ptr() const {
    return reinterpret_cast<const sockaddr*>(&addr);
  }
  /// A unix endpoint's socket path.
  const char* unix_path() const {
    return reinterpret_cast<const char*>(&addr) +
           offsetof(sockaddr_un, sun_path);
  }
};

/// Parse "unix:PATH" (PATH must fit sun_path) or "HOST:PORT" (an IPv4
/// address and a decimal port in 1..65535, all of it) into *out. Returns
/// nullptr, or why anything else is not an endpoint.
inline const char* parse_endpoint(const std::string& spec, Endpoint* out) {
  *out = Endpoint{};
  if (spec.rfind("unix:", 0) == 0) {
    sockaddr_un un{};
    const std::size_t n = spec.size() - 5;
    if (n + 1 > sizeof un.sun_path) return "unix path does not fit sun_path";
    un.sun_family = AF_UNIX;
    std::memcpy(un.sun_path, spec.c_str() + 5, n + 1);
    std::memcpy(&out->addr, &un, sizeof un);
    out->len = sizeof un;
    return nullptr;
  }
  const auto colon = spec.rfind(':');
  sockaddr_in in{};
  in.sin_family = AF_INET;
  std::uint64_t port = 0;
  if (colon == std::string::npos ||
      ::inet_pton(AF_INET, spec.substr(0, colon).c_str(), &in.sin_addr) !=
          1) {
    return "expected unix:PATH or HOST:PORT with an IPv4 host";
  }
  if (!detail_text::parse_u64(spec.data() + colon + 1,
                              spec.data() + spec.size(), &port) ||
      port < 1 || port > 65535) {
    return "port must be a decimal in 1..65535";
  }
  in.sin_port = htons(static_cast<std::uint16_t>(port));
  std::memcpy(&out->addr, &in, sizeof in);
  out->len = sizeof in;
  return nullptr;
}

/// A command-line flag's endpoint: a spec parse_endpoint rejects refuses
/// with exit 2, naming the flag.
inline std::string endpoint_flag_or_die(const char* flag,
                                        const std::string& spec) {
  Endpoint ep;
  if (const char* err = parse_endpoint(spec, &ep)) {
    std::fprintf(stderr, "bad %s value '%s': %s\n", flag, spec.c_str(), err);
    std::exit(2);
  }
  return spec;
}

}  // namespace dlht::server
