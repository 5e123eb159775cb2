// Wire-protocol decoder tests (include/server/protocol.hpp).
//
// The contract under test: every parse function is a *total* function over
// arbitrary bytes — any buffer yields kNeedMore, a frame, or a typed
// error, without reading past the supplied length (run under ASan/UBSan in
// CI; an overread or UB here is a crash, not a silent pass).
//
// Coverage: encode/decode roundtrips for every op; every truncation point
// of a valid frame reports kNeedMore; bad magic / unknown op / oversized
// lengths / op-inconsistent shapes are classified without consuming;
// random-buffer and single-bit-flip fuzzing on exactly-sized heap
// allocations (so overreads trip ASan); memcached text-line parsing incl.
// malformed lines, overflow keys, and the set-data state machine inputs;
// listen/connect endpoint specs.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "server/protocol.hpp"

namespace {

using namespace dlht::server;

int g_failures = 0;

#define CHECK(cond)                                                       \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                       \
    }                                                                     \
  } while (0)

/// Copy bytes into an exactly-sized heap buffer so any decoder overread
/// lands in an ASan redzone instead of padding.
struct Exact {
  explicit Exact(const std::uint8_t* src, std::size_t len)
      : buf(len != 0 ? new std::uint8_t[len] : nullptr), n(len) {
    if (len != 0) std::memcpy(buf.get(), src, len);
  }
  const std::uint8_t* data() const { return buf.get(); }
  std::unique_ptr<std::uint8_t[]> buf;
  std::size_t n;
};

void test_request_roundtrips() {
  struct Case {
    WireOp op;
    std::uint64_t key, value;
  };
  const Case cases[] = {
      {WireOp::kGet, 42, 0},
      {WireOp::kPut, ~0ull, 0x1122334455667788ull},
      {WireOp::kInsert, 1, 1},
      {WireOp::kDelete, 0xdeadbeefull, 0},
      {WireOp::kSync, 0, 0},
      {WireOp::kCount, 0, 0},
  };
  std::uint64_t opaque = 7;
  for (const Case& c : cases) {
    std::uint8_t raw[kHeaderBytes + 16];
    const std::size_t len =
        encode_request(raw, c.op, c.key, c.value, opaque);
    Exact e(raw, len);
    Frame f;
    std::size_t consumed = 0;
    CHECK(decode_request(e.data(), e.n, &f, &consumed) == Decode::kFrame);
    CHECK(consumed == len);
    CHECK(f.op == static_cast<std::uint8_t>(c.op));
    CHECK(f.opaque == opaque);
    const bool keyed = c.op != WireOp::kSync && c.op != WireOp::kCount;
    const bool valued = c.op == WireOp::kPut || c.op == WireOp::kInsert;
    if (keyed) CHECK(f.key == c.key);
    if (valued) CHECK(f.value == c.value);
    // Every strict prefix is kNeedMore: the decoder never commits early.
    for (std::size_t cut = 0; cut < len; ++cut) {
      Exact pre(raw, cut);
      Frame pf;
      std::size_t pc = 0;
      CHECK(decode_request(pre.data(), pre.n, &pf, &pc) == Decode::kNeedMore);
    }
    ++opaque;
  }
}

void test_reply_roundtrips() {
  const WireStatus sts[] = {WireStatus::kOk, WireStatus::kNotFound,
                            WireStatus::kExists, WireStatus::kFull,
                            WireStatus::kIOError, WireStatus::kBadRequest};
  for (const WireStatus st : sts) {
    for (const bool has_value : {false, true}) {
      std::uint8_t raw[kHeaderBytes + 8];
      const std::size_t len = encode_reply(raw, st, 0xabcdefull, has_value, 9);
      Exact e(raw, len);
      Frame f;
      std::size_t consumed = 0;
      CHECK(decode_reply(e.data(), e.n, &f, &consumed) == Decode::kFrame);
      CHECK(consumed == len);
      CHECK(f.op == static_cast<std::uint8_t>(st));
      CHECK(f.opaque == 9);
      if (has_value) CHECK(f.value == 0xabcdefull);
      for (std::size_t cut = 0; cut < len; ++cut) {
        Exact pre(raw, cut);
        Frame pf;
        std::size_t pc = 0;
        CHECK(decode_reply(pre.data(), pre.n, &pf, &pc) == Decode::kNeedMore);
      }
    }
  }
}

void test_typed_errors() {
  Frame f;
  std::size_t consumed = 0;

  // Bad magic classifies from the very first byte.
  const std::uint8_t junk[1] = {0x00};
  Exact j(junk, 1);
  CHECK(decode_request(j.data(), j.n, &f, &consumed) == Decode::kBadMagic);
  CHECK(decode_reply(j.data(), j.n, &f, &consumed) == Decode::kBadMagic);

  // Unknown op.
  std::uint8_t raw[kHeaderBytes + 16];
  std::size_t len = encode_request(raw, WireOp::kGet, 5, 0, 0);
  raw[1] = 99;
  {
    Exact e(raw, len);
    CHECK(decode_request(e.data(), e.n, &f, &consumed) == Decode::kBadOp);
  }

  // Oversized keylen: classified from the header alone, before any
  // payload arrives — a hostile length can never force buffering.
  len = encode_request(raw, WireOp::kGet, 5, 0, 0);
  raw[2] = 0xff;
  raw[3] = 0xff;
  {
    Exact e(raw, kHeaderBytes);
    CHECK(decode_request(e.data(), e.n, &f, &consumed) == Decode::kOversized);
  }
  // Oversized vallen likewise.
  len = encode_request(raw, WireOp::kPut, 5, 6, 0);
  raw[6] = 0x01;
  {
    Exact e(raw, kHeaderBytes);
    CHECK(decode_request(e.data(), e.n, &f, &consumed) == Decode::kOversized);
  }

  // Shape violations: Get with a value, Put without one, Sync with a key.
  len = encode_request(raw, WireOp::kGet, 5, 0, 0);
  raw[4] = 8;
  {
    Exact e(raw, kHeaderBytes);
    CHECK(decode_request(e.data(), e.n, &f, &consumed) == Decode::kBadShape);
  }
  len = encode_request(raw, WireOp::kPut, 5, 6, 0);
  raw[4] = 0;
  {
    Exact e(raw, kHeaderBytes);
    CHECK(decode_request(e.data(), e.n, &f, &consumed) == Decode::kBadShape);
  }
  len = encode_request(raw, WireOp::kSync, 0, 0, 0);
  raw[2] = 8;
  {
    Exact e(raw, kHeaderBytes);
    CHECK(decode_request(e.data(), e.n, &f, &consumed) == Decode::kBadShape);
  }
  // Replies never carry a key.
  len = encode_reply(raw, WireStatus::kOk, 1, true, 0);
  raw[2] = 8;
  {
    Exact e(raw, kHeaderBytes);
    CHECK(decode_reply(e.data(), e.n, &f, &consumed) == Decode::kBadShape);
  }
}

/// Random buffers at every length 0..64: the decoder must classify each
/// without reading past the end (Exact puts the end on an ASan redzone).
void test_random_fuzz() {
  dlht::Xoshiro256 rng(0xf022u);
  for (int iter = 0; iter < 20000; ++iter) {
    const std::size_t n = rng.next_below(65);
    std::uint8_t raw[64];
    for (std::size_t i = 0; i < n; ++i) {
      raw[i] = static_cast<std::uint8_t>(rng());
    }
    Exact e(raw, n);
    Frame f;
    std::size_t consumed = 0;
    const Decode dr = decode_request(e.data(), e.n, &f, &consumed);
    if (dr == Decode::kFrame) CHECK(consumed <= n);
    consumed = 0;
    const Decode dp = decode_reply(e.data(), e.n, &f, &consumed);
    if (dp == Decode::kFrame) CHECK(consumed <= n);
  }
}

/// Single-bit flips over valid frames: decode must stay total and any
/// surviving kFrame must still be in-bounds.
void test_bitflip_fuzz() {
  std::uint8_t raw[kHeaderBytes + 16];
  const std::size_t len =
      encode_request(raw, WireOp::kPut, 0x1234, 0x5678, 0x9abc);
  for (std::size_t byte = 0; byte < len; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::uint8_t mut[kHeaderBytes + 16];
      std::memcpy(mut, raw, len);
      mut[byte] ^= static_cast<std::uint8_t>(1u << bit);
      Exact e(mut, len);
      Frame f;
      std::size_t consumed = 0;
      const Decode d = decode_request(e.data(), e.n, &f, &consumed);
      if (d == Decode::kFrame) CHECK(consumed <= len);
    }
  }
}

// A spec is a unix path that fits sun_path or an IPv4 host with a whole
// decimal port in 1..65535; anything else is refused, never bound to
// another port.
void test_endpoints() {
  Endpoint ep;
  CHECK(parse_endpoint("unix:/tmp/kv.sock", &ep) == nullptr);
  CHECK(ep.family() == AF_UNIX);
  CHECK(std::strcmp(ep.unix_path(), "/tmp/kv.sock") == 0);
  const std::size_t longest = sizeof(sockaddr_un{}.sun_path) - 1;
  CHECK(parse_endpoint("unix:" + std::string(longest, 'p'), &ep) == nullptr);
  CHECK(parse_endpoint("unix:" + std::string(longest + 1, 'p'), &ep) !=
        nullptr);
  for (const std::uint16_t port : {1, 11311, 65535}) {
    CHECK(parse_endpoint("127.0.0.1:" + std::to_string(port), &ep) ==
          nullptr);
    CHECK(ep.family() == AF_INET);
    sockaddr_in in{};
    std::memcpy(&in, &ep.addr, sizeof in);
    CHECK(ntohs(in.sin_port) == port);
  }
  for (const char* bad :
       {"127.0.0.1:0", "127.0.0.1:65536", "127.0.0.1:70000", "127.0.0.1:abc",
        "127.0.0.1:", "127.0.0.1:+80", "127.0.0.1:80x", "localhost:80",
        "11311", ""}) {
    CHECK(parse_endpoint(bad, &ep) != nullptr);
  }
}

void test_text_lines() {
  auto parse = [](const std::string& s) {
    Exact e(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
    return parse_text_line(reinterpret_cast<const char*>(e.data()), e.n);
  };
  CHECK(parse("get 42").kind == TextCommand::Kind::kGet);
  CHECK(parse("get 42").key == 42);
  CHECK(parse("gets 7").kind == TextCommand::Kind::kGet);
  CHECK(parse("delete 9").kind == TextCommand::Kind::kDelete);
  CHECK(parse("quit").kind == TextCommand::Kind::kQuit);
  {
    const TextCommand c = parse("set 5 0 0 8");
    CHECK(c.kind == TextCommand::Kind::kSet);
    CHECK(c.key == 5);
    CHECK(c.set_bytes == 8);
  }
  // Malformed / unsupported lines are kError, never UB.
  CHECK(parse("").kind == TextCommand::Kind::kError);
  CHECK(parse("   ").kind == TextCommand::Kind::kError);
  CHECK(parse("get").kind == TextCommand::Kind::kError);
  CHECK(parse("get x").kind == TextCommand::Kind::kError);
  CHECK(parse("get 1 2").kind == TextCommand::Kind::kError);  // multi-get
  CHECK(parse("get 99999999999999999999999").kind ==
        TextCommand::Kind::kError);  // u64 overflow
  CHECK(parse("set 5 0 0").kind == TextCommand::Kind::kError);
  CHECK(parse("set 5 0 0 99999").kind == TextCommand::Kind::kError);  // > cap
  CHECK(parse("set 5 0 0 8 trailing").kind == TextCommand::Kind::kError);
  CHECK(parse("quit now").kind == TextCommand::Kind::kError);
  CHECK(parse("flush_all").kind == TextCommand::Kind::kError);
  CHECK(parse(std::string(1000, 'a')).kind == TextCommand::Kind::kError);

  // Random text fuzz: arbitrary bytes (no NUL assumption) stay total.
  dlht::Xoshiro256 rng(77);
  for (int iter = 0; iter < 20000; ++iter) {
    const std::size_t n = rng.next_below(48);
    std::uint8_t raw[48];
    for (std::size_t i = 0; i < n; ++i) {
      raw[i] = static_cast<std::uint8_t>(rng());
    }
    Exact e(raw, n);
    (void)parse_text_line(reinterpret_cast<const char*>(e.data()), e.n);
  }

  // text_value folds the first 8 bytes little-endian, zero-padded.
  const std::uint8_t data[3] = {0x01, 0x02, 0x03};
  Exact e(data, 3);
  CHECK(text_value(e.data(), e.n) == 0x030201ull);
}

}  // namespace

int main() {
  test_request_roundtrips();
  test_reply_roundtrips();
  test_typed_errors();
  test_random_fuzz();
  test_bitflip_fuzz();
  test_text_lines();
  test_endpoints();
  if (g_failures != 0) {
    std::fprintf(stderr, "protocol_test: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("protocol_test OK\n");
  return 0;
}
