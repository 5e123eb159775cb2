// Spans around every call the benchmark makes into a layer's public
// function. Each worker thread owns one ThreadTrace: spans are recorded in
// that thread's memory with no sharing, and written out once the run ends.
// Per-name totals cover every span; only the first `keep` spans of a
// thread are stored whole, so a long run's trace file stays small.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace perfbench {

enum class SpanName : std::uint8_t {
  kRound,         // one benchmark loop iteration (parent of the calls below)
  kGet,           // DLHT::get
  kGetBatch,      // DLHT::get_batch
  kExecuteBatch,  // DLHT::execute_batch
  kInsert,        // DLHT::insert
  kPut,           // DLHT::put
  kErase,         // DLHT::extract (erase that returns the removed value)
  kPopulate,      // loading the initial keys
  kDurableOpen,   // DurableDLHT::open
  kServerStart,   // KvServer::start plus connecting the clients
  kRecover,       // DurableDLHT::open on the stopped server's directory
  kRequest,       // one network request, intended send to reply
  kSend,          // the write(2) that carried a request
  kCount_,
};

inline constexpr std::array<const char*, static_cast<std::size_t>(
                                             SpanName::kCount_)>
    kSpanNames = {"bench.round",       "dlht.get",
                  "dlht.get_batch",    "dlht.execute_batch",
                  "dlht.insert",       "dlht.put",
                  "dlht.erase",        "workload.populate",
                  "durability.open",   "server.start",
                  "durability.recover", "client.request",
                  "client.send"};

/// A finished span. `parent` is the id of the enclosing span on the same
/// thread, or kNoParent.
struct Span {
  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint64_t request = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = kNoParent;
  SpanName name = SpanName::kRound;
};

/// Totals per span name. Self time is a span's duration minus the part its
/// children cover; children on one thread run one after another, so that
/// part is the sum of their durations.
struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t over_100us = 0;  // spans longer than 100 us
};

class ThreadTrace {
 public:
  explicit ThreadTrace(std::size_t keep) : keep_(keep) { kept_.reserve(keep); }

  /// Open a span at time `now`; it nests under the innermost open span.
  void begin(SpanName name, std::uint64_t request, std::uint64_t now) {
    const std::uint32_t parent =
        open_.empty() ? Span::kNoParent : open_.back().id;
    open_.push_back(Frame{now, request, 0, next_id_++, parent, name});
  }

  /// Close the innermost open span at time `now`.
  void end(std::uint64_t now) {
    const Frame f = open_.back();
    open_.pop_back();
    finish(f, now);
    if (!open_.empty()) open_.back().child_ns += now - f.start;
  }

  /// Record a finished top-level span whose interval overlaps others on
  /// this thread (open-loop requests are in flight together, so they do
  /// not nest). It has no children, so its self time is its duration.
  void record(SpanName name, std::uint64_t request, std::uint64_t start,
              std::uint64_t end) {
    finish(Frame{start, request, 0, next_id_++, Span::kNoParent, name}, end);
  }

  const SpanTotals& totals(SpanName n) const {
    return totals_[static_cast<std::size_t>(n)];
  }
  const std::vector<Span>& kept() const { return kept_; }

  /// Append this thread's stored spans as CSV rows.
  void write_csv(std::FILE* f, unsigned thread) const {
    for (const Span& s : kept_) {
      std::fprintf(f, "%u,%u,%ld,%s,%llu,%llu,%llu\n", thread, s.id,
                   s.parent == Span::kNoParent ? -1L
                                               : static_cast<long>(s.parent),
                   kSpanNames[static_cast<std::size_t>(s.name)],
                   static_cast<unsigned long long>(s.request),
                   static_cast<unsigned long long>(s.start),
                   static_cast<unsigned long long>(s.end));
    }
  }

 private:
  struct Frame {
    std::uint64_t start;
    std::uint64_t request;
    std::uint64_t child_ns;
    std::uint32_t id;
    std::uint32_t parent;
    SpanName name;
  };

  void finish(const Frame& f, std::uint64_t now) {
    const std::uint64_t dur = now - f.start;
    SpanTotals& t = totals_[static_cast<std::size_t>(f.name)];
    ++t.count;
    t.total_ns += dur;
    t.self_ns += dur - f.child_ns;
    if (dur > 100'000) ++t.over_100us;
    if (kept_.size() < keep_) {
      kept_.push_back(Span{f.start, now, f.request, f.id, f.parent, f.name});
    }
  }

  std::size_t keep_;
  std::uint32_t next_id_ = 0;
  std::vector<Frame> open_;
  std::vector<Span> kept_;
  std::array<SpanTotals, static_cast<std::size_t>(SpanName::kCount_)>
      totals_{};
};

/// Sum of one span name's totals over every thread.
template <class Traces>
SpanTotals sum_totals(const Traces& traces, SpanName n) {
  SpanTotals s;
  for (const ThreadTrace& t : traces) {
    const SpanTotals& x = t.totals(n);
    s.count += x.count;
    s.total_ns += x.total_ns;
    s.self_ns += x.self_ns;
    s.over_100us += x.over_100us;
  }
  return s;
}

}  // namespace perfbench
