// TATP (Telecom Application Transaction Processing) over DLHT (§5.3.2,
// Fig. 19): the read-intensive side of the OLTP pair.
//
// Four tables, each its own DLHT instance, keyed by packed ids:
//   subscriber        s                 -> vlr_location / bit fields
//   access_info       s*4  + ai_type    -> packed numeric columns
//   special_facility  s*4  + sf_type    -> bit0 = is_active, rest data
//   call_forwarding   s*12 + sf*3 + slot-> number_x (3 eight-hour slots)
// The standard mix is 80 % reads (GetSubscriberData 35, GetNewDestination
// 10, GetAccessData 35) and 20 % writes (UpdateSubscriberData 2,
// UpdateLocation 14, Insert/DeleteCallForwarding 2+2). Row presence is
// hash-derived (1..4 ai/sf rows per subscriber, 0..3 cf rows per sf), so
// population is deterministic and a share of transactions fails business
// validation — TATP counts those as aborts by design.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/rng.hpp"
#include "dlht/dlht.hpp"
#include "workload/driver.hpp"

namespace dlht::apps {

class Tatp {
 public:
  struct Config {
    std::uint64_t subscribers = 100000;  // paper runs 1M
    int populate_threads = 0;  // 0 = auto (min(hw, 8))
  };

  struct Counters {
    std::uint64_t committed = 0;
    std::uint64_t aborted = 0;  // TATP's expected "unsuccessful" share
  };

  /// `o` builds the subscriber table; the three tables keyed by subscriber
  /// and row type get twice its bins.
  Tatp(const Config& cfg, const Options& o)
      : cfg_(cfg),
        subscriber_(o),
        access_info_(doubled(o)),
        special_facility_(doubled(o)),
        call_forwarding_(doubled(o)) {
    populate();
  }

  std::uint64_t subscribers() const { return cfg_.subscribers; }
  const DLHT& subscriber_table() const { return subscriber_; }

  /// Execute one transaction drawn from the standard mix. Returns true on
  /// commit; business failures (row not found / duplicate insert) abort.
  bool run_one(Xoshiro256& rng, Counters& c) {
    const std::uint64_t u = rng.next_below(100);
    const std::uint64_t s = rng.next_below(cfg_.subscribers);
    bool ok = false;
    if (u < 35) {
      // GET_SUBSCRIBER_DATA: single read, always present.
      ok = subscriber_.get(sub_key(s)).has_value();
    } else if (u < 45) {
      // GET_NEW_DESTINATION: special_facility must exist and be active,
      // then the forwarding row for the slot must exist.
      const std::uint64_t sf = rng.next_below(4);
      if (const auto v = special_facility_.get(sf_key(s, sf));
          v.has_value() && (*v & 1u) != 0) {
        ok = call_forwarding_.get(cf_key(s, sf, rng.next_below(3)))
                 .has_value();
      }
    } else if (u < 80) {
      // GET_ACCESS_DATA: ai row for a random type (1..4 present).
      ok = access_info_.get(ai_key(s, rng.next_below(4))).has_value();
    } else if (u < 82) {
      // UPDATE_SUBSCRIBER_DATA: two keys across two tables — rewrite
      // data_a in one special_facility row (which may not exist: abort),
      // and only then flip the subscriber bit, so an aborted transaction
      // leaves no partial effect behind.
      const std::uint64_t data = rng() | 1u;  // keep is_active set
      ok = special_facility_
               .update(sf_key(s, rng.next_below(4)),
                       [data](std::uint64_t) { return data; })
               .has_value();
      if (ok) {
        const std::uint64_t bit = rng.next_below(2);
        subscriber_.update(sub_key(s), [bit](std::uint64_t v) {
          return (v & ~1ull) | bit;
        });
      }
    } else if (u < 96) {
      // UPDATE_LOCATION: rewrite the subscriber's vlr_location.
      const std::uint64_t vlr = rng();
      ok = subscriber_
               .update(sub_key(s),
                       [vlr](std::uint64_t v) {
                         return (vlr & ~1ull) | (v & 1ull);
                       })
               .has_value();
    } else if (u < 98) {
      // INSERT_CALL_FORWARDING: parent sf row must exist, new cf row must
      // not (duplicate insert aborts).
      const std::uint64_t sf = rng.next_below(4);
      ok = special_facility_.get(sf_key(s, sf)).has_value() &&
           call_forwarding_.insert(cf_key(s, sf, rng.next_below(3)),
                                   rng() | 1u);
    } else {
      // DELETE_CALL_FORWARDING: aborts when the row is already gone.
      ok = call_forwarding_.erase(
          cf_key(s, rng.next_below(4), rng.next_below(3)));
    }
    if (ok) {
      ++c.committed;
    } else {
      ++c.aborted;
    }
    return ok;
  }

 private:
  static Options doubled(Options o) {
    o.initial_bins *= 2;
    return o;
  }

  // Packed keys, +1 so key 0 stays free (repo-wide convention).
  static std::uint64_t sub_key(std::uint64_t s) { return s + 1; }
  static std::uint64_t ai_key(std::uint64_t s, std::uint64_t ai) {
    return s * 4 + ai + 1;
  }
  static std::uint64_t sf_key(std::uint64_t s, std::uint64_t sf) {
    return s * 4 + sf + 1;
  }
  static std::uint64_t cf_key(std::uint64_t s, std::uint64_t sf,
                              std::uint64_t slot) {
    return s * 12 + sf * 3 + slot + 1;
  }

  void populate() {
    const unsigned hw = hardware_threads();
    int t = cfg_.populate_threads;
    if (t <= 0) t = static_cast<int>(hw < 8u ? hw : 8u);
    const std::uint64_t n = cfg_.subscribers;
    workload::run_once(t, [this, n, t](int tid) {
      return [this, n, t, tid] {
        for (std::uint64_t s = static_cast<std::uint64_t>(tid); s < n;
             s += static_cast<std::uint64_t>(t)) {
          subscriber_.insert(sub_key(s), splitmix64(s) & ~1ull);
          const std::uint64_t nai = 1 + (splitmix64(s ^ 0xa1ull) & 3);
          for (std::uint64_t ai = 0; ai < nai; ++ai) {
            access_info_.insert(ai_key(s, ai), splitmix64(s * 4 + ai));
          }
          const std::uint64_t nsf = 1 + (splitmix64(s ^ 0x5full) & 3);
          for (std::uint64_t sf = 0; sf < nsf; ++sf) {
            // ~85 % of special_facility rows are active, per the spec.
            const bool active = splitmix64(s * 4 + sf + 7) % 100 < 85;
            special_facility_.insert(
                sf_key(s, sf),
                (splitmix64(s * 4 + sf) & ~1ull) | (active ? 1u : 0u));
            const std::uint64_t ncf = splitmix64(s * 4 + sf + 13) & 3;
            for (std::uint64_t slot = 0; slot < ncf; ++slot) {
              call_forwarding_.insert(cf_key(s, sf, slot),
                                      splitmix64(s * 12 + sf * 3 + slot) | 1u);
            }
          }
        }
      };
    });
  }

  Config cfg_;
  DLHT subscriber_;
  DLHT access_info_;
  DLHT special_facility_;
  DLHT call_forwarding_;
};

}  // namespace dlht::apps
