// Smallbank over DLHT (§5.3.2, Fig. 19): the write-intensive side of the
// OLTP pair.
//
// Two tables (checking, savings), one DLHT instance each, keyed by account
// id. Balances are int64 bit-cast into the table's uint64 values; every
// write path is a single locked read-modify-write via DLHT::update(), so
// per-account arithmetic is atomic and money is conserved even under full
// concurrency:
//     sum(all balances) == accounts * initial_balance + net_deposited
// where Counters::net_deposited tracks the money the committed
// DepositChecking / TransactSavings / WriteCheck transactions created or
// destroyed (Amalgamate and SendPayment only move it). The apps test
// asserts exactly this invariant after a multi-threaded run.
//
// Standard mix: Balance 15, DepositChecking 15, TransactSavings 15,
// Amalgamate 15, WriteCheck 25, SendPayment 15.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/rng.hpp"
#include "dlht/dlht.hpp"
#include "workload/driver.hpp"

namespace dlht::apps {

class Smallbank {
 public:
  struct Config {
    std::uint64_t accounts = 1000000;  // paper runs 10M
    int populate_threads = 0;  // 0 = auto (min(hw, 8))
    std::int64_t initial_balance = 10000;
  };

  struct Counters {
    std::uint64_t committed = 0;
    std::uint64_t aborted = 0;        // insufficient funds
    std::int64_t net_deposited = 0;   // committed deposits - written checks
  };

  /// `o` builds both tables.
  Smallbank(const Config& cfg, const Options& o)
      : cfg_(cfg), checking_(o), savings_(o) {
    populate();
  }

  std::uint64_t accounts() const { return cfg_.accounts; }

  /// Sum of every balance across both tables. Only meaningful when no
  /// mutator is running; the conservation test calls it after joining.
  std::int64_t total_balance() const {
    std::int64_t sum = 0;
    for (std::uint64_t a = 0; a < cfg_.accounts; ++a) {
      sum += as_i(*checking_.get(acct_key(a)));
      sum += as_i(*savings_.get(acct_key(a)));
    }
    return sum;
  }

  /// Execute one transaction from the standard mix. Returns true on commit.
  bool run_one(Xoshiro256& rng, Counters& c) {
    const std::uint64_t u = rng.next_below(100);
    const std::uint64_t a = acct_key(rng.next_below(cfg_.accounts));
    const std::int64_t amt = 1 + static_cast<std::int64_t>(rng.next_below(100));
    bool ok = false;
    if (u < 15) {
      // Balance: read both rows, report the sum.
      const auto cv = checking_.get(a);
      const auto sv = savings_.get(a);
      std::int64_t total = as_i(*cv) + as_i(*sv);
      ok = true;
      asm volatile("" : : "r"(total));
    } else if (u < 30) {
      // DepositChecking: unconditional credit.
      checking_.update(a, [amt](std::uint64_t v) {
        return as_u(as_i(v) + amt);
      });
      c.net_deposited += amt;
      ok = true;
    } else if (u < 45) {
      // TransactSavings: credit or debit; debits abort on overdraft.
      const bool debit = rng.next_below(2) != 0;
      bool applied = false;
      savings_.update(a, [amt, debit, &applied](std::uint64_t v) {
        const std::int64_t bal = as_i(v);
        if (debit && bal < amt) return v;  // insufficient funds
        applied = true;
        return as_u(debit ? bal - amt : bal + amt);
      });
      if (applied) c.net_deposited += debit ? -amt : amt;
      ok = applied;
    } else if (u < 60) {
      // Amalgamate: move everything from a's savings+checking into b's
      // checking. Three single-key RMWs; each is atomic, and the captured
      // outflows are re-deposited verbatim, so the move conserves money.
      const std::uint64_t b = other_account(rng, a);
      std::int64_t moved = 0;
      savings_.update(a, [&moved](std::uint64_t v) {
        moved += as_i(v);
        return as_u(0);
      });
      checking_.update(a, [&moved](std::uint64_t v) {
        moved += as_i(v);
        return as_u(0);
      });
      checking_.update(b, [moved](std::uint64_t v) {
        return as_u(as_i(v) + moved);
      });
      ok = true;
    } else if (u < 85) {
      // WriteCheck: debit checking against the combined balance; going
      // below the combined balance aborts (no overdraft penalty modeled).
      const auto sv = savings_.get(a);
      const std::int64_t sav = sv ? as_i(*sv) : 0;
      bool wrote = false;
      checking_.update(a, [amt, sav, &wrote](std::uint64_t v) {
        if (sav + as_i(v) < amt) return v;
        wrote = true;
        return as_u(as_i(v) - amt);
      });
      if (wrote) c.net_deposited -= amt;
      ok = wrote;
    } else {
      // SendPayment: move amt from a's checking to b's, abort when a
      // cannot cover it. The debit-side check-and-subtract is one RMW.
      const std::uint64_t b = other_account(rng, a);
      bool took = false;
      checking_.update(a, [amt, &took](std::uint64_t v) {
        if (as_i(v) < amt) return v;
        took = true;
        return as_u(as_i(v) - amt);
      });
      if (took) {
        checking_.update(b, [amt](std::uint64_t v) {
          return as_u(as_i(v) + amt);
        });
      }
      ok = took;
    }
    if (ok) {
      ++c.committed;
    } else {
      ++c.aborted;
    }
    return ok;
  }

 private:
  static std::uint64_t acct_key(std::uint64_t a) { return a + 1; }

  std::uint64_t other_account(Xoshiro256& rng, std::uint64_t a) const {
    if (cfg_.accounts < 2) return a;
    const std::uint64_t b = acct_key(rng.next_below(cfg_.accounts - 1));
    return b >= a ? b + 1 : b;
  }

  static std::int64_t as_i(std::uint64_t v) {
    std::int64_t i;
    std::memcpy(&i, &v, sizeof(i));
    return i;
  }
  static std::uint64_t as_u(std::int64_t i) {
    std::uint64_t v;
    std::memcpy(&v, &i, sizeof(v));
    return v;
  }

  void populate() {
    const unsigned hw = hardware_threads();
    int t = cfg_.populate_threads;
    if (t <= 0) t = static_cast<int>(hw < 8u ? hw : 8u);
    const std::uint64_t n = cfg_.accounts;
    const std::uint64_t init = as_u(cfg_.initial_balance);
    workload::run_once(t, [this, n, t, init](int tid) {
      return [this, n, t, tid, init] {
        for (std::uint64_t a = static_cast<std::uint64_t>(tid); a < n;
             a += static_cast<std::uint64_t>(t)) {
          checking_.insert(acct_key(a), init);
          savings_.insert(acct_key(a), init);
        }
      };
    });
  }

  Config cfg_;
  DLHT checking_;
  DLHT savings_;
};

}  // namespace dlht::apps
