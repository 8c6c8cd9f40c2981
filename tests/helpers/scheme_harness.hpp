// Test harness for driving a MacScheme directly, with full control over
// debts and arrivals (bypassing net::Network's sampling).
#pragma once

#include <cassert>
#include <memory>
#include <vector>

#include "core/debt.hpp"
#include "mac/link_mac.hpp"
#include "phy/medium.hpp"
#include "phy/phy_params.hpp"
#include "sim/simulator.hpp"

namespace rtmac::test {

/// Owns a Simulator + Medium + DebtTracker and exposes a SchemeContext.
/// Drive with run_interval(); mutate debts() freely between intervals.
class SchemeHarness {
 public:
  SchemeHarness(ProbabilityVector p, phy::PhyParams phy, Duration interval_length,
                RateVector q, std::uint64_t seed = 42)
      : phy_{phy},
        interval_length_{interval_length},
        success_prob_{std::move(p)},
        medium_{sim_, std::make_unique<phy::StaticChannel>(success_prob_),
                phy::InterferenceGraph::complete(success_prob_.size()), seed},
        debts_{std::move(q)},
        seed_{seed} {}

  [[nodiscard]] mac::SchemeContext context() {
    return mac::SchemeContext{sim_,         medium_, phy_,   interval_length_,
                              success_prob_.size(),  success_prob_, debts_, seed_};
  }

  /// Runs one full interval: arrivals in, deliveries out. Does NOT update
  /// debts (tests control the ledger explicitly via debts()). Keeps the
  /// vector-in/vector-out convenience shape; the scheme itself only sees
  /// the span interface.
  std::vector<int> run_interval(mac::MacScheme& scheme, const std::vector<int>& arrivals) {
    const TimePoint start = sim_.now();
    const TimePoint end = start + interval_length_;
    scheme.begin_interval(next_k_++, arrivals, end);
    sim_.run_until(end);
    assert(!medium_.busy());
    std::vector<int> delivered(success_prob_.size(), 0);
    scheme.end_interval(delivered);
    return delivered;
  }

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] phy::Medium& medium() { return medium_; }
  [[nodiscard]] core::DebtTracker& debts() { return debts_; }

 private:
  phy::PhyParams phy_;
  Duration interval_length_;
  ProbabilityVector success_prob_;
  sim::Simulator sim_;
  phy::Medium medium_;
  core::DebtTracker debts_;
  std::uint64_t seed_;
  IntervalIndex next_k_ = 0;
};

}  // namespace rtmac::test
