// SoA kernel and shared backoff clock for the DP protocol.
//
// The paper's Algorithm 2 does all of its per-interval work — candidate-pair
// draw, biased coins, backoff-window computation, swap resolution —
// independently per link. This header factors that math into flat
// structure-of-arrays passes over all links of one cell:
//
//   * DpBatchKernel — SoA arrays (priorities, roles, coins, backoff windows)
//     plus the flat passes that fill them (plan_interval) and fold the
//     carrier-sense record back into priorities (resolve_swap). Owns no
//     event-engine state, so it is directly testable against the per-link
//     formulas, and DpScheme drives it whichever clock counts down.
//   * DpBatchBackoff — the clock of a complete-sensing domain: one shared
//     clock replacing N BackoffEngines. Under complete sensing every DP
//     countdown freezes and resumes at the same instants, so the N engines
//     are one elapsed-slot counter plus the next-expiry schedule over the
//     (unique) per-link windows, and one shared freeze log.
//
// All buffers are pre-sized at construction; the steady-state interval path
// performs no heap allocation (CI gates BM_DbdpIntervalAllocs at 0).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "mac/priority_provider.hpp"
#include "phy/medium.hpp"
#include "sim/simulator.hpp"
#include "util/inplace_function.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace rtmac::mac {

/// The common random seed of Algorithm 2 Step 1. All devices hold the same
/// seed (obtained e.g. from coarse time synchronization) and derive the same
/// candidate pair(s) for every interval without exchanging messages.
class SharedSeed {
 public:
  explicit SharedSeed(std::uint64_t seed) : seed_{seed} {}

  /// C(k): uniform on {1..N-1}, identical at every device.
  /// Precondition: num_links >= 2.
  [[nodiscard]] PriorityIndex candidate(IntervalIndex k, std::size_t num_links) const {
    return static_cast<PriorityIndex>(
        1 + mix64(seed_, k) % static_cast<std::uint64_t>(num_links - 1));
  }

  /// Remark 6 generalization: up to `max_pairs` NON-CONSECUTIVE integers
  /// from {1..N-1}, sorted ascending — each value m marks the disjoint
  /// candidate pair (m, m+1). max_pairs == 1 reduces to {candidate(k, N)}.
  /// Every device derives the identical set from (seed, k) alone.
  /// Writes into `out` using `anchors_scratch` as working storage; neither
  /// allocates once grown to capacity (the batch hot path reuses both).
  void candidate_set_into(IntervalIndex k, std::size_t num_links, int max_pairs,
                          std::vector<PriorityIndex>& anchors_scratch,
                          std::vector<PriorityIndex>& out) const;

  /// Allocating convenience wrapper around candidate_set_into (tests,
  /// analysis tooling).
  [[nodiscard]] std::vector<PriorityIndex> candidate_set(IntervalIndex k,
                                                         std::size_t num_links,
                                                         int max_pairs) const;

 private:
  std::uint64_t seed_;
};

/// Pure backoff assignment of eq. (6), generalized per Remark 6.
///
/// `sigma` is the link's priority, `pairs` the sorted disjoint candidate
/// anchors for the interval, `xi` the link's coin (+1/-1; ignored for
/// bystanders). Exposed as a free function so the collision-freedom
/// invariant — distinct links always receive distinct counts, whatever the
/// coins — can be tested exhaustively, independent of the event engine.
/// Returns the backoff slot count (>= 0).
[[nodiscard]] int dp_backoff_count(PriorityIndex sigma, std::span<const PriorityIndex> pairs,
                                   int xi);

/// True iff `sigma` belongs to one of the candidate pairs; when it does,
/// `*is_lower` (if non-null) reports whether it is the pair's lower index.
[[nodiscard]] bool dp_is_candidate(PriorityIndex sigma, std::span<const PriorityIndex> pairs,
                                   bool* is_lower = nullptr);

/// SoA per-interval state for all links of one cell, plus the flat passes
/// that compute it. The kernel holds only protocol math — no event-engine or
/// transmission state — so it is the same under either backoff clock.
class DpBatchKernel {
 public:
  enum class Role : std::uint8_t { kBystander = 0, kLower = 1, kUpper = 2 };

  /// `initial_priorities[n]` is link n's sigma in {1..P} where P is the
  /// priority space (defaults to num_links, in which case the priorities
  /// must form a permutation of {1..N}). `provider` must outlive the kernel.
  /// Link n's coin stream is derived from `seed` and n's stream id.
  ///
  /// Sharding: a cell kernel holds only its own links but their priorities
  /// live in the GLOBAL space — pass `priority_space` = total links so the
  /// shared candidate draw and backoff formulas match the unsharded run,
  /// and `stream_ids[n]` = link n's global id so coin streams match too
  /// (empty span = identity, the unsharded default).
  DpBatchKernel(std::size_t num_links, SharedSeed shared_seed, const PriorityProvider& provider,
                bool reordering, int max_pairs,
                std::span<const PriorityIndex> initial_priorities, std::uint64_t seed,
                std::size_t priority_space = 0, std::span<const LinkId> stream_ids = {});

  /// Algorithm 2 Steps 1, 3, 4 as one flat pass: draws the shared candidate
  /// set, assigns roles, tosses the candidates' coins (from per-link streams,
  /// in link order), and fills every backoff window. Allocation-free after
  /// construction.
  void plan_interval(IntervalIndex k);

  /// Step 5 (eqs. 7-8) for link n, from its carrier-sense record:
  /// `frozen_at_one` = the channel turned busy while n's remaining count was
  /// exactly 1; `claim_aired` = n's countdown expired and its at-expiry claim
  /// actually went on the air. Applies the swap to the priority array and
  /// returns the priority delta (+1 down, -1 up, 0 none).
  int resolve_swap(LinkId n, bool frozen_at_one, bool claim_aired);

  /// Debug check: priorities still form a permutation of {1..N}. Only
  /// meaningful under complete sensing (hidden terminals may legitimately
  /// commit one-sided swaps). Allocation-free after first use.
  void validate_permutation();

  [[nodiscard]] std::size_t num_links() const { return sigma_.size(); }
  /// Size of the priority space the sigmas live in (== num_links unless
  /// this kernel is a shard cell of a larger domain).
  [[nodiscard]] std::size_t priority_space() const { return priority_space_; }
  [[nodiscard]] PriorityIndex priority(LinkId n) const { return sigma_[n]; }
  [[nodiscard]] Role role(LinkId n) const { return static_cast<Role>(role_[n]); }
  [[nodiscard]] bool is_candidate(LinkId n) const {
    return role_[n] != static_cast<std::uint8_t>(Role::kBystander);
  }
  /// Coin outcome of the current interval: +1 or -1 for candidates, 0 else.
  [[nodiscard]] int coin(LinkId n) const { return xi_[n]; }
  [[nodiscard]] int backoff_count(LinkId n) const { return beta_[n]; }

  // SoA views (valid until the next plan_interval / resolve_swap).
  [[nodiscard]] std::span<const PriorityIndex> priority_span() const { return sigma_; }
  [[nodiscard]] std::span<const int> backoff_counts() const { return beta_; }
  [[nodiscard]] std::span<const PriorityIndex> candidate_pairs() const { return pairs_; }

 private:
  SharedSeed shared_seed_;
  const PriorityProvider& provider_;
  bool reordering_;
  int max_pairs_;
  std::size_t priority_space_;
  std::vector<Rng> coin_rng_;  ///< one coin stream per link

  // SoA per-interval state, indexed by LinkId.
  std::vector<PriorityIndex> sigma_;  ///< priority carried into the interval
  std::vector<std::uint8_t> role_;    ///< Role, stored flat
  std::vector<std::int8_t> xi_;       ///< coin outcome (candidates only)
  std::vector<int> beta_;             ///< backoff window (slots)

  std::vector<PriorityIndex> pairs_;            ///< this interval's candidate anchors
  std::vector<PriorityIndex> anchors_scratch_;  ///< candidate_set_into working set
  std::vector<std::uint8_t> perm_scratch_;      ///< validate_permutation working set
};

/// One shared backoff clock for all DP links of a complete-sensing collision
/// domain, replacing N BackoffEngines.
///
/// Correctness rests on two DP invariants: (a) under complete sensing every
/// engine freezes and resumes at the same instants, so all countdowns share
/// one elapsed-slot counter; (b) backoff windows are unique per interval, so
/// at most one expiry is due at a time and a single pending event (the next
/// window to elapse) suffices. Freeze records become one shared log of
/// elapsed-slot values: link n "froze at remaining count c" iff some logged
/// elapsed value e satisfies beta_n - e == c.
///
/// Registers itself as a global-view Medium listener at construction; must
/// outlive the run (same contract as BackoffEngine).
class DpBatchBackoff final : public phy::MediumListener {
 public:
  /// Fired through the event queue when a link's window elapses; inline-
  /// stored so re-arming never allocates.
  using ExpiryHandler = util::InplaceFunction<void(LinkId)>;

  /// `freeze_capacity_hint` pre-sizes the shared freeze log (at most one
  /// freeze per transmission, bounded by interval_length / min_airtime).
  /// `link_ids` maps local links to the global ids that name their freeze
  /// counters (SchemeContext::link_ids; empty = identity) and must outlive
  /// the clock.
  DpBatchBackoff(sim::Simulator& simulator, phy::Medium& medium, Duration slot,
                 std::size_t num_links, std::size_t freeze_capacity_hint,
                 std::span<const LinkId> link_ids, ExpiryHandler on_expire);

  DpBatchBackoff(const DpBatchBackoff&) = delete;
  DpBatchBackoff& operator=(const DpBatchBackoff&) = delete;

  /// Arms the shared clock for a new interval. `betas[n]` is link n's
  /// window; links with `armed[n] == 0` have nothing to send and are
  /// excluded from the expiry schedule unless `include_unarmed` is set
  /// (tracing mode: per-link engines fire — and trace — their expiries
  /// too, so parity requires scheduling them).
  void begin_interval(TimePoint now, std::span<const int> betas,
                      std::span<const std::uint8_t> armed, bool include_unarmed);

  /// Disarms at the interval boundary; the freeze log survives until the
  /// next begin_interval (end-of-interval swap resolution reads it).
  void stop();

  /// True iff, since the last begin_interval, the medium turned busy while
  /// a window of `beta` slots had exactly `remaining` slots left.
  [[nodiscard]] bool frozen_with_remaining(int beta, int remaining) const;

  // phy::MediumListener:
  void on_medium_busy(TimePoint t) override;
  void on_medium_idle(TimePoint t) override;

 private:
  /// Empty-bucket sentinel for the counting sort.
  static constexpr LinkId kNoLink = static_cast<LinkId>(-1);

  void schedule_next();
  void fire();
  void account_freezes(TimePoint resume_at);

  sim::Simulator& sim_;
  phy::Medium& medium_;
  Duration slot_;
  std::size_t num_links_;
  std::span<const LinkId> link_ids_;
  ExpiryHandler on_expire_;

  std::vector<int> betas_;      ///< per-link windows for the current interval
  std::vector<LinkId> order_;   ///< scheduled links, ascending by window
  std::vector<LinkId> bucket_;  ///< counting-sort scratch, indexed by window
  std::size_t next_ = 0;        ///< index into order_ of the next expiry
  std::vector<int> freeze_log_; ///< shared elapsed-slot value at each freeze

  bool in_interval_ = false;
  bool frozen_ = false;
  int elapsed_at_resume_ = 0;   ///< whole slots elapsed when last resumed
  int elapsed_frozen_ = 0;      ///< elapsed count captured at the freeze
  TimePoint resume_time_;       ///< when the shared clock last (re)started
  TimePoint freeze_time_;       ///< when the current freeze began
  sim::EventId expiry_event_;

  // Cached metric handles, re-resolved when the Medium's registry changes
  // (parity with BackoffEngine's per-link freeze accounting: a link's
  // counter is registered at its first freeze, under its global id).
  obs::MetricsRegistry* metrics_seen_ = nullptr;
  obs::Histogram* freeze_hist_ = nullptr;
  std::vector<obs::Counter*> freeze_ns_;
};

}  // namespace rtmac::mac
