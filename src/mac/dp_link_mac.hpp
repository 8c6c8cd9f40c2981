// The Decentralized Priority (DP) protocol — the paper's Algorithm 2.
//
// Each link holds a unique priority index sigma_n(k) in {1..N} and derives a
// collision-free backoff count from it (eq. 6). One adjacent pair of
// priorities {C(k), C(k)+1} is drawn per interval from a seed shared by all
// devices; the two candidate links toss biased coins xi_n (eq. 5) and detect
// each other's intent purely through carrier sensing at backoff value 1
// (eqs. 7-8), swapping priorities for the next interval when both agree.
// Candidates with no arrivals transmit a short "empty packet" so the swap
// can always be confirmed on the air; confirmed or not, the whole interval
// carries no collisions because backoff counts are unique.
//
// One layout: the per-interval protocol math lives in DpBatchKernel
// (mac/dp_batch_kernel.hpp) as flat SoA passes, and every link's
// transmission half is a DpLinkAir in one flat array. Only the backoff clock
// depends on the cell's sense views (ClockArm, mac/clock_arm.hpp):
//   * complete sensing: one shared clock (DpBatchBackoff) for the domain,
//     and the Medium's burst fast path — the allocation-free hot path;
//   * otherwise (hidden terminals): one BackoffEngine per link, listening on
//     the link's own sense view and labelled with its global id in traces
//     and freeze metrics.
// DpScheme wires the kernel, the clock and the air machines to the shared
// Medium and implements the MacScheme contract.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/permutation.hpp"
#include "core/types.hpp"
#include "mac/clock_arm.hpp"
#include "mac/dp_batch_kernel.hpp"
#include "mac/link_mac.hpp"
#include "mac/priority_provider.hpp"
#include "mac/reliability_estimator.hpp"
#include "phy/medium.hpp"
#include "phy/phy_params.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace rtmac::mac {

/// Static configuration of one DP link.
struct DpLinkParams {
  Duration data_airtime;
  Duration empty_airtime;
  Duration backoff_slot;
  /// When false, Step 1-5 reordering is disabled entirely: priorities stay
  /// fixed forever (the Fig. 6 "fixed priority ordering" experiment).
  bool reordering = true;
  /// Remark 6: number of disjoint candidate pairs drawn per interval.
  /// 1 is the base protocol of Algorithm 2; larger values trade a slightly
  /// larger worst-case backoff (up to ~N + 2*pairs slots) for faster
  /// convergence of the priority chain.
  int max_swap_pairs = 1;
};

/// The transmission half of one DP link: buffer, gap rule (Remark 4),
/// priority-claim empties, retransmit-until-deadline. Driven by a backoff
/// clock (shared or per-link) through on_slot_won(); knows nothing about
/// priorities or coins. Whenever the Medium offers a burst (complete sensing,
/// idle channel) the whole back-to-back chain resolves synchronously.
class DpLinkAir {
 public:
  /// `estimator`, when non-null, receives the outcome of every clean data
  /// transmission this link makes (the "learning p_n" mode of Section II-A).
  DpLinkAir(sim::Simulator& simulator, phy::Medium& medium, const DpLinkParams& params,
            LinkId id, ReliabilityEstimator* estimator);

  /// Resets per-interval state. `is_candidate` enables the Step 2 empty
  /// priority-claim behaviour for this interval.
  void begin(int arrivals, TimePoint interval_end, bool is_candidate);

  /// The link's backoff window elapsed: attempt the first transmission.
  void on_slot_won();

  /// Step 7 deadline flush; returns this interval's on-time deliveries.
  int finish();

  /// True iff this link has anything to put on the air this interval (data
  /// or a pending priority claim) — i.e. its backoff expiry can matter.
  [[nodiscard]] bool armed() const { return buffer_ > 0 || empty_claim_pending_; }

  /// True iff the at-expiry claim actually aired (first transmission began).
  [[nodiscard]] bool aired() const { return first_tx_started_; }

 private:
  struct Packet {
    Duration airtime;
    phy::PacketKind kind;
  };

  /// What this link may put on the air at `t` (gap and claim rules), if
  /// anything; consumes a pending empty claim.
  std::optional<Packet> next_packet(TimePoint t);
  void try_transmit();
  void run_burst();
  void on_tx_done(phy::PacketKind kind, phy::TxOutcome outcome);

  sim::Simulator& sim_;
  phy::Medium& medium_;
  DpLinkParams params_;
  LinkId id_;
  ReliabilityEstimator* estimator_;  ///< optional, not owned

  // Per-interval state.
  TimePoint interval_end_;
  int buffer_ = 0;  ///< undelivered data packets
  bool is_candidate_ = false;
  bool empty_claim_pending_ = false;
  int delivered_ = 0;
  bool first_tx_started_ = false;  ///< the at-expiry claim actually aired
};

/// MacScheme gluing the kernel, the backoff clock, and N air machines
/// together. The per-link pieces never talk to each other; the scheme only
/// fans out interval boundaries (which in a real deployment come from the
/// devices' own synchronized clocks) and aggregates statistics.
class DpScheme final : public MacScheme {
 public:
  /// The scheme owns its coin-bias provider. Initial priorities are the
  /// identity permutation unless `initial` is given. `estimator`, when
  /// non-null, must live inside `provider` (e.g. EstimatedMuProvider) or
  /// otherwise outlive the scheme; every link reports its clean data
  /// transmission outcomes to it.
  DpScheme(const SchemeContext& ctx, std::unique_ptr<PriorityProvider> provider,
           DpLinkParams params, std::string name,
           std::optional<core::Permutation> initial = std::nullopt,
           ReliabilityEstimator* estimator = nullptr);

  void begin_interval(IntervalIndex k, std::span<const int> arrivals,
                      TimePoint interval_end) override;
  void end_interval(std::span<int> delivered) override;
  [[nodiscard]] std::string name() const override { return name_; }

  /// Current priority assignment (valid between intervals). Debug/analysis.
  [[nodiscard]] core::Permutation priorities() const;

  /// Raw per-link priority indices without the bijection check (diagnostics).
  [[nodiscard]] std::vector<PriorityIndex> priority_vector() const;

  /// The SoA per-interval state (observability reads priorities / backoff
  /// windows straight from the arrays).
  [[nodiscard]] const DpBatchKernel& kernel() const { return kernel_; }

  /// True when one shared clock drives every countdown (complete sensing).
  [[nodiscard]] bool batch_path() const { return clock_.batch_path(); }

  [[nodiscard]] std::size_t pending_events_per_link() const override {
    return clock_.pending_events_per_link();
  }

 private:
  void on_slot_won(LinkId n);

  sim::Simulator& sim_;
  phy::Medium& medium_;
  // Declaration order matters: kernel_ dereferences provider_.
  std::unique_ptr<PriorityProvider> provider_;
  DpBatchKernel kernel_;
  std::string name_;
  std::vector<DpLinkAir> airs_;
  std::vector<std::uint8_t> armed_scratch_;  ///< shared clock's armed mask
  ClockArm<DpBatchBackoff> clock_;
};

}  // namespace rtmac::mac
