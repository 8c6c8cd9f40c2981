#include "mac/dp_link_mac.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace rtmac::mac {

// ---- DpLinkAir --------------------------------------------------------------

DpLinkAir::DpLinkAir(sim::Simulator& simulator, phy::Medium& medium, const DpLinkParams& params,
                     LinkId id, ReliabilityEstimator* estimator)
    : sim_{simulator}, medium_{medium}, params_{params}, id_{id}, estimator_{estimator} {}

void DpLinkAir::begin(int arrivals, TimePoint interval_end, bool is_candidate) {
  RTMAC_REQUIRE(arrivals >= 0);
  interval_end_ = interval_end;
  buffer_ = arrivals;
  is_candidate_ = is_candidate;
  delivered_ = 0;
  first_tx_started_ = false;
  // Step 2: a candidate with no traffic still claims its slot on the air.
  empty_claim_pending_ = is_candidate && buffer_ == 0;
}

void DpLinkAir::on_slot_won() {
  if (medium_.burst_available()) {
    run_burst();
    return;
  }
  try_transmit();
}

void DpLinkAir::run_burst() {
  // Mirrors try_transmit()/on_tx_done() packet by packet, but simulates the
  // whole back-to-back chain synchronously through the Medium burst API: one
  // idle-transition event at the end instead of one completion event per
  // packet. Legal because under complete sensing the chain holds the medium
  // exclusively — every other device is frozen, so no event can interleave
  // and the loss-stream draw order is exactly the per-event path's.
  TimePoint t = sim_.now();
  bool began = false;
  for (std::optional<Packet> packet = next_packet(t); packet; packet = next_packet(t)) {
    if (!began) {
      medium_.begin_burst(id_);
      began = true;
    }
    first_tx_started_ = true;
    const phy::TxOutcome outcome = medium_.burst_tx(id_, t, packet->airtime, packet->kind);
    t += packet->airtime;
    if (packet->kind == phy::PacketKind::kData) {
      if (estimator_ != nullptr) estimator_->record(id_, outcome == phy::TxOutcome::kDelivered);
      if (outcome == phy::TxOutcome::kDelivered) {
        ++delivered_;
        --buffer_;
      }
    }
  }
  if (began) medium_.end_burst(t);
}

std::optional<DpLinkAir::Packet> DpLinkAir::next_packet(TimePoint t) {
  if (buffer_ > 0) {
    // Remark 4 gap rule: transmit only if the packet fits in the interval.
    if (t + params_.data_airtime <= interval_end_) {
      return Packet{params_.data_airtime, phy::PacketKind::kData};
    }
    // Swap-consistency rule: a CANDIDATE whose data packet no longer fits
    // must still claim its backoff slot on the air if a short empty packet
    // fits — otherwise its silence is indistinguishable from "moved away"
    // and the partner could commit a one-sided swap. (Candidates without
    // arrivals already claim via empty_claim_pending_ below; this extends
    // the same priority-claiming packet to the gap-blocked data case.)
    if (is_candidate_ && !first_tx_started_ && t + params_.empty_airtime <= interval_end_) {
      return Packet{params_.empty_airtime, phy::PacketKind::kEmpty};
    }
    return std::nullopt;
  }
  if (empty_claim_pending_ && t + params_.empty_airtime <= interval_end_) {
    empty_claim_pending_ = false;
    return Packet{params_.empty_airtime, phy::PacketKind::kEmpty};
  }
  return std::nullopt;
}

void DpLinkAir::try_transmit() {
  const std::optional<Packet> packet = next_packet(sim_.now());
  if (!packet) return;
  first_tx_started_ = true;
  const phy::PacketKind kind = packet->kind;
  medium_.start_transmission(id_, packet->airtime, kind,
                             [this, kind](phy::TxOutcome o) { on_tx_done(kind, o); });
}

void DpLinkAir::on_tx_done(phy::PacketKind kind, phy::TxOutcome outcome) {
  // DP backoff counts are unique within the interval, so with complete
  // carrier sensing (everyone freezes and resumes together) no DP
  // transmission can ever collide; the assert documents that invariant.
  // Under partial sensing the countdowns desynchronize — hidden terminals
  // make collisions a genuine protocol outcome, not a bug.
  RTMAC_ASSERT(outcome != phy::TxOutcome::kCollision || !medium_.topology().complete_sensing(),
               "DP protocol must be collision-free under complete sensing: link ", id_,
               " collided");
  if (kind == phy::PacketKind::kData && estimator_ != nullptr &&
      outcome != phy::TxOutcome::kCollision) {
    // Learning mode (Section II-A): the ACK outcome of every clean data
    // transmission updates this link's own reliability posterior.
    estimator_->record(id_, outcome == phy::TxOutcome::kDelivered);
  }
  if (kind == phy::PacketKind::kData && outcome == phy::TxOutcome::kDelivered) {
    ++delivered_;
    --buffer_;
  }
  // Channel losses leave the packet in the buffer: retransmit until the
  // deadline (back-to-back, the channel is already ours).
  try_transmit();
}

int DpLinkAir::finish() {
  // Step 7: flush everything that missed the deadline.
  buffer_ = 0;
  empty_claim_pending_ = false;
  return delivered_;
}

// ---- DpScheme ---------------------------------------------------------------

namespace {

const PriorityProvider& checked_provider(const std::unique_ptr<PriorityProvider>& provider) {
  RTMAC_REQUIRE(provider != nullptr);
  return *provider;
}

std::vector<PriorityIndex> initial_priority_array(
    const SchemeContext& ctx, const std::optional<core::Permutation>& initial) {
  // Priorities live in the GLOBAL space: a shard cell slices the domain-wide
  // permutation by its links' global ids, so the sigma each link carries is
  // the one it would hold in the unsharded run.
  const std::size_t space = ctx.priority_space();
  const core::Permutation init =
      initial.has_value() ? *initial : core::Permutation::identity(space);
  RTMAC_REQUIRE(init.size() == space);
  std::vector<PriorityIndex> out(ctx.num_links);
  for (LinkId n = 0; n < ctx.num_links; ++n) out[n] = init.priority_of(ctx.global_id(n));
  return out;
}

/// Hard bound on freezes per interval: the shared clock freezes at most once
/// per transmission, and no transmission is shorter than an empty packet.
std::size_t freeze_capacity_hint(Duration interval_length, const DpLinkParams& params) {
  const std::int64_t min_airtime = std::max<std::int64_t>(params.empty_airtime.ns(), 1);
  return static_cast<std::size_t>(interval_length.ns() / min_airtime) + 2;
}

}  // namespace

DpScheme::DpScheme(const SchemeContext& ctx, std::unique_ptr<PriorityProvider> provider,
                   DpLinkParams params, std::string name,
                   std::optional<core::Permutation> initial, ReliabilityEstimator* estimator)
    : sim_{ctx.simulator},
      medium_{ctx.medium},
      provider_{std::move(provider)},
      kernel_{ctx.num_links,           SharedSeed{mix64(ctx.seed, 0x5EEDC0DE)},
              checked_provider(provider_), params.reordering,
              params.max_swap_pairs,    initial_priority_array(ctx, initial),
              ctx.seed,                 ctx.priority_space(),
              ctx.link_ids},
      name_{std::move(name)},
      clock_{ctx, params.backoff_slot, /*label_engines=*/true,
             freeze_capacity_hint(ctx.interval_length, params), ctx.link_ids,
             DpBatchBackoff::ExpiryHandler{[this](LinkId n) { on_slot_won(n); }}} {
  airs_.reserve(ctx.num_links);
  for (LinkId n = 0; n < ctx.num_links; ++n) {
    airs_.emplace_back(ctx.simulator, ctx.medium, params, n, estimator);
  }
  if (clock_.batch_path()) armed_scratch_.assign(ctx.num_links, 0);
}

void DpScheme::on_slot_won(LinkId n) { airs_[n].on_slot_won(); }

void DpScheme::begin_interval(IntervalIndex k, std::span<const int> arrivals,
                              TimePoint interval_end) {
  const std::size_t n_links = kernel_.num_links();
  RTMAC_REQUIRE(arrivals.size() == n_links);
  // Steps 1, 3, 4 for every link, as flat SoA passes.
  kernel_.plan_interval(k);
  sim::Tracer* tracer = medium_.tracer();
  DpBatchBackoff* shared = clock_.shared();
  for (LinkId n = 0; n < n_links; ++n) {
    airs_[n].begin(arrivals[n], interval_end, kernel_.is_candidate(n));
    if (shared == nullptr) {
      clock_.engine(n).start(kernel_.backoff_count(n), [this, n] { on_slot_won(n); });
      continue;
    }
    armed_scratch_[n] = airs_[n].armed() ? 1 : 0;
    if (tracer != nullptr) {
      // Per-engine emulation: a per-link engine traces its arming.
      tracer->record(sim_.now(), sim::TraceKind::kBackoffArmed, n, kernel_.backoff_count(n));
    }
  }
  // Unarmed links can never transmit, so their expiries are observable only
  // through the trace; schedule them only when someone is watching.
  if (shared != nullptr) {
    shared->begin_interval(sim_.now(), kernel_.backoff_counts(), armed_scratch_,
                           /*include_unarmed=*/tracer != nullptr);
  }
}

void DpScheme::end_interval(std::span<int> delivered) {
  const std::size_t n_links = kernel_.num_links();
  RTMAC_REQUIRE(delivered.size() == n_links);
  sim::Tracer* tracer = medium_.tracer();
  const DpBatchBackoff* shared = clock_.shared();
  clock_.stop();
  for (LinkId n = 0; n < n_links; ++n) {
    const bool frozen_at_one = shared != nullptr
                                   ? shared->frozen_with_remaining(kernel_.backoff_count(n), 1)
                                   : clock_.engine(n).was_frozen_at(1);
    const PriorityIndex before = kernel_.priority(n);
    // A claim airs only from this interval's expiry, so aired() also says the
    // countdown expired.
    const int delta = kernel_.resolve_swap(n, frozen_at_one, airs_[n].aired());
    if (delta != 0 && tracer != nullptr) {
      tracer->record(sim_.now(),
                     delta > 0 ? sim::TraceKind::kSwapDown : sim::TraceKind::kSwapUp, n,
                     before, static_cast<std::int64_t>(before) + delta);
    }
    delivered[n] = airs_[n].finish();
  }
  // Decentralized decisions must still compose into a permutation; this is
  // the protocol's core consistency invariant. It only holds when every
  // device can carrier-sense every other (the shared-clock case): hidden
  // terminals may observe asymmetric freeze records and commit one-sided
  // swaps.
  if constexpr (kChecksEnabled) {
    if (shared != nullptr) kernel_.validate_permutation();
  }
}

core::Permutation DpScheme::priorities() const {
  return core::Permutation::from_priorities(priority_vector());
}

std::vector<PriorityIndex> DpScheme::priority_vector() const {
  const std::span<const PriorityIndex> sigma = kernel_.priority_span();
  return {sigma.begin(), sigma.end()};
}

}  // namespace rtmac::mac
