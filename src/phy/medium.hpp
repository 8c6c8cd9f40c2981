// The shared wireless medium: a channel core over a pluggable interference
// topology.
//
// The channel core owns the loss process and transmission bookkeeping; the
// InterferenceGraph decides which overlaps collide and who hears what:
//   * a transmission collides only with overlapping transmissions on
//     CONFLICTING links (the complete graph reproduces the paper's
//     Section II-A rule: every overlap collides);
//   * carrier sensing is a per-node view — node n's medium is busy iff some
//     link n senses is transmitting. With complete sensing every view
//     coincides with the global one, which is exactly the paper's model;
//   * an interference-free transmission on link n is delivered with
//     probability p_n (i.i.d. across transmissions, the "unreliable
//     transmissions" of the title);
//   * devices sense busy/idle but cannot decode other devices' packets.
// Transmission intervals are half-open [start, start+airtime): a packet
// ending at t does not collide with one starting at t, on any topology.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "obs/metrics.hpp"
#include "phy/channel_model.hpp"
#include "phy/interference.hpp"
#include "sim/shard_barrier.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "util/arena.hpp"
#include "util/check.hpp"
#include "util/inplace_function.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace rtmac::phy {

/// Result of one transmission attempt.
enum class TxOutcome : std::uint8_t {
  kDelivered,    ///< interference-free and passed the Bernoulli(p_n) draw
  kChannelLoss,  ///< interference-free but lost to the unreliable channel
  kCollision,    ///< overlapped with at least one conflicting transmission
};

/// What is being transmitted. Empty packets claim priority in the DP
/// protocol; they occupy airtime but carry no payload to deliver.
enum class PacketKind : std::uint8_t { kData, kEmpty };

/// Observer interface for carrier sensing. Devices register to learn about
/// busy/idle transitions of one sense view (their own node's, or the global
/// any-transmission view); that is all a paper-compliant device may learn
/// about other links.
///
/// Re-entrancy rule: listener callbacks must NOT call
/// Medium::start_transmission synchronously (other listeners would observe
/// transitions out of order). Schedule the transmission through the
/// Simulator instead — protocol timing always implies at least a zero-delay
/// event boundary. The Medium enforces this: a synchronous
/// start_transmission from inside a listener callback aborts the process.
class MediumListener {
 public:
  virtual ~MediumListener() = default;
  /// The observed sense view transitioned idle -> busy at virtual time `t`.
  virtual void on_medium_busy(TimePoint t) = 0;
  /// The observed sense view transitioned busy -> idle at virtual time `t`.
  virtual void on_medium_idle(TimePoint t) = 0;
};

/// Resolver for cross-shard conflicts, implemented by the sharded Network.
/// The conservative coordinator guarantees that when a cut-link completion
/// executes, every conflicting neighbor cell's clock has passed it, so all
/// overlapping remote transmissions are already in the mailbox and the
/// answer is exact.
class CutResolver {
 public:
  virtual ~CutResolver() = default;
  /// Did the transmission on `global_link` over [start, end) overlap any
  /// remote transmission on a conflicting cut partner? Also accounts the
  /// overlapping pairs into the cross-shard collision ledger.
  [[nodiscard]] virtual bool resolve_cut_tx(LinkId global_link, TimePoint start,
                                            TimePoint end) = 0;
};

/// Shard-mode wiring for a cell's Medium: the local->global id map (loss
/// streams are re-keyed by global id so results do not depend on the
/// partition), which local links have cross-cell conflict edges (their
/// completions consult the resolver and bound the engine's run limit), and
/// which local links' transmissions must be exported at barriers. Only the
/// sharded Network and the coordinator may touch this machinery — enforced
/// by the shard-isolation lint rule.
struct ShardMediumConfig {
  std::vector<LinkId> global_ids;          ///< local link -> global link
  std::vector<std::uint8_t> conflict_cut;  ///< local link has a cut conflict edge
  std::vector<std::uint8_t> exported;      ///< local link's txs go to the outbox
  CutResolver* resolver = nullptr;         ///< borrowed; may be null when no cuts
};

/// Aggregate channel accounting, exposed for capacity/overhead analysis.
struct MediumCounters {
  std::uint64_t data_tx = 0;         ///< data transmission attempts
  std::uint64_t empty_tx = 0;        ///< empty (priority-claim) transmissions
  std::uint64_t delivered = 0;       ///< data packets delivered
  std::uint64_t channel_losses = 0;  ///< clean data tx lost to Bernoulli(p)
  std::uint64_t collisions = 0;      ///< transmissions that collided
  Duration busy_time;                ///< summed transmission airtime; overlapping
                                     ///< transmissions double-count (use
                                     ///< sense_busy_time(kAllNodes) for occupancy)
  Duration collided_time;            ///< airtime wasted in collisions
};

/// Per-link slice of the channel accounting (airtime-fairness analysis).
struct LinkCounters {
  std::uint64_t data_tx = 0;
  std::uint64_t empty_tx = 0;
  std::uint64_t delivered = 0;
  std::uint64_t collisions = 0;
  Duration airtime;  ///< total airtime used by this link (all outcomes)
};

/// The shared channel. Owns the loss process; notifies listeners of their
/// sense view's busy/idle transitions; reports each transmission's outcome
/// to its initiator via callback at the end of the airtime.
class Medium {
 public:
  /// Outcome callback: inline-stored (util::InplaceFunction), so starting a
  /// transmission never allocates. Move-only; fired exactly once.
  using TxDone = util::InplaceFunction<void(TxOutcome)>;

  /// Sentinel node id selecting the global any-transmission view (senses
  /// every link, whatever the topology). Same value as sim::kNoLink.
  static constexpr LinkId kAllNodes = static_cast<LinkId>(-1);

  /// `channel` is the loss process: StaticChannel is the paper's i.i.d.
  /// Bernoulli(p_n) model, and any model reports its long-run p_n through
  /// success_prob(). `graph` decides which overlaps collide and who senses
  /// whom; InterferenceGraph::complete(n) is the paper's single collision
  /// domain. `arena`, when given, backs the cold per-link state (counters,
  /// views, collision ledger) — the sharded Network shares one arena across
  /// all cell media; when null the Medium brings its own (borrowed, not
  /// owned, must outlive the Medium).
  Medium(sim::Simulator& simulator, std::unique_ptr<ChannelModel> channel,
         InterferenceGraph graph, std::uint64_t seed, util::Arena* arena = nullptr);

  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  /// Begins a transmission on `link` lasting `airtime`. `done` fires exactly
  /// once, at now()+airtime, with the outcome. Overlap with any concurrent
  /// transmission on a conflicting link marks every participant collided.
  void start_transmission(LinkId link, Duration airtime, PacketKind kind, TxDone done);

  // ---- burst fast path ------------------------------------------------------
  // A link that wins the channel under complete sensing transmits its whole
  // back-to-back chain with exclusive use of the medium: every other device
  // senses busy and freezes, so no event can interleave until the chain
  // ends. The burst API exploits that: the caller simulates the chain
  // synchronously (one burst_tx per packet, outcomes returned immediately
  // in the same loss-stream order the per-event path would draw them) and
  // end_burst performs the single idle transition, instead of one
  // completion event per packet. Both paths share the per-packet
  // accounting and the busy/idle edge routines, so the burst is identical to
  // chained start_transmission calls — MediumTest.BurstMatchesEventChain
  // asserts it bit-for-bit.

  /// True when the burst path may be used right now: complete sensing, the
  /// medium idle, and not inside a listener callback.
  [[nodiscard]] bool burst_available() const {
    return complete_sensing_ && !busy() && !burst_active_ && !dispatching_listeners_;
  }

  /// Opens an exclusive burst at now(). Precondition: burst_available().
  void begin_burst(LinkId link);

  /// Transmits one packet of the open burst occupying [at, at+airtime);
  /// returns its outcome immediately. The first packet emits the busy
  /// transition to listeners (after its kTxStart trace record, exactly like
  /// the per-event path).
  TxOutcome burst_tx(LinkId link, TimePoint at, Duration airtime, PacketKind kind);

  /// Closes the burst: performs the idle transition with timestamp `end`
  /// (>= now()) synchronously — no event is needed, because the burst froze
  /// everything else and the queue holds no event before `end` (asserted).
  void end_burst(TimePoint end);

  /// Carrier-sense, global view: is any transmission in flight right now?
  [[nodiscard]] bool busy() const { return global_view_.active > 0; }

  /// Carrier-sense as seen from `node`: is any link that `node` senses
  /// transmitting? `kAllNodes` selects the global view. Under complete
  /// sensing every per-node view coincides with the global one, so the
  /// Medium maintains only the global view and routes per-node queries to
  /// it (the fast path the batch DP kernel relies on).
  [[nodiscard]] bool sense_busy(LinkId node) const {
    return (node == kAllNodes || complete_sensing_) ? busy() : views_[node].active > 0;
  }

  /// Registers a carrier-sense observer of the global view (not owned; must
  /// outlive the run).
  void add_listener(MediumListener* listener) { add_listener(listener, kAllNodes); }

  /// Registers an observer of `node`'s sense view. Listeners are notified
  /// in registration order whenever their view transitions. Under complete
  /// sensing every per-node view is the global view, so the listener is
  /// filed under the global view.
  void add_listener(MediumListener* listener, LinkId node);

  [[nodiscard]] const InterferenceGraph& topology() const { return graph_; }

  [[nodiscard]] const MediumCounters& counters() const { return counters_; }
  [[nodiscard]] const LinkCounters& link_counters(LinkId link) const {
    return link_counters_[link];
  }

  /// Cumulative time `node`'s sense view has been busy (closed busy periods;
  /// an in-flight busy period is not included until it ends). `kAllNodes`
  /// reports the global view.
  [[nodiscard]] Duration sense_busy_time(LinkId node) const {
    return (node == kAllNodes || complete_sensing_) ? global_view_.busy_time
                                                    : views_[node].busy_time;
  }

  /// Number of pairwise collision events between links a and b (each
  /// conflicting overlap of one transmission pair counts once, symmetric).
  /// The ledger is one counter per entry of the topology's conflict rows —
  /// non-conflicting pairs can never collide, so their count is identically
  /// zero and needs no cell.
  [[nodiscard]] std::uint64_t collision_pair_count(LinkId a, LinkId b) const {
    const std::size_t slot = graph_.conflict_slot(a, b);
    return slot != InterferenceGraph::kNoSlot ? pair_count_[slot] : 0;
  }

  /// Visits every nonzero ledger entry once per unordered pair, as
  /// fn(a, b, count) with local ids a <= b in ascending (a, b) order (a == b
  /// is a same-link overlap). Walks only the conflict rows, so the cost is
  /// O(ledger cells), never O(n^2) on a sparse topology.
  template <typename Fn>
  void for_each_collision_pair(Fn&& fn) const {
    const CsrRows& rows = graph_.conflict_rows();
    for (LinkId a = 0; a < num_links_; ++a) {
      for (std::uint32_t i = rows.offsets[a]; i < rows.offsets[a + 1]; ++i) {
        if (rows.columns[i] >= a && pair_count_[i] != 0) fn(a, rows.columns[i], pair_count_[i]);
      }
    }
  }

  /// Bytes of per-link cold state this Medium holds (counters, sense views,
  /// topology rows, collision ledger, loss streams, listener table) — feeds
  /// the mem.phy gauge. Arena-backed spans are counted here, not
  /// double-counted by the arena owner.
  [[nodiscard]] std::size_t memory_bytes() const;

  // ---- shard mode -----------------------------------------------------------
  // A cell's Medium is a regular Medium over the induced subgraph, plus:
  // exported cut-link transmissions (drained by the coordinator at window
  // barriers), injected remote activity (phantom busy periods on the local
  // sense views of cross-cell speakers), and a resolution horizon that
  // converts the coordinator's conservative bound into a Simulator run
  // limit. None of this exists on a lone cell, which has no cuts.
  //
  // The per-window entry points REQUIRE the sim::shard_barrier phantom
  // capability: they mutate cross-shard state and are only sound inside the
  // coordinator's serial barrier phase. configure_shard/register_remote_sense
  // run at construction time, before any parallel phase exists, and are
  // deliberately unannotated.

  /// Enters shard mode. Precondition: the topology's completeness flags are
  /// cleared (the safe default for cell subgraphs — see
  /// InterferenceGraph::SubgraphFlags), EXCEPT for a cut-free cell (no cut
  /// conflicts, no exports, and never a register_remote_sense target): such
  /// a cell interacts with nothing outside itself, so a clique cell may keep
  /// complete sensing and its O(1) fast paths. Loss streams are re-keyed by
  /// global id either way, so results stay partition-independent.
  void configure_shard(ShardMediumConfig config);

  /// Declares that local `nodes` sense the remote global link `speaker`;
  /// inject_remote_activity(speaker, ...) will drive their views.
  void register_remote_sense(LinkId speaker, std::vector<LinkId> nodes);

  /// Arms the window's resolution bound: completions of cut-conflict
  /// transmissions ending after `bound` may not execute yet, so the engine
  /// run limit is set to the earliest such end (or cleared). Called by the
  /// coordinator at every window barrier.
  void set_resolution_horizon(TimePoint bound) RTMAC_REQUIRES(sim::shard_barrier);

  /// The cut transmissions exported since the last clear (start-time order).
  [[nodiscard]] std::span<const sim::CutTxRecord> cut_outbox() const
      RTMAC_REQUIRES(sim::shard_barrier) {
    return outbox_;
  }
  void clear_cut_outbox() RTMAC_REQUIRES(sim::shard_barrier) { outbox_.clear(); }

  /// Schedules a phantom busy period [start, end) on the views of the local
  /// nodes registered for `speaker`. Stale parts before now() are clipped;
  /// a fully stale record is dropped. No-op for unregistered speakers.
  void inject_remote_activity(LinkId speaker, TimePoint start, TimePoint end)
      RTMAC_REQUIRES(sim::shard_barrier);

  /// Attaches a protocol tracer (not owned; null detaches). The medium is
  /// the natural distribution point: MAC components that already hold a
  /// Medium& read the tracer from here, so attaching once traces the whole
  /// stack.
  void set_tracer(sim::Tracer* tracer) { tracer_ = tracer; }
  [[nodiscard]] sim::Tracer* tracer() const { return tracer_; }

  /// Attaches a metrics registry (not owned; null detaches). Like the
  /// tracer, the medium is the distribution point: MAC components that hold
  /// a Medium& read the registry from here, so attaching once instruments
  /// the whole stack. The medium itself contributes a busy-period quantile
  /// sketch (channel-occupancy burst structure, which the aggregate
  /// MediumCounters cannot reconstruct); everything else it accounts is
  /// exported from MediumCounters by obs::collect_network_metrics.
  void set_metrics(obs::MetricsRegistry* registry);
  [[nodiscard]] obs::MetricsRegistry* metrics() const { return metrics_; }
  /// Interval anchor for the delivery-latency series: the Network stamps
  /// every interval start here so delivered data packets can be measured
  /// against their interval's release time (the medium itself has no
  /// notion of the interval structure). One store per interval.
  void note_interval_start(TimePoint t) { interval_start_ = t; }
  /// Cached at construction: the channel's answer never changes, and this is
  /// queried from per-transmission hot paths (a virtual call would show up).
  [[nodiscard]] std::size_t num_links() const { return num_links_; }
  /// Long-run reliability p_n (what policies are configured with).
  [[nodiscard]] double success_prob(LinkId link) const {
    return channel_->mean_success(link);
  }

 private:
  struct ActiveTx {  // small fields last: packs into 96 bytes
    TimePoint start;
    Duration airtime;
    std::uint64_t id;
    LinkId link;
    PacketKind kind;
    bool collided;
    TxDone done;
  };

  /// One sense view's state. A completion callback may chain the next
  /// packet of a burst with zero idle gap; in that case `notified_busy`
  /// stays set, no idle/busy pair is emitted, and listeners correctly
  /// perceive one continuous busy period.
  struct SenseView {
    std::size_t active = 0;      ///< sensed transmissions in flight
    bool notified_busy = false;  ///< inside a (possibly chained) busy period
    TimePoint busy_since;        ///< start of the period (valid while notified_busy)
    Duration busy_time;          ///< total closed busy-period time
  };

  struct ListenerEntry {
    MediumListener* listener;
    LinkId view;  ///< mark_index() of the observed view
  };

  void finish_transmission(std::uint64_t tx_id);
  [[nodiscard]] SenseView& view_of(LinkId node) {
    return node == kAllNodes ? global_view_ : views_[node];
  }
  /// Slot of `node`'s view in marks_: the node itself, n for the global view.
  [[nodiscard]] LinkId mark_index(LinkId node) const {
    return node == kAllNodes ? static_cast<LinkId>(num_links_) : node;
  }
  /// Marks `node`'s view as having an edge awaiting dispatch_marked.
  void mark(LinkId node) {
    const LinkId index = mark_index(node);
    marks_[index] = 1;
    marked_[marked_count_++] = index;
  }
  /// Visits the views a transmission on `link` drives: the nodes that sense
  /// it (none of their own under complete sensing), then the global view.
  template <typename Fn>
  void for_each_view(LinkId link, Fn&& fn) {
    if (!complete_sensing_) {
      for (LinkId node : graph_.sensed_by(link)) fn(node);
    }
    fn(kAllNodes);
  }
  /// The loss stream for `link`. Complete graphs draw from one shared
  /// stream in completion order (the paper's model, frozen by the golden
  /// CSVs); partial topologies use per-link streams keyed by the link's
  /// global id, so the draw sequence is independent of both event
  /// interleaving across cells and of the partition itself.
  [[nodiscard]] Rng& loss_rng_for(LinkId link) {
    return loss_rngs_.empty() ? loss_rng_ : loss_rngs_[link];
  }
  /// One clean-attempt loss draw for `link`. For the common StaticChannel
  /// the virtual dispatch is bypassed: the draw inlines to the identical
  /// rng.bernoulli(p) call the model would make, consuming the same stream
  /// state — same bits, less call overhead on the per-completion hot path.
  [[nodiscard]] bool attempt_succeeds(LinkId link) {
    return static_probs_ != nullptr ? loss_rng_for(link).bernoulli(static_probs_[link])
                                    : channel_->attempt_succeeds(link, loss_rng_for(link));
  }
  /// Counts one pairwise collision event between a and b (symmetric; the
  /// self pair a == b counts once).
  void count_collision_pair(LinkId a, LinkId b) {
    const std::size_t ab = graph_.conflict_slot(a, b);
    RTMAC_ASSERT(ab != InterferenceGraph::kNoSlot, "collision between non-conflicting links");
    ++pair_count_[ab];
    if (a != b) ++pair_count_[graph_.conflict_slot(b, a)];
  }

  // ---- one packet lifecycle, shared by the event, burst and remote paths ----
  /// Start accounting: tx counters and the kTxStart record.
  void record_start(LinkId link, TimePoint at, Duration airtime, PacketKind kind);
  /// Completion accounting for a packet ending at `end`: airtime, the
  /// outcome (one loss draw for a clean data packet), delivery latency and
  /// the kTxEnd record.
  TxOutcome settle(LinkId link, TimePoint end, Duration airtime, PacketKind kind, bool collided);
  /// Busy entry: one more sensed transmission on `node`'s view; the first
  /// opens a busy period and marks the view for dispatch.
  void enter_busy(LinkId node, TimePoint now);
  /// One sensed transmission left `node`'s view. Separate from exit_busy
  /// because a completion drops its count before the initiator's callback
  /// (which may chain the next packet) but decides the idle edge after it.
  void release(LinkId node) {
    SenseView& view = view_of(node);
    RTMAC_ASSERT(view.active > 0, "unbalanced idle edge");
    --view.active;
  }
  /// Idle exit: closes `node`'s busy period if nothing sensed is left in
  /// flight (feeding phy.busy_period_us for the global view) and marks it.
  void exit_busy(LinkId node, TimePoint now);
  /// Applies a phantom busy/idle edge to the given local views (remote
  /// cut-edge activity; the global view stays untouched).
  void remote_mark(const std::vector<LinkId>& nodes, bool to_busy);
  /// Notifies listeners (in registration order) whose view is marked, then
  /// clears exactly the marks that were set. Aborts re-entrant
  /// start_transmission while running.
  void dispatch_marked(bool to_busy, TimePoint now);

  sim::Simulator& sim_;
  std::unique_ptr<ChannelModel> channel_;
  InterferenceGraph graph_;
  /// Cached graph_.complete_sensing(): per-node views are never touched and
  /// every listener observes the global view, which is exactly what a
  /// complete graph implies.
  bool complete_sensing_ = false;
  std::size_t num_links_ = 0;  ///< cached channel_->num_links()
  std::uint64_t seed_ = 0;     ///< root seed (loss streams re-key in shard mode)
  /// Non-null iff the channel is a StaticChannel: borrowed view of its p_n
  /// vector, enabling the devirtualized loss draw in attempt_succeeds().
  const double* static_probs_ = nullptr;
  Rng loss_rng_;               ///< shared stream (complete graphs only)
  std::vector<Rng> loss_rngs_;  ///< per-link streams (partial topologies)
  std::vector<ActiveTx> active_;  // small: rarely more than a handful in flight
  /// Cold per-link SoA blocks live in `arena_` (caller-shared, or the
  /// fallback `own_arena_` when constructed standalone), sized once at
  /// construction.
  util::Arena* arena_ = nullptr;
  std::unique_ptr<util::Arena> own_arena_;
  std::span<SenseView> views_;  ///< one per node (= per link)
  SenseView global_view_;         ///< the kAllNodes view; feeds phy.busy_period_us
  std::span<std::uint8_t> marks_;  ///< per-view edge flag; [n] = global
  /// The set marks_, in marking order (each view at most once per dispatch).
  std::span<LinkId> marked_;
  std::size_t marked_count_ = 0;
  bool dispatching_listeners_ = false;  ///< re-entrancy guard (always enforced)
  bool burst_active_ = false;           ///< inside a begin_burst/end_burst pair
  std::uint64_t next_tx_id_ = 1;
  std::vector<ListenerEntry> listeners_;
  MediumCounters counters_;
  std::span<LinkCounters> link_counters_;  ///< arena-backed, one per link
  /// Pairwise collision ledger, parallel to graph_.conflict_rows().columns.
  std::span<std::uint64_t> pair_count_;
  sim::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  // Cached instrument handles, null when detached. Quantile sketches, not
  // fixed-bucket histograms: busy periods and delivery latencies span four
  // orders of magnitude and the sketches stay memory-bounded on any horizon.
  obs::QuantileSketch* busy_period_sketch_ = nullptr;
  obs::QuantileSketch* delivery_latency_sketch_ = nullptr;
  TimePoint interval_start_;  ///< anchor for delivery latency (note_interval_start)

  // Shard mode (empty/default on a lone cell or a standalone Medium).
  bool shard_mode_ = false;
  ShardMediumConfig shard_;
  TimePoint resolution_horizon_;
  std::vector<sim::CutTxRecord> outbox_;
  /// speaker global id -> local nodes whose views it drives.
  std::unordered_map<LinkId, std::vector<LinkId>> remote_sense_;
};

}  // namespace rtmac::phy
