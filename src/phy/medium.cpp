#include "phy/medium.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "util/check.hpp"

namespace rtmac::phy {

namespace {

/// Stream id of link `global`'s private loss stream ("LOSS" + id). Partial
/// topologies draw per-link so the sequence is independent of how
/// transmissions on other links interleave — the property that makes
/// one-cell and many-cell runs bit-identical.
std::uint64_t loss_stream_id(LinkId global) { return mix64(0x4c4f5353ULL, global); }

}  // namespace

Medium::Medium(sim::Simulator& simulator, std::unique_ptr<ChannelModel> channel,
               InterferenceGraph graph, std::uint64_t seed, util::Arena* arena)
    : sim_{simulator},
      channel_{std::move(channel)},
      graph_{std::move(graph)},
      seed_{seed},
      loss_rng_{seed, /*stream_id=*/0x4d454449554dULL /* "MEDIUM" */},
      arena_{arena} {
  RTMAC_REQUIRE(channel_ != nullptr && channel_->num_links() > 0);
  num_links_ = channel_->num_links();
  RTMAC_REQUIRE(graph_.num_links() == num_links_, "interference graph size must match the channel");
  complete_sensing_ = graph_.complete_sensing();
  if (!graph_.is_complete()) {
    loss_rngs_.reserve(num_links_);
    for (LinkId link = 0; link < num_links_; ++link) {
      loss_rngs_.emplace_back(seed_, loss_stream_id(link));
    }
  }
  // A link has at most one transmission in flight: a cell of up to 64 links
  // never grows this list mid-run, however rare its largest collision.
  active_.reserve(std::min<std::size_t>(num_links_, 64));
  if (arena_ == nullptr) {
    // Standalone construction: no shared arena, bring a private one.
    own_arena_ = std::make_unique<util::Arena>();
    arena_ = own_arena_.get();
  }
  if (auto* static_channel = dynamic_cast<StaticChannel*>(channel_.get())) {
    static_probs_ = static_channel->probs().data();
  }
  link_counters_ = arena_->make_span<LinkCounters>(num_links_);
  views_ = arena_->make_span<SenseView>(num_links_);
  marks_ = arena_->make_span<std::uint8_t>(num_links_ + 1);
  marked_ = arena_->make_span<LinkId>(num_links_ + 1);
  // One counter per conflict-row entry ({a} + conflicts(a) per row — the
  // diagonal is forced, so self collisions always have a cell).
  pair_count_ = arena_->make_span<std::uint64_t>(graph_.conflict_rows().columns.size());
}

std::size_t Medium::memory_bytes() const {
  return link_counters_.size_bytes() + views_.size_bytes() + marks_.size_bytes() +
         marked_.size_bytes() + pair_count_.size_bytes() + graph_.memory_bytes() +
         loss_rngs_.capacity() * sizeof(Rng) + active_.capacity() * sizeof(ActiveTx) +
         listeners_.capacity() * sizeof(ListenerEntry) +
         outbox_.capacity() * sizeof(sim::CutTxRecord) +
         shard_.global_ids.capacity() * sizeof(LinkId) + shard_.conflict_cut.capacity() +
         shard_.exported.capacity();
}

void Medium::configure_shard(ShardMediumConfig config) {
  // A cell keeping its completeness flags must be cut-free: complete
  // sensing collapses everything onto the single global view, which is only
  // equivalent to the unsharded run when no external interference exists.
  if (complete_sensing_) {
    bool cut_free = true;
    for (std::size_t i = 0; i < config.conflict_cut.size(); ++i) {
      if (config.conflict_cut[i] != 0 || config.exported[i] != 0) {
        cut_free = false;
        break;
      }
    }
    RTMAC_REQUIRE(cut_free, "complete sensing in shard mode requires a cut-free cell");
  }
  RTMAC_REQUIRE(config.global_ids.size() == num_links_, "global id map size mismatch");
  RTMAC_REQUIRE(config.conflict_cut.size() == num_links_ && config.exported.size() == num_links_,
                "cut flag size mismatch");
  shard_mode_ = true;
  shard_ = std::move(config);
  // Re-key the loss streams by global id: the draws a link sees must not
  // depend on which cell it landed in.
  loss_rngs_.clear();
  for (LinkId link = 0; link < num_links_; ++link) {
    loss_rngs_.emplace_back(seed_, loss_stream_id(shard_.global_ids[link]));
  }
  resolution_horizon_ = sim::Simulator::no_run_limit();
  // Steady state allocation-free: a window rarely exports 4 txs per link.
  outbox_.reserve(8 * static_cast<std::size_t>(std::ranges::count_if(
                          shard_.exported, [](std::uint8_t e) { return e != 0; })));
}

void Medium::register_remote_sense(LinkId speaker, std::vector<LinkId> nodes) {
  RTMAC_REQUIRE(shard_mode_, "register_remote_sense outside shard mode");
  // remote_mark drives per-node views, which the complete-sensing fast path
  // never reads — a cell that keeps its flags must have no remote speakers.
  RTMAC_REQUIRE(!complete_sensing_, "remote sense injection needs per-node views");
  remote_sense_[speaker] = std::move(nodes);
}

void Medium::set_resolution_horizon(TimePoint bound) {
  RTMAC_ASSERT(shard_mode_, "set_resolution_horizon outside shard mode");
  resolution_horizon_ = bound;
  // The run limit is the earliest active cut-conflict completion past the
  // bound; completions blocked last window stay blocked until their
  // neighbors' clocks catch up. Starts are never blocked, so new cut
  // transmissions tighten the limit on the fly (see start_transmission).
  TimePoint limit = sim::Simulator::no_run_limit();
  for (const ActiveTx& tx : active_) {
    if (shard_.conflict_cut[tx.link] == 0) continue;
    const TimePoint end = tx.start + tx.airtime;
    if (end > bound && end < limit) limit = end;
  }
  sim_.set_run_limit(limit);
}

void Medium::inject_remote_activity(LinkId speaker, TimePoint start, TimePoint end) {
  RTMAC_REQUIRE(shard_mode_, "inject_remote_activity outside shard mode");
  const auto it = remote_sense_.find(speaker);
  if (it == remote_sense_.end()) return;
  const TimePoint now = sim_.now();
  if (end <= now) return;  // fully stale: the busy period is already over
  const std::vector<LinkId>* nodes = &it->second;
  const TimePoint busy_at = start > now ? start : now;
  sim_.schedule_at(busy_at, [this, nodes] { remote_mark(*nodes, /*to_busy=*/true); });
  sim_.schedule_at(end, [this, nodes] { remote_mark(*nodes, /*to_busy=*/false); });
}

void Medium::remote_mark(const std::vector<LinkId>& nodes, bool to_busy) {
  const TimePoint now = sim_.now();
  for (LinkId node : nodes) {
    if (to_busy) {
      enter_busy(node, now);
    } else {
      release(node);
      exit_busy(node, now);
    }
  }
  dispatch_marked(to_busy, now);
}

void Medium::add_listener(MediumListener* listener, LinkId node) {
  RTMAC_REQUIRE(listener != nullptr);
  RTMAC_REQUIRE(node == kAllNodes || node < num_links());
  listeners_.push_back(ListenerEntry{listener, mark_index(complete_sensing_ ? kAllNodes : node)});
}

void Medium::set_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  if (registry == nullptr) {
    busy_period_sketch_ = nullptr;
    delivery_latency_sketch_ = nullptr;
    return;
  }
  // Busy periods span microseconds (one claim packet) to a whole interval
  // (tens of ms of back-to-back traffic); delivery latency spans the same
  // range, measured from the interval's release instant. Both are quantile
  // sketches: no bucket bounds to pick, bounded memory on any horizon.
  busy_period_sketch_ = &registry->sketch("phy.busy_period_us");
  delivery_latency_sketch_ = &registry->sketch("phy.delivery_latency_us");
}

void Medium::enter_busy(LinkId node, TimePoint now) {
  SenseView& view = view_of(node);
  ++view.active;
  if (view.notified_busy) return;
  view.notified_busy = true;
  view.busy_since = now;
  mark(node);
}

void Medium::exit_busy(LinkId node, TimePoint now) {
  SenseView& view = view_of(node);
  if (view.active != 0 || !view.notified_busy) return;
  view.notified_busy = false;
  const Duration period = now - view.busy_since;
  view.busy_time += period;
  if (node == kAllNodes && busy_period_sketch_ != nullptr) {
    busy_period_sketch_->update(period.us_f());
  }
  mark(node);
}

void Medium::dispatch_marked(bool to_busy, TimePoint now) {
  if (marked_count_ == 0) return;
  dispatching_listeners_ = true;
  for (const ListenerEntry& entry : listeners_) {
    if (marks_[entry.view] == 0) continue;
    if (to_busy) {
      entry.listener->on_medium_busy(now);
    } else {
      entry.listener->on_medium_idle(now);
    }
  }
  dispatching_listeners_ = false;
  // Clear only what was marked: a full sweep would cost O(n) per edge.
  for (const LinkId index : marked_.first(marked_count_)) marks_[index] = 0;
  marked_count_ = 0;
}

void Medium::record_start(LinkId link, TimePoint at, Duration airtime, PacketKind kind) {
  if (kind == PacketKind::kData) {
    ++counters_.data_tx;
    ++link_counters_[link].data_tx;
  } else {
    ++counters_.empty_tx;
    ++link_counters_[link].empty_tx;
  }
  if (tracer_ != nullptr) {
    tracer_->record(at, sim::TraceKind::kTxStart, link, airtime.ns(),
                    kind == PacketKind::kEmpty ? 1 : 0);
  }
}

TxOutcome Medium::settle(LinkId link, TimePoint end, Duration airtime, PacketKind kind,
                         bool collided) {
  counters_.busy_time += airtime;
  link_counters_[link].airtime += airtime;
  TxOutcome outcome;
  if (collided) {
    outcome = TxOutcome::kCollision;
    ++counters_.collisions;
    ++link_counters_[link].collisions;
    counters_.collided_time += airtime;
  } else if (kind == PacketKind::kData && attempt_succeeds(link)) {
    outcome = TxOutcome::kDelivered;
    ++counters_.delivered;
    ++link_counters_[link].delivered;
    if (delivery_latency_sketch_ != nullptr) {
      delivery_latency_sketch_->update((end - interval_start_).us_f());
    }
  } else if (kind == PacketKind::kEmpty) {
    // Empty packets carry no payload; a clean empty transmission counts as
    // delivered for protocol purposes (the claim was heard as channel
    // activity), and is never subject to the payload loss process.
    outcome = TxOutcome::kDelivered;
  } else {
    outcome = TxOutcome::kChannelLoss;
    ++counters_.channel_losses;
  }
  if (tracer_ != nullptr) {
    tracer_->record(end, sim::TraceKind::kTxEnd, link, static_cast<std::int64_t>(outcome),
                    kind == PacketKind::kEmpty ? 1 : 0);
  }
  return outcome;
}

void Medium::start_transmission(LinkId link, Duration airtime, PacketKind kind, TxDone done) {
  RTMAC_REQUIRE(link < channel_->num_links());
  RTMAC_REQUIRE(airtime > Duration{}, "zero-airtime transmission");
  RTMAC_ASSERT(!burst_active_, "start_transmission while a burst holds the medium");
  if (dispatching_listeners_) {
    // Re-entrancy rule (see MediumListener): transmitting synchronously from
    // a busy/idle callback would let later listeners observe transitions out
    // of order. Always enforced — the cost is one branch per transmission.
    std::fprintf(stderr,
                 "rtmac: Medium::start_transmission called synchronously from a "
                 "MediumListener callback (link %u); schedule through the Simulator "
                 "instead\n",
                 link);
    std::abort();
  }

  const TimePoint now = sim_.now();

  // Transmissions occupy half-open intervals [start, start+airtime): an
  // active record whose end instant equals `now` is merely awaiting its
  // same-timestamp completion event and does NOT overlap the newcomer.
  // Only overlaps on CONFLICTING links collide.
  bool collided = false;
  for (auto& tx : active_) {
    if (tx.start + tx.airtime > now && graph_.conflicts(link, tx.link)) {
      tx.collided = true;
      collided = true;
      count_collision_pair(link, tx.link);
    }
  }

  const std::uint64_t tx_id = next_tx_id_++;
  active_.push_back(ActiveTx{now, airtime, tx_id, link, kind, collided, std::move(done)});
  sim_.schedule_in(airtime, [this, tx_id] { finish_transmission(tx_id); });

  if (shard_mode_) {
    const TimePoint end = now + airtime;
    if (shard_.exported[link] != 0) {
      outbox_.push_back(sim::CutTxRecord{shard_.global_ids[link], now, end});
    }
    // A new cut-conflict transmission ending beyond the resolution bound
    // must not complete this window; tighten the run limit if it is now
    // the earliest blocked completion.
    if (shard_.conflict_cut[link] != 0 && end > resolution_horizon_ && end < sim_.run_limit()) {
      sim_.set_run_limit(end);
    }
  }

  record_start(link, now, airtime, kind);
  for_each_view(link, [this, now](LinkId node) { enter_busy(node, now); });
  dispatch_marked(/*to_busy=*/true, now);
}

void Medium::finish_transmission(std::uint64_t tx_id) {
  const auto it = std::find_if(active_.begin(), active_.end(),
                               [tx_id](const ActiveTx& tx) { return tx.id == tx_id; });
  RTMAC_ASSERT(it != active_.end(), "unknown transmission id");

  // Move the record out before invoking user code: the completion callback
  // may immediately start another transmission (back-to-back bursts).
  ActiveTx tx = std::move(*it);
  active_.erase(it);
  for_each_view(tx.link, [this](LinkId node) { release(node); });

  // Cross-shard overlaps: by the time this completion executes, the
  // coordinator guarantees every conflicting neighbor cell has advanced
  // past it, so the resolver's answer is exact. Consulted even when a
  // local overlap already collided the packet — the cross-shard pair
  // ledger must count either way, exactly like the local pair ledger.
  if (shard_mode_ && shard_.conflict_cut[tx.link] != 0 && shard_.resolver != nullptr) {
    const bool remote_collision = shard_.resolver->resolve_cut_tx(
        shard_.global_ids[tx.link], tx.start, tx.start + tx.airtime);
    tx.collided = tx.collided || remote_collision;
  }

  const TimePoint now = sim_.now();
  const TxOutcome outcome = settle(tx.link, now, tx.airtime, tx.kind, tx.collided);

  // Notify the transmitter first (it may chain the next packet of a burst,
  // keeping its sense views busy with no idle gap), then carrier-sense
  // listeners of every view that actually went idle.
  if (tx.done) tx.done(outcome);
  for_each_view(tx.link, [this, now](LinkId node) { exit_busy(node, now); });
  dispatch_marked(/*to_busy=*/false, now);
}

void Medium::begin_burst(LinkId link) {
  RTMAC_REQUIRE(link < num_links_);
  RTMAC_ASSERT(burst_available(), "begin_burst without burst_available()");
  burst_active_ = true;
}

TxOutcome Medium::burst_tx(LinkId link, TimePoint at, Duration airtime, PacketKind kind) {
  RTMAC_ASSERT(burst_active_, "burst_tx outside a burst");
  RTMAC_REQUIRE(airtime > Duration{}, "zero-airtime transmission");
  record_start(link, at, airtime, kind);
  // The first packet opens the busy period, exactly where the per-event
  // path does (after its kTxStart record, before the outcome); the burst
  // then holds the global view busy until end_burst.
  if (!busy()) {
    enter_busy(kAllNodes, at);
    dispatch_marked(/*to_busy=*/true, at);
  }
  // No collision: the burst holds the medium exclusively, so the outcome
  // depends only on the channel — drawn from the same loss stream, in the
  // same order, as the per-event path would at the completion event, which
  // would run at the packet's virtual end `at + airtime`.
  return settle(link, at + airtime, airtime, kind, /*collided=*/false);
}

void Medium::end_burst(TimePoint end) {
  RTMAC_ASSERT(burst_active_, "end_burst outside a burst");
  RTMAC_ASSERT(end >= sim_.now(), "burst ends in the past");
  // The idle transition runs synchronously with the burst-end timestamp
  // rather than through an event at `end`: the burst froze every other
  // device at its busy edge (the shared backoff clock cancelled its expiry),
  // so the event queue holds nothing that could observe the medium before
  // `end` — asserted below. Listeners receive the future timestamp and
  // schedule their resumed expiries at absolute times >= `end`, which is
  // exactly what they would have computed inside an event at `end`.
  RTMAC_ASSERT(sim_.no_event_before(end), "event pending inside the burst window");
  burst_active_ = false;
  release(kAllNodes);
  exit_busy(kAllNodes, end);
  dispatch_marked(/*to_busy=*/false, end);
}

}  // namespace rtmac::phy
