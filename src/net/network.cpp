#include "net/network.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/shard_barrier.hpp"
#include "sim/shard_partitioner.hpp"
#include "sim/sharded_simulator.hpp"
#include "stats/deficiency.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace rtmac::net {

// ---- CutState ---------------------------------------------------------------

/// Cross-shard conflict resolver and collision ledger. Cut-link records are
/// appended only at serial coordinator barriers; during the parallel phase
/// cells read them concurrently (immutable between barriers). Each cut edge
/// has one pair counter, and only the cell owning the edge's lower-id
/// endpoint ever increments it, so the resolver is race-free without locks.
class Network::CutState final : public phy::CutResolver {
 public:
  static constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);

  void build(const sim::ShardPlan& plan, Duration interval_length) {
    interval_length_ = interval_length;
    edges_ = plan.cut_conflicts;
    slot_of_.assign(plan.num_links(), kNoSlot);
    auto slot = [this](LinkId g) {
      if (slot_of_[g] == kNoSlot) {
        slot_of_[g] = static_cast<std::uint32_t>(partners_.size());
        partners_.emplace_back();
        head_.push_back(kNoSlot);
      }
      return slot_of_[g];
    };
    for (std::size_t i = 0; i < edges_.size(); ++i) {
      const sim::CutEdge e = edges_[i];
      const std::uint32_t sa = slot(e.a);
      partners_[sa].push_back(PairRef{e.b, i});
      const std::uint32_t sb = slot(e.b);
      partners_[sb].push_back(PairRef{e.a, i});
    }
    pair_counts_.assign(edges_.size(), 0);
    // Steady state allocation-free: an interval averages < 2 per cut link.
    records_.reserve(4 * head_.size());
  }

  /// Barrier phase (serial): remember one exported cut transmission.
  /// Records of sense-only speakers (no cut conflict edge) are not needed
  /// for resolution and are dropped here.
  void add_record(const sim::CutTxRecord& r) RTMAC_REQUIRES(sim::shard_barrier) {
    RTMAC_ASSERT(interval_start_ <= r.start && r.start < interval_start_ + interval_length_,
                 "a cut record from outside the current interval");
    const std::uint32_t slot = slot_of_[r.link];
    if (slot == kNoSlot) return;
    records_.push_back(Record{r.start, r.end, head_[slot]});
    head_[slot] = static_cast<std::uint32_t>(records_.size() - 1);
  }

  /// Interval boundary (serial): the gap rule guarantees no transmission
  /// crosses it, so all records are dead. Serial like the barrier phase, so
  /// it borrows the same phantom capability.
  void clear_records() RTMAC_REQUIRES(sim::shard_barrier) {
    records_.clear();
    std::ranges::fill(head_, kNoSlot);
    interval_start_ += interval_length_;
  }

  // phy::CutResolver. Called by a cell's Medium when a cut-link completion
  // executes; the conservative window protocol guarantees every overlapping
  // remote transmission has already been recorded, so the answer is exact.
  [[nodiscard]] bool resolve_cut_tx(LinkId link, TimePoint start, TimePoint end) override {
    const std::uint32_t slot = slot_of_[link];
    RTMAC_ASSERT(slot != kNoSlot, "cut resolution for a non-cut link");
    bool collided = false;
    for (const PairRef& pr : partners_[slot]) {
      for (std::uint32_t i = head_[slot_of_[pr.partner]]; i != kNoSlot; i = records_[i].next) {
        const Record& r = records_[i];
        if (r.start < end && start < r.end) {
          collided = true;
          // Each overlapping transmission pair is counted exactly once: by
          // the lower-id side's completion (the other side sees the mirror
          // overlap and skips). That side's cell is the edge counter's only
          // writer.
          if (link < pr.partner) ++pair_counts_[pr.pair_idx];
        }
      }
    }
    return collided;
  }

  /// Cross-cell pairwise collision events (GLOBAL ids; 0 for non-cut pairs).
  [[nodiscard]] std::uint64_t pair_count(LinkId a, LinkId b) const {
    const sim::CutEdge e{std::min(a, b), std::max(a, b)};
    const auto it = std::lower_bound(
        edges_.begin(), edges_.end(), e, [](const sim::CutEdge& x, const sim::CutEdge& y) {
          return x.a != y.a ? x.a < y.a : x.b < y.b;
        });
    if (it == edges_.end() || !(*it == e)) return 0;
    return pair_counts_[static_cast<std::size_t>(it - edges_.begin())];
  }

  /// Visits every cut edge with a nonzero count as fn(a, b, count), a < b.
  template <typename Fn>
  void for_each_pair(Fn&& fn) const {
    for (std::size_t i = 0; i < edges_.size(); ++i) {
      if (pair_counts_[i] != 0) fn(edges_[i].a, edges_[i].b, pair_counts_[i]);
    }
  }

 private:
  struct PairRef {
    LinkId partner;         ///< the other endpoint (global id)
    std::size_t pair_idx;   ///< index into edges_ / pair_counts_
  };
  /// One recorded transmission, chained to its slot's previous record.
  struct Record {
    TimePoint start;
    TimePoint end;
    std::uint32_t next;  ///< index into records_, or kNoSlot
  };

  std::vector<sim::CutEdge> edges_;                   ///< sorted cut conflicts
  std::vector<std::uint32_t> slot_of_;                ///< global link -> slot
  std::vector<std::vector<PairRef>> partners_;        ///< per slot
  std::vector<std::uint32_t> head_;                   ///< per slot: its latest record
  std::vector<Record> records_;                       ///< this interval's, all slots
  std::vector<std::uint64_t> pair_counts_;            ///< per cut edge; one writer each
  Duration interval_length_;
  TimePoint interval_start_;  ///< of the interval whose records are held
};

// ---- Cell -------------------------------------------------------------------

/// One shard cell: a full engine stack (Simulator + Medium + scheme + debt
/// slice) over the induced subgraph of one partition cell. Member order is
/// load-bearing: the scheme holds references to success_prob and debts.
struct Network::Cell final : public sim::ShardCell {
  Network& net;
  std::vector<LinkId> links;       ///< global ids, ascending
  ProbabilityVector success_prob;  ///< sliced by global id
  core::DebtTracker debts;         ///< sliced; mirrors the global ledger
  sim::Simulator sim;
  std::unique_ptr<phy::Medium> medium;
  std::unique_ptr<mac::MacScheme> scheme;
  std::unique_ptr<obs::MetricsRegistry> registry;  ///< private per-cell instruments
  std::vector<int> arrivals;
  std::vector<int> delivered;

  Cell(Network& n, std::vector<LinkId> ls, RateVector q_slice, ProbabilityVector p_slice)
      : net{n},
        links{std::move(ls)},
        success_prob{std::move(p_slice)},
        debts{std::move(q_slice)},
        arrivals(links.size(), 0),
        delivered(links.size(), 0) {}

  // sim::ShardCell. The thread-safety analysis does not inherit attributes
  // from the base-class declarations, so the phase annotations are repeated
  // here — without them the bodies could not call the Medium's
  // barrier-phase-only entry points.
  [[nodiscard]] TimePoint clock() const override { return sim.now(); }
  [[nodiscard]] std::span<const sim::CutTxRecord> drain_outbox() override
      RTMAC_REQUIRES(sim::shard_barrier) {
    for (const sim::CutTxRecord& r : medium->cut_outbox()) net.cut_->add_record(r);
    return medium->cut_outbox();
  }
  void deliver_remote(const sim::CutTxRecord& record) override
      RTMAC_REQUIRES(sim::shard_barrier) {
    medium->inject_remote_activity(record.link, record.start, record.end);
  }
  void begin_window(TimePoint bound) override RTMAC_REQUIRES(sim::shard_barrier) {
    medium->clear_cut_outbox();
    medium->set_resolution_horizon(bound);
  }
  /// Adaptive-lookahead probe: nothing observable happens in this cell
  /// before its next pending event, so neighbors may run up to that instant
  /// (see sim/sharded_simulator.hpp for the exactness argument). An idle
  /// cell reports no_run_limit() and stops throttling its neighbors.
  [[nodiscard]] TimePoint next_activity_bound() override RTMAC_REQUIRES(sim::shard_barrier) {
    return sim.next_event_time();
  }
  void run_window(TimePoint horizon) override RTMAC_EXCLUDES(sim::shard_barrier) {
    sim.run_until(horizon);
  }

  /// Interval start: copies this cell's arrivals out of the global buffer,
  /// anchors the delivery-latency series and begins the scheme's interval.
  void begin_interval(IntervalIndex k, TimePoint start, TimePoint end) {
    for (std::size_t j = 0; j < links.size(); ++j) arrivals[j] = net.arrivals_[links[j]];
    RTMAC_ASSERT(sim.now() == start, "interval boundaries drifted");
    medium->note_interval_start(start);
    scheme->begin_interval(k, arrivals, end);
  }
  /// Interval end: settles the scheme and the debt slice, then copies the
  /// deliveries into the global buffer (slots of this cell's links only).
  void end_interval() {
    RTMAC_ASSERT(!medium->busy(), "a transmission overran the interval boundary (gap rule)");
    scheme->end_interval(delivered);
    debts.on_interval_end(delivered);
    for (std::size_t j = 0; j < links.size(); ++j) net.delivered_[links[j]] = delivered[j];
  }
};

// ---- construction -----------------------------------------------------------

namespace {

NetworkConfig validated(NetworkConfig config) {
  std::string error;
  if (!config.validate(&error)) throw std::invalid_argument{"invalid NetworkConfig: " + error};
  return config;
}

/// How `config`'s links are cut into cells: one cell over every link unless
/// sharding was requested on an explicit topology, which is then partitioned
/// straight from its lists (no copy: a 10^6-link topology's adjacency is
/// hundreds of MB). No topology is the complete collision domain: one
/// clique cell.
sim::ShardPlan plan_cells(const NetworkConfig& config) {
  if (config.shards == 0 || config.sparse_topology == nullptr) {
    return sim::single_cell_plan(config.num_links());
  }
  return sim::partition_topology(config.sparse_topology->conflict,
                                 config.sparse_topology->sense, config.shards);
}

}  // namespace

Network::Network(NetworkConfig config, const mac::SchemeFactory& scheme_factory)
    : config_{validated(std::move(config))},
      debts_{config_.requirements.q()},
      stats_{config_.num_links()},
      arrival_rng_{config_.seed, /*stream_id=*/0xA221BA15ULL},
      arrivals_(config_.interval_buffer_hint(), 0),
      delivered_(config_.interval_buffer_hint(), 0) {
  // Central arrival sampling is table-driven on every non-joint run; the
  // kernel reproduces the scalar per-link draw sequence exactly (see
  // net/arrival_kernel.hpp).
  if (config_.joint_arrivals == nullptr) {
    if (!config_.arrivals.empty()) {
      arrival_kernel_.build(config_.arrivals, arena_);
    } else {
      arrival_kernel_.build_uniform(*config_.uniform_arrivals, config_.num_links(), arena_);
    }
  }
  build_cells(scheme_factory);
}

Network::~Network() = default;

void Network::build_cells(const mac::SchemeFactory& scheme_factory) {
  const std::size_t n = config_.num_links();
  plan_ = plan_cells(config_);
  const std::size_t num_cells = plan_.cells.size();
  local_of_.assign(n, 0);
  for (std::size_t ci = 0; ci < num_cells; ++ci) {
    const std::vector<LinkId>& links = plan_.cells[ci];
    for (std::size_t j = 0; j < links.size(); ++j) {
      local_of_[links[j]] = static_cast<LinkId>(j);
    }
  }
  // Cut bookkeeping exists only when the plan cut something; a cut-free
  // plan (one cell, or disconnected cells) has no cross-cell interaction.
  const bool has_cuts = !plan_.cut_conflicts.empty() || !plan_.cut_senses.empty();
  if (has_cuts) {
    cut_ = std::make_unique<CutState>();
    cut_->build(plan_, config_.interval_length);
  }
  // Per-link cut roles, empty when nothing is cut: kCutConflict marks an
  // endpoint of a cut conflict edge, kCutSpeaker a link heard across a cut.
  constexpr std::uint8_t kCutConflict = 1;
  constexpr std::uint8_t kCutSpeaker = 2;
  std::vector<std::uint8_t> cut_role(has_cuts ? n : 0, 0);
  for (const sim::CutEdge& e : plan_.cut_conflicts) {
    cut_role[e.a] |= kCutConflict;
    cut_role[e.b] |= kCutConflict;
  }
  for (const sim::CutSense& s : plan_.cut_senses) cut_role[s.speaker] |= kCutSpeaker;

  // Remote-sense registrations grouped per listening cell: (speaker global
  // id, local listener node).
  std::vector<std::vector<std::pair<LinkId, LinkId>>> remote(has_cuts ? num_cells : 0);
  for (const sim::CutSense& s : plan_.cut_senses) {
    remote[plan_.cell_of[s.listener]].emplace_back(s.speaker, local_of_[s.listener]);
  }

  const RateVector q = config_.requirements.q();
  cells_.reserve(num_cells);
  for (std::size_t ci = 0; ci < num_cells; ++ci) {
    const std::vector<LinkId>& links = plan_.cells[ci];
    RateVector q_slice;
    ProbabilityVector p_slice;
    q_slice.reserve(links.size());
    p_slice.reserve(links.size());
    for (const LinkId g : links) {
      q_slice.push_back(q[g]);
      p_slice.push_back(config_.success_prob[g]);
    }
    auto cell = std::make_unique<Cell>(*this, links, std::move(q_slice), std::move(p_slice));

    // A cut-free cell (no cut conflicts, no exported speakers, no remote
    // listeners) interacts with nothing outside itself, so its subgraph may
    // keep honestly-computed completeness flags: a clique cell then runs
    // the O(1) complete-sensing fast paths — the per-event win that makes
    // dense-cell city topologies scale (DESIGN §4j).
    const bool cut_free =
        !has_cuts || (remote[ci].empty() && std::none_of(links.begin(), links.end(),
                                                         [&](LinkId g) { return cut_role[g] != 0; }));
    const auto flags = cut_free ? phy::InterferenceGraph::SubgraphFlags::kKeepCompleteness
                                : phy::InterferenceGraph::SubgraphFlags::kClearCompleteness;
    // The loss process: a custom channel model (single-cell networks only,
    // see NetworkConfig::validate) or the paper's Bernoulli(success_prob).
    std::unique_ptr<phy::ChannelModel> channel;
    if (config_.channel_factory) {
      channel = config_.channel_factory();
      RTMAC_REQUIRE(channel != nullptr && channel->num_links() == n,
                    "channel model size must match the network");
    } else {
      channel = std::make_unique<phy::StaticChannel>(cell->success_prob);
    }
    // The cell's view of the topology, or the paper's complete collision
    // domain when there is none.
    phy::InterferenceGraph graph =
        config_.sparse_topology != nullptr
            ? phy::InterferenceGraph::induced(*config_.sparse_topology, cell->links,
                                              plan_.cell_of, local_of_, flags)
            : phy::InterferenceGraph::complete(links.size());
    cell->medium = std::make_unique<phy::Medium>(cell->sim, std::move(channel), std::move(graph),
                                                 config_.seed, &arena_);

    // A lone cell spans the network: its local ids are the global ids and
    // nothing is cut, so its Medium keeps the plain single-domain setup
    // (including the shared loss stream of a complete graph).
    std::size_t num_speakers = 0;
    if (num_cells > 1) {
      phy::ShardMediumConfig smc;
      smc.global_ids = cell->links;
      smc.conflict_cut.resize(links.size(), 0);
      smc.exported.resize(links.size(), 0);
      smc.resolver = cut_.get();
      if (!cut_free) {
        for (std::size_t j = 0; j < links.size(); ++j) {
          smc.conflict_cut[j] = cut_role[links[j]] & kCutConflict;
          smc.exported[j] = static_cast<std::uint8_t>(cut_role[links[j]] != 0);
        }
      }
      cell->medium->configure_shard(std::move(smc));

      if (has_cuts) {
        std::vector<std::pair<LinkId, LinkId>>& regs = remote[ci];
        std::sort(regs.begin(), regs.end());
        for (std::size_t i = 0; i < regs.size();) {
          const LinkId speaker = regs[i].first;
          std::vector<LinkId> nodes;
          for (; i < regs.size() && regs[i].first == speaker; ++i) nodes.push_back(regs[i].second);
          cell->medium->register_remote_sense(speaker, std::move(nodes));
          ++num_speakers;
        }
      }
    }
    mac::SchemeContext ctx{cell->sim,
                           *cell->medium,
                           config_.phy,
                           config_.interval_length,
                           links.size(),
                           cell->success_prob,
                           cell->debts,
                           config_.seed,
                           std::span<const LinkId>{cell->links},
                           n};
    cell->scheme = scheme_factory(ctx);
    RTMAC_REQUIRE(cell->scheme != nullptr);
    if (num_cells > 1 && !cell->scheme->shardable()) {
      throw std::invalid_argument{"scheme " + cell->scheme->name() +
                                  " requires global knowledge and cannot run on " +
                                  std::to_string(num_cells) + " cells"};
    }
    // The reserve covers the PEAK number of simultaneously pending events,
    // not the per-interval total: the scheme declares its per-link timer
    // bound (batch shared-clock schemes keep ONE domain expiry event plus at
    // most one in-flight completion per link; scalar engines add parked
    // per-link expiries), and each remote speaker holds at most two edges
    // (busy + idle) per in-flight injection. Sized AFTER scheme construction
    // so the bound can depend on the layout the scheme chose; at 10^5+ cells
    // the pool is the dominant per-cell footprint, so a tight bound is worth
    // real memory at the million-link scale.
    // engine.events.reallocs == 0 in the bench gate proves the bound holds.
    cell->sim.reserve_events(links.size() * cell->scheme->pending_events_per_link() + 16 +
                             4 * num_speakers);
    cells_.push_back(std::move(cell));
  }

  // Pool workers run chunks beside the calling thread (see shard_jobs). One
  // group (shards 1, or one cell) runs serially; skip the hardware query (a
  // syscall that would dominate a small network's construction).
  if (group_count() > 1 && config_.shard_jobs != 1) {
    const std::size_t requested =
        config_.shard_jobs != 0 ? config_.shard_jobs : ThreadPool::hardware_threads() - 1;
    const std::size_t workers = std::min(requested, group_count() - 1);
    if (workers > 0) pool_ = std::make_unique<ThreadPool>(workers);
  }
  chunks_ = sim::chunk_bounds(plan_, pool_ != nullptr ? pool_->size() + 1 : 1);

  if (has_cuts) {
    // Cells coupled by ANY cut relation bound each other's windows. Sense
    // cuts only require listener-waits-for-speaker, but the symmetric form
    // is simpler and merely conservative.
    std::vector<std::vector<std::uint32_t>> cut_neighbors(num_cells);
    auto couple = [this, &cut_neighbors](LinkId x, LinkId y) {
      const std::uint32_t cx = plan_.cell_of[x];
      const std::uint32_t cy = plan_.cell_of[y];
      if (cx != cy) {
        cut_neighbors[cx].push_back(cy);
        cut_neighbors[cy].push_back(cx);
      }
    };
    for (const sim::CutEdge& e : plan_.cut_conflicts) couple(e.a, e.b);
    for (const sim::CutSense& s : plan_.cut_senses) couple(s.listener, s.speaker);
    for (auto& v : cut_neighbors) {
      std::sort(v.begin(), v.end());
      v.erase(std::unique(v.begin(), v.end()), v.end());
    }
    std::vector<sim::ShardCell*> cell_ptrs;
    cell_ptrs.reserve(num_cells);
    for (const auto& cell : cells_) cell_ptrs.push_back(cell.get());
    coordinator_ = std::make_unique<sim::ShardCoordinator>(
        std::move(cell_ptrs), std::move(cut_neighbors), chunks_, pool_.get(),
        config_.adaptive_lookahead);
  }
}

// ---- interval loop ----------------------------------------------------------

void Network::add_observer(IntervalObserver observer) {
  observers_.push_back(std::move(observer));
}

void Network::attach_tracer(sim::Tracer* tracer) {
  RTMAC_REQUIRE(tracer == nullptr || cell_count() == 1,
                "protocol tracing requires a single-cell network");
  tracer_ = tracer;
  cells_.front()->medium->set_tracer(tracer);
}

void Network::attach_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  if (cell_count() == 1) {
    cells_.front()->medium->set_metrics(registry);
  } else {
    // Each cell's medium/MAC instruments go to a private registry so the
    // parallel phase never shares one; merge_cell_metrics_into folds them.
    // Detaching keeps what the cells recorded (a lone cell's instruments
    // likewise stay in the caller's registry), so a collect after the
    // detach still exports them.
    for (auto& cell : cells_) {
      if (registry != nullptr) cell->registry = std::make_unique<obs::MetricsRegistry>();
      cell->medium->set_metrics(registry != nullptr ? cell->registry.get() : nullptr);
    }
  }
  debt_gauges_.clear();
  debt_sketches_.clear();
  if (registry == nullptr) {
    debt_linf_gauge_ = nullptr;
    debt_linf_sketch_ = nullptr;
    deliveries_sketch_ = nullptr;
    return;
  }
  debt_linf_gauge_ = &registry->gauge("core.debt_linf");
  // Per-interval distributions are quantile sketches: bounded memory with a
  // distribution-independent rank guarantee, so they survive any horizon
  // and any debt scale without hand-picked bucket bounds.
  debt_linf_sketch_ = &registry->sketch("core.debt_linf_per_interval");
  deliveries_sketch_ = &registry->sketch("net.deliveries_per_interval");
  debt_gauges_.reserve(config_.num_links());
  debt_sketches_.reserve(config_.num_links());
  // Per-link debt series use a smaller compactor: one sketch per link must
  // stay cheap at large N, and per-link debt spans a narrower range than
  // the network-wide L-inf series.
  const obs::SketchOptions per_link{/*k=*/64, /*exact_threshold=*/256};
  std::string name;
  for (LinkId n = 0; n < config_.num_links(); ++n) {
    debt_gauges_.push_back(&registry->gauge(obs::link_metric(name, "core.debt", n)));
    debt_sketches_.push_back(
        &registry->sketch(obs::link_metric(name, "core.debt_per_interval", n), per_link));
  }
}

void Network::run(IntervalIndex intervals) {
  const std::size_t n_links = config_.num_links();
  const std::span<int> arrivals{arrivals_};

  for (IntervalIndex i = 0; i < intervals; ++i) {
    const IntervalIndex k = next_interval_++;
    const TimePoint start = TimePoint::origin() +
                            static_cast<std::int64_t>(k) * config_.interval_length;
    const TimePoint end = start + config_.interval_length;

    // Arrivals are sampled centrally in global link order, so the sampled
    // sequence is independent of the partition. The kernel consumes the
    // stream exactly as the per-link virtual loop would.
    if (config_.joint_arrivals != nullptr) {
      config_.joint_arrivals->sample_into(arrival_rng_, arrivals);
    } else {
      arrival_kernel_.sample_into(arrival_rng_, arrivals.first(n_links));
    }

    if (tracer_ != nullptr) {
      tracer_->record(start, sim::TraceKind::kIntervalStart, sim::kNoLink,
                      static_cast<std::int64_t>(k));
    }
    run_cells(k, start, end);
    if (tracer_ != nullptr) {
      tracer_->record(end, sim::TraceKind::kIntervalEnd, sim::kNoLink,
                      static_cast<std::int64_t>(k));
    }
    finish_interval(k, end);
  }
}

template <typename Step>
void Network::in_chunks(const Step& step) {
  sim::for_each_chunked(pool_.get(), chunks_, [&](std::size_t c) { step(*cells_[c]); });
}

void Network::run_cells(IntervalIndex k, TimePoint start, TimePoint end) {
  // Every per-cell step runs in chunks: a cell's interval edges touch only
  // its own engine stack and its own slots of arrivals_ and delivered_.
  if (coordinator_ == nullptr) {
    // Cut-free path: cells are independent, so an interval is one fork-join.
    in_chunks([&](Cell& cell) {
      cell.begin_interval(k, start, end);
      cell.sim.run_until(end);
      cell.end_interval();
    });
    return;
  }
  // Cut path: three fork-joins, the coordinator's windows between the edges.
  in_chunks([&](Cell& cell) { cell.begin_interval(k, start, end); });
  coordinator_->advance_to(end);
  in_chunks([](Cell& cell) { cell.end_interval(); });
  // The boundary is serial, like a window barrier. The gap rule ends every
  // cut transmission by `end`, so the mailbox records and the last window's
  // undrained exports are dead.
  const util::PhantomLock barrier{sim::shard_barrier};
  cut_->clear_records();
  for (auto& cell : cells_) cell->medium->clear_cut_outbox();
}

void Network::finish_interval(IntervalIndex k, TimePoint end) {
  const std::size_t n_links = config_.num_links();
  debts_.on_interval_end(delivered_);
  stats_.record(arrivals_, delivered_);
  if (metrics_ != nullptr) {
    // Per-link series are recorded in chunks: a link's gauge and sketch
    // belong to its cell's chunk alone, and each sketch still gets one
    // update per interval in interval order, so the results do not depend
    // on the worker count.
    in_chunks([this](Cell& cell) {
      for (const LinkId n : cell.links) {
        const double debt = debts_.debt(n);
        debt_gauges_[n]->set(debt);
        debt_sketches_[n]->update(debt);
      }
    });
    const int total_delivered = std::accumulate(
        delivered_.begin(), delivered_.begin() + static_cast<std::ptrdiff_t>(n_links), 0);
    const double linf = debts_.linf();
    debt_linf_gauge_->set(linf);
    debt_linf_sketch_->update(linf);
    deliveries_sketch_->update(static_cast<double>(total_delivered));
    // In-run time-series export: one whole-registry snapshot every
    // cadence intervals, stamped with sim time only (stream_tick is a
    // single branch when no stream sink is attached), formatted on the
    // shard pool.
    metrics_->stream_tick(k, end.ns(), pool_.get());
  }
  for (const auto& obs : observers_) obs(k, arrivals_, delivered_);
}

// ---- accessors and facades --------------------------------------------------

const phy::Medium& Network::medium() const {
  RTMAC_REQUIRE(cell_count() == 1, "medium(): a multi-cell network has per-cell media");
  return *cells_.front()->medium;
}

mac::MacScheme& Network::scheme() {
  RTMAC_REQUIRE(cell_count() == 1, "scheme(): a multi-cell network has per-cell schemes");
  return *cells_.front()->scheme;
}

const mac::MacScheme& Network::scheme() const {
  RTMAC_REQUIRE(cell_count() == 1, "scheme(): a multi-cell network has per-cell schemes");
  return *cells_.front()->scheme;
}

const sim::Simulator& Network::simulator() const {
  RTMAC_REQUIRE(cell_count() == 1, "simulator(): a multi-cell network has per-cell engines");
  return cells_.front()->sim;
}

std::span<const LinkId> Network::cell_links(std::size_t cell) const {
  return cells_[cell]->links;
}

const mac::MacScheme& Network::cell_scheme(std::size_t cell) const {
  return *cells_[cell]->scheme;
}

std::uint64_t Network::coordinator_rounds() const {
  return coordinator_ != nullptr ? coordinator_->rounds() : 0;
}

TimePoint Network::now() const { return cells_.front()->sim.now(); }

std::uint64_t Network::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& cell : cells_) total += cell->sim.events_executed();
  return total;
}

std::uint64_t Network::event_reallocs() const {
  std::uint64_t total = 0;
  for (const auto& cell : cells_) total += cell->sim.event_reallocs();
  return total;
}

phy::MediumCounters Network::medium_counters() const {
  phy::MediumCounters out;
  for (const auto& cell : cells_) {
    const phy::MediumCounters& c = cell->medium->counters();
    out.data_tx += c.data_tx;
    out.empty_tx += c.empty_tx;
    out.delivered += c.delivered;
    out.channel_losses += c.channel_losses;
    out.collisions += c.collisions;
    out.busy_time += c.busy_time;
    out.collided_time += c.collided_time;
  }
  return out;
}

const phy::LinkCounters& Network::link_counters(LinkId link) const {
  return cells_[plan_.cell_of[link]]->medium->link_counters(local_of_[link]);
}

Duration Network::global_sense_busy_time() const {
  Duration total;
  for (const auto& cell : cells_) {
    total += cell->medium->sense_busy_time(phy::Medium::kAllNodes);
  }
  return total;
}

Duration Network::node_sense_busy_time(LinkId node) const {
  return cells_[plan_.cell_of[node]]->medium->sense_busy_time(local_of_[node]);
}

std::uint64_t Network::collision_pair_count(LinkId a, LinkId b) const {
  if (plan_.cell_of[a] == plan_.cell_of[b]) {
    return cells_[plan_.cell_of[a]]->medium->collision_pair_count(local_of_[a], local_of_[b]);
  }
  return cut_ != nullptr ? cut_->pair_count(a, b) : 0;
}

void Network::for_each_collision_pair(const CollisionPairVisitor& fn) const {
  for (const auto& cell : cells_) {
    const std::vector<LinkId>& links = cell->links;
    // Cell links ascend, so local a <= b stays global a <= b.
    cell->medium->for_each_collision_pair(
        [&](LinkId a, LinkId b, std::uint64_t count) { fn(links[a], links[b], count); });
  }
  if (cut_ != nullptr) cut_->for_each_pair(fn);
}

void Network::merge_cell_metrics_into(obs::MetricsRegistry& target) const {
  std::vector<const obs::MetricsRegistry*> sources;
  sources.reserve(cells_.size());
  for (const auto& cell : cells_) {
    if (cell->registry != nullptr) sources.push_back(cell->registry.get());
  }
  target.merge_from(sources);
}

Network::MemoryBreakdown Network::memory_breakdown() const {
  MemoryBreakdown mb;
  mb.arena_reserved = arena_.bytes_reserved();
  mb.arena_used = arena_.bytes_used();
  mb.arrivals = arrival_kernel_.memory_bytes();
  for (const auto& cell : cells_) {
    mb.sim_events += cell->sim.event_memory_bytes();
    mb.phy += cell->medium->memory_bytes();
    mb.mac += cell->scheme->memory_bytes();
  }
  return mb;
}

double Network::total_deficiency() const {
  return stats::total_deficiency(stats_, config_.requirements.q());
}

}  // namespace rtmac::net
