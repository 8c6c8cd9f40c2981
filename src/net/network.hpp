// The experiment orchestrator: wires traffic, cells (each a Simulator +
// Medium + MacScheme) and debt/statistics, and drives the interval
// structure.
//
// Per interval k (paper Section II-B): at t = kT arrivals are sampled and
// handed to the scheme; the scheme contends on the medium until (k+1)T;
// at the boundary the network collects on-time deliveries S(k), advances
// the debt ledger (eq. 1), and records statistics. Undelivered packets are
// dropped by the scheme (hard per-packet deadline = interval end).
//
// Execution (DESIGN §4i): every network runs as cells. A cell owns a full
// engine stack (Simulator + Medium + scheme) over a set of links. Without
// sharding (shards == 0, no topology, or a partition that yields one cell)
// there is exactly one cell over every link — the paper's single collision
// domain. With shards >= 1 on a partitionable topology the conflict graph
// is cut into cells (sim/shard_partitioner) that advance under the
// conservative window protocol of sim/sharded_simulator. Arrivals are
// sampled centrally in global link order and all RNG streams are keyed by
// global link ids, so results do not depend on the partition or on the
// worker count.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/debt.hpp"
#include "mac/link_mac.hpp"
#include "net/arrival_kernel.hpp"
#include "net/network_config.hpp"
#include "phy/medium.hpp"
#include "sim/shard_partitioner.hpp"
#include "sim/simulator.hpp"
#include "stats/link_stats.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace rtmac {
class ThreadPool;
namespace sim {
class ShardCoordinator;
}  // namespace sim
}  // namespace rtmac

namespace rtmac::net {

/// Observer invoked after every interval with (k, arrivals, deliveries);
/// used by convergence/starvation experiments to record time series. The
/// spans view the Network's interval buffers — valid only during the call.
using IntervalObserver =
    std::function<void(IntervalIndex, std::span<const int>, std::span<const int>)>;

/// Owns the full simulation stack for one run of one scheme.
class Network {
 public:
  /// Takes ownership of `config`. Throws std::invalid_argument carrying the
  /// NetworkConfig::validate() message when the config is inconsistent.
  Network(NetworkConfig config, const mac::SchemeFactory& scheme_factory);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Simulates `intervals` further deadline intervals (resumable).
  void run(IntervalIndex intervals);

  /// Registers an end-of-interval observer (may be called multiple times).
  void add_observer(IntervalObserver observer);

  /// Attaches a protocol tracer to the whole stack (medium + MAC layers).
  /// Not owned; pass nullptr to detach. Interval boundaries are recorded by
  /// the network itself. Tracing needs a single cell: attaching a non-null
  /// tracer to a multi-cell network aborts.
  void attach_tracer(sim::Tracer* tracer);

  /// Attaches a metrics registry to the whole stack (medium + MAC layers;
  /// not owned; pass nullptr to detach). While attached, the network
  /// snapshots the debt vector and delivery counts into the registry at
  /// every interval boundary; derived end-of-run rates come from
  /// obs::collect_network_metrics. Zero overhead when detached (one null
  /// check per interval). A single cell writes its medium/MAC instruments
  /// straight into `registry`; with several cells each writes a private
  /// registry (no cross-thread sharing) and merge_cell_metrics_into() folds
  /// them into an export target. Detaching keeps those per-cell registries
  /// (so a collect after the detach still folds them); attaching again
  /// starts fresh ones.
  void attach_metrics(obs::MetricsRegistry* registry);

  [[nodiscard]] const stats::LinkStatsCollector& stats() const { return stats_; }
  /// Network-wide debt ledger. It mirrors the per-cell trackers — per-link
  /// debt arithmetic is local, so the mirror is exact.
  [[nodiscard]] const core::DebtTracker& debts() const { return debts_; }
  [[nodiscard]] const NetworkConfig& config() const { return config_; }

  // ---- single-cell accessors (cell 0; abort unless cell_count() == 1) ------
  [[nodiscard]] const phy::Medium& medium() const;
  [[nodiscard]] mac::MacScheme& scheme();
  [[nodiscard]] const mac::MacScheme& scheme() const;
  [[nodiscard]] const sim::Simulator& simulator() const;

  // ---- cell topology -------------------------------------------------------
  /// True when the network runs on more than one cell.
  [[nodiscard]] bool sharded() const { return cell_count() > 1; }
  [[nodiscard]] std::size_t cell_count() const { return cells_.size(); }
  /// Parallel width: min(max(shards, 1), cells); the pool caps at one less.
  [[nodiscard]] std::size_t group_count() const {
    return std::min(std::max<std::size_t>(config_.shards, 1), cell_count());
  }
  /// Global link ids of one cell, ascending.
  [[nodiscard]] std::span<const LinkId> cell_links(std::size_t cell) const;
  /// The MacScheme instance serving one cell.
  [[nodiscard]] const mac::MacScheme& cell_scheme(std::size_t cell) const;
  /// Coordinator barrier rounds so far (0 on cut-free plans, which skip the
  /// coordinator entirely).
  [[nodiscard]] std::uint64_t coordinator_rounds() const;

  // ---- engine/medium facades (summed or routed over cells) -----------------
  [[nodiscard]] TimePoint now() const;
  [[nodiscard]] std::uint64_t events_executed() const;  ///< summed over cells
  [[nodiscard]] std::uint64_t event_reallocs() const;   ///< summed over cells
  /// Channel accounting summed over cells.
  [[nodiscard]] phy::MediumCounters medium_counters() const;
  /// Per-link accounting, addressed by GLOBAL link id.
  [[nodiscard]] const phy::LinkCounters& link_counters(LinkId link) const;
  /// Busy time summed over sensing domains: each cell's global view (the
  /// union of its busy periods), added up over cells. One cell gives the
  /// network-wide union; concurrent activity in different cells counts once
  /// per cell (DESIGN §4i).
  [[nodiscard]] Duration global_sense_busy_time() const;
  /// One node's carrier-sense busy time (GLOBAL id). Exact for any partition:
  /// remote cut-edge activity is injected into the listening views.
  [[nodiscard]] Duration node_sense_busy_time(LinkId node) const;
  /// Pairwise collision ledger (GLOBAL ids). Cross-cell pairs come from the
  /// cut resolver's ledger, intra-cell pairs from the owning Medium.
  [[nodiscard]] std::uint64_t collision_pair_count(LinkId a, LinkId b) const;
  /// Called once per unordered pair with a nonzero collision count, as
  /// (a, b, count) with GLOBAL ids a <= b (a == b: same-link overlap).
  using CollisionPairVisitor = std::function<void(LinkId, LinkId, std::uint64_t)>;
  /// Walks the stored collision ledgers: every cell's Medium ledger (mapped
  /// to global ids), then the cut resolver's cross-cell edges. Cost is
  /// O(ledger cells + cut edges), never O(links^2) on a sparse topology; the
  /// visited counts equal collision_pair_count() for every nonzero pair.
  void for_each_collision_pair(const CollisionPairVisitor& fn) const;

  /// Folds every cell's private metrics registry into `target` (counters
  /// add, gauges last-write-win, histograms/sketches merge) in one pass:
  /// each merged sketch reserves its union once, so the cost is O(total
  /// retained samples). No-op for a single cell, which writes the attached
  /// registry directly. Call exactly once per run, at collect time.
  void merge_cell_metrics_into(obs::MetricsRegistry& target) const;

  /// Per-subsystem byte accounting of the network's long-lived state
  /// (DESIGN §4j). `arena_*` cover the shared arena backing the SoA blocks;
  /// the per-subsystem figures attribute who asked for the bytes (arena
  /// spans count under their subsystem, not double-counted as arena).
  struct MemoryBreakdown {
    std::size_t arena_reserved = 0;  ///< bytes the arena holds from malloc
    std::size_t arena_used = 0;      ///< bytes handed out to subsystems
    std::size_t arrivals = 0;        ///< arrival kernel tables
    std::size_t sim_events = 0;      ///< event-queue slot pools + heaps
    std::size_t phy = 0;             ///< per-link medium state, all cells
    std::size_t mac = 0;             ///< per-link scheme state, all cells
  };
  [[nodiscard]] MemoryBreakdown memory_breakdown() const;

  /// Total timely-throughput deficiency so far (Definition 1).
  [[nodiscard]] double total_deficiency() const;

 private:
  struct Cell;
  class CutState;

  void build_cells(const mac::SchemeFactory& scheme_factory);
  /// Runs `step(cell)` for every cell through sim::for_each_chunked over
  /// chunks_ (serial without a pool). A step may touch only its own cell's
  /// state and the per-link slots of the cell's links.
  template <typename Step>
  void in_chunks(const Step& step);
  void run_cells(IntervalIndex k, TimePoint start, TimePoint end);
  void finish_interval(IntervalIndex k, TimePoint end);

  NetworkConfig config_;
  /// Backs every cell's cold per-link SoA blocks and the arrival kernel
  /// tables; declared before the consumers so it outlives them (members
  /// destroy in reverse order).
  util::Arena arena_;
  core::DebtTracker debts_;
  stats::LinkStatsCollector stats_;
  Rng arrival_rng_;
  ArrivalKernel arrival_kernel_;  ///< central arrival sampling (non-joint runs)
  sim::ShardPlan plan_;
  std::vector<LinkId> local_of_;  ///< global id -> index within its cell
  std::unique_ptr<CutState> cut_;  ///< cross-cell resolver; outlives the cells
  std::vector<std::unique_ptr<Cell>> cells_;
  std::unique_ptr<ThreadPool> pool_;  ///< null = one chunk, run serially
  /// sim::chunk_bounds offsets for pool size + 1 chunks (DESIGN §4i); the
  /// coordinator borrows them.
  std::vector<std::size_t> chunks_;
  std::unique_ptr<sim::ShardCoordinator> coordinator_;  ///< null = cut-free plan
  std::vector<IntervalObserver> observers_;
  sim::Tracer* tracer_ = nullptr;
  IntervalIndex next_interval_ = 0;

  // Caller-owned interval buffers (buffer-ownership convention, DESIGN §4g):
  // pre-sized from NetworkConfig at construction so the per-interval loop
  // never allocates; schemes and observers see spans over them.
  std::vector<int> arrivals_;
  std::vector<int> delivered_;

  // Metric handles cached at attach time; all null when detached. The
  // per-interval series (debt L-inf, total deliveries, per-link debt) are
  // quantile sketches rather than fixed-bucket histograms: no hand-picked
  // bounds, bounded memory on arbitrary horizons, and mergeable across
  // replications (DESIGN §4h).
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Gauge* debt_linf_gauge_ = nullptr;
  obs::QuantileSketch* debt_linf_sketch_ = nullptr;
  obs::QuantileSketch* deliveries_sketch_ = nullptr;
  std::vector<obs::Gauge*> debt_gauges_;             ///< one per link
  std::vector<obs::QuantileSketch*> debt_sketches_;  ///< one per link
};

}  // namespace rtmac::net
