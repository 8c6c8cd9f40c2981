// Conservative parallel coordination of per-shard event engines.
//
// Each shard cell owns a full engine stack (Simulator + Medium + MACs) over
// an induced subgraph of the topology; the only couplings left are the
// explicit cut edges from the ShardPlan. The coordinator advances all cells
// to a common horizon (the interval end) in rounds, Chandy–Misra style:
//
//   1. Barrier (serial, deterministic cell order): every cell drains its
//      outbox of finished/started cut-link transmissions into the shared
//      mailbox; fresh records are handed to the cut-neighbor cells
//      (remote-sense injection) and to the cross-shard collision ledger.
//   2. Each cell i gets a resolution bound R_i = min(horizon, min activity
//      bound of its cut-neighbor cells). A cut-link completion at time t
//      can be resolved exactly once no conflicting neighbor can still start
//      a transmission at a time < t — all overlapping remote transmissions
//      are then in the mailbox.
//   3. Parallel phase: chunks of cells run concurrently, each cell's
//      Simulator bounded by a run limit = the earliest unresolvable
//      cut completion (end > R_i); the clock stops there.
//
// A neighbor's activity bound is at least its clock; with adaptive
// lookahead (the default) it is the neighbor's next pending event time.
// That is exact, not heuristic: transmissions start only inside event
// callbacks at the engine's current clock, so a neighbor whose next event
// is at time b cannot start a transmission before b, and every start
// before its clock was already exported (exports happen at start) and
// delivered at this barrier. A completion at t <= R_i therefore has every
// overlapping remote transmission in the mailbox — same invariant as the
// clock-based bound, reached in fewer rounds. An idle neighbor (empty
// queue) yields bound = +inf: it provably cannot interact this interval,
// so it stops throttling everyone else entirely.
//
// Progress: activity bounds never trail the clocks, so each round makes at
// least the progress of the clock-based scheme — the cell with the minimum
// clock c_min has R_i >= c_min, its earliest blocking completion lies
// strictly beyond c_min, and its clock strictly advances. No deadlock, and
// the adaptive round count is bounded above by the fixed-window round
// count (each barrier reaches at least as far).
//
// Determinism: per-cell execution is single-threaded and schedule-free; the
// barrier runs serially in canonical cell order; remote records are
// injected in drain order. The result is byte-identical for any worker
// count and any chunking of cells.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "sim/shard_barrier.hpp"
#include "util/thread_pool.hpp"
#include "util/time.hpp"

namespace rtmac::sim {

/// A shard cell as the coordinator sees it. Implemented by net::Network's
/// per-cell glue; the coordinator never touches a Medium or EventQueue
/// directly.
///
/// Phase discipline is compile-time checked via the `shard_barrier` phantom
/// capability: barrier-phase methods REQUIRE it (only the coordinator's
/// serial section holds it), the parallel-phase method EXCLUDES it.
/// Overrides must repeat the annotations — the analysis does not inherit
/// attributes through virtual dispatch declarations in derived classes.
class ShardCell {
 public:
  virtual ~ShardCell() = default;
  /// The cell's engine clock. Safe in either phase (each cell is advanced by
  /// exactly one thread, and the coordinator reads it only at barriers).
  [[nodiscard]] virtual TimePoint clock() const = 0;
  /// Barrier phase: the cut-link transmissions started since the last
  /// window (in start-time order). They stay readable until begin_window(),
  /// which forgets them.
  [[nodiscard]] virtual std::span<const CutTxRecord> drain_outbox()
      RTMAC_REQUIRES(shard_barrier) = 0;
  /// Barrier phase: offers a fresh remote record from a cut-neighbor cell;
  /// the cell injects it into its sense views if any of its links listens
  /// to `record.link`.
  virtual void deliver_remote(const CutTxRecord& record)
      RTMAC_REQUIRES(shard_barrier) = 0;
  /// Barrier phase: earliest instant at which this cell could still start
  /// a new transmission. Must never trail clock(); the conservative default
  /// is the clock itself (the fixed-window scheme). Engine-backed cells
  /// return their next pending event time — transmissions start only inside
  /// event callbacks, so neighbors may extend their resolution windows up
  /// to this bound (adaptive lookahead). Called after remote deliveries so
  /// freshly injected events are visible.
  [[nodiscard]] virtual TimePoint next_activity_bound() RTMAC_REQUIRES(shard_barrier) {
    return clock();
  }
  /// Barrier phase: forgets the drained outbox and arms the next window
  /// with resolution bound `bound`.
  virtual void begin_window(TimePoint bound) RTMAC_REQUIRES(shard_barrier) = 0;
  /// Parallel phase: runs the engine toward `horizon` (stopping early at
  /// the armed run limit).
  virtual void run_window(TimePoint horizon) RTMAC_EXCLUDES(shard_barrier) = 0;
};

/// Calls `step(c)` for every cell c of the chunks [bounds[w], bounds[w + 1]),
/// one ThreadPool::parallel_for index per chunk, or serially without a pool.
/// The network's cell steps and the coordinator's windows both run here.
template <typename Step>
void for_each_chunked(ThreadPool* pool, std::span<const std::size_t> bounds, const Step& step) {
  const auto run_chunk = [&](std::size_t w) {
    for (std::size_t c = bounds[w]; c < bounds[w + 1]; ++c) step(c);
  };
  if (pool != nullptr) return pool->parallel_for(bounds.size() - 1, run_chunk);
  for (std::size_t w = 0; w + 1 < bounds.size(); ++w) run_chunk(w);
}

/// Advances a set of shard cells to successive horizons.
class ShardCoordinator {
 public:
  /// `cut_neighbors[i]` = cells sharing at least one cut edge (conflict or
  /// sense) with cell i, ascending: they bound cell i's resolution window,
  /// and only they receive cell i's cut records. The parallel phase runs
  /// for_each_chunked(pool, chunk_bounds, ...); both are borrowed, and a
  /// null pool runs serially. `adaptive_lookahead` selects
  /// next_activity_bound() (default) over bare clocks when computing the
  /// per-round resolution bounds.
  ShardCoordinator(std::vector<ShardCell*> cells,
                   std::vector<std::vector<std::uint32_t>> cut_neighbors,
                   std::span<const std::size_t> chunk_bounds, ThreadPool* pool,
                   bool adaptive_lookahead = true);

  /// Runs rounds until every cell's clock reaches `horizon`.
  void advance_to(TimePoint horizon);

  /// Barrier rounds executed so far (an observability counter; one round
  /// per interval on cut-free plans).
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }

 private:
  std::vector<ShardCell*> cells_;
  std::vector<std::vector<std::uint32_t>> cut_neighbors_;
  std::span<const std::size_t> chunk_bounds_;
  ThreadPool* pool_;
  bool adaptive_;
  std::uint64_t rounds_ = 0;
  // Barrier scratch: touched only inside the coordinator's PhantomLock'd
  // serial sections, never by parallel-phase tasks.
  std::vector<TimePoint> clock_snapshot_ RTMAC_GUARDED_BY(shard_barrier);
  std::vector<TimePoint> bound_snapshot_ RTMAC_GUARDED_BY(shard_barrier);
};

}  // namespace rtmac::sim
