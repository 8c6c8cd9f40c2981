#include "sim/sharded_simulator.hpp"

#include <utility>

#include "util/check.hpp"

namespace rtmac::sim {

ShardCoordinator::ShardCoordinator(std::vector<ShardCell*> cells,
                                   std::vector<std::vector<std::uint32_t>> cut_neighbors,
                                   std::span<const std::size_t> chunk_bounds,
                                   ThreadPool* pool, bool adaptive_lookahead)
    : cells_{std::move(cells)},
      cut_neighbors_{std::move(cut_neighbors)},
      chunk_bounds_{chunk_bounds},
      pool_{pool},
      adaptive_{adaptive_lookahead} {
  RTMAC_REQUIRE(!cells_.empty(), "coordinator needs at least one cell");
  RTMAC_REQUIRE(cut_neighbors_.size() == cells_.size(), "cut_neighbors size mismatch");
  RTMAC_REQUIRE(chunk_bounds_.size() >= 2 && chunk_bounds_.back() == cells_.size(),
                "chunk bounds must cover every cell");
  const util::PhantomLock barrier{shard_barrier};
  clock_snapshot_.resize(cells_.size());
  bound_snapshot_.resize(cells_.size());
}

void ShardCoordinator::advance_to(TimePoint horizon) {
  for (;;) {
    {
      // Serial barrier phase. The PhantomLock grants the shard_barrier
      // capability to this scope (coordinating thread only), which is what
      // entitles it to call the cells' barrier-phase methods and touch the
      // guarded scratch vectors.
      const util::PhantomLock barrier{shard_barrier};

      // Snapshot clocks once per round; R_i below uses the snapshot so the
      // round is independent of execution order inside the parallel phase.
      bool done = true;
      for (std::size_t c = 0; c < cells_.size(); ++c) {
        clock_snapshot_[c] = cells_[c]->clock();
        if (clock_snapshot_[c] < horizon) done = false;
      }
      if (done) break;

      // Drain outboxes in canonical cell order, delivering each fresh
      // record to the cut neighbors of its cell, ascending. Only they can
      // listen to it: a cell hearing a cut speaker shares a cut sense with
      // the speaker's cell, so every other cell would ignore the record.
      // Serial + ordered == deterministic mailbox contents.
      for (std::size_t s = 0; s < cells_.size(); ++s) {
        for (const CutTxRecord& record : cells_[s]->drain_outbox()) {
          for (const std::uint32_t c : cut_neighbors_[s]) cells_[c]->deliver_remote(record);
        }
      }
      // Activity bounds are probed AFTER the deliveries above: injections
      // schedule events, and a bound that ignored them could overshoot a
      // neighbor's reaction to fresh remote activity. With adaptive
      // lookahead off this degrades to the classic clock-based window.
      for (std::size_t c = 0; c < cells_.size(); ++c) {
        bound_snapshot_[c] =
            adaptive_ ? cells_[c]->next_activity_bound() : clock_snapshot_[c];
        RTMAC_ASSERT(bound_snapshot_[c] >= clock_snapshot_[c],
                     "activity bound trails the cell clock");
      }
      for (std::size_t c = 0; c < cells_.size(); ++c) {
        TimePoint bound = horizon;
        for (std::uint32_t nb : cut_neighbors_[c]) {
          if (bound_snapshot_[nb] < bound) bound = bound_snapshot_[nb];
        }
        cells_[c]->begin_window(bound);
      }
    }

    // Parallel phase: each chunk advances its cells toward the horizon.
    for_each_chunked(pool_, chunk_bounds_, [this, horizon](std::size_t c) {
      if (cells_[c]->clock() < horizon) cells_[c]->run_window(horizon);
    });
    ++rounds_;

    // Safety net: the conservative bound guarantees the minimum clock
    // strictly advances each round; a stall means a lookahead bug, and
    // looping forever would be far harder to debug than this abort. The
    // parallel phase is over, so re-entering the barrier phase to read the
    // snapshot is legitimate.
    const util::PhantomLock barrier{shard_barrier};
    bool advanced = false;
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      if (cells_[c]->clock() > clock_snapshot_[c]) advanced = true;
    }
    RTMAC_ASSERT(advanced, "shard coordinator made no progress in a round");
  }
}

}  // namespace rtmac::sim
