// Conflict-graph sharding: cut the interference topology into cells that
// can be simulated on independent engines.
//
// The partitioner works on plain adjacency lists (the union of the conflict
// and carrier-sense relations), so it has no dependency on phy/ and is
// trivially property-testable. Cells are the connected components of the
// union graph; a connected graph can additionally be bisected along a
// balanced edge cut when more parallelism is requested. Every cross-cell
// relation is reported explicitly in the cut set — the coordinator in
// sharded_simulator.{hpp,cpp} resolves exactly those edges at window
// barriers, everything else stays cell-local.
//
// Determinism is load-bearing: the whole algorithm is integer arithmetic
// over sorted adjacency lists (BFS visits neighbors in ascending id order,
// ties between equal cells break toward lower indices), so the same
// topology yields the same plan on every platform, run, and thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.hpp"

namespace rtmac::sim {

/// Symmetric/directed adjacency lists over links 0..n-1. Neighbor lists
/// need not be sorted or deduplicated on input; the partitioner normalizes.
using AdjacencyLists = std::vector<std::vector<LinkId>>;

/// An undirected cross-cell edge with a < b (global link ids).
struct CutEdge {
  LinkId a = 0;
  LinkId b = 0;
  friend bool operator==(const CutEdge&, const CutEdge&) = default;
};

/// A directed cross-cell sense relation: `listener` hears `speaker`'s
/// transmissions but lives in a different cell.
struct CutSense {
  LinkId listener = 0;
  LinkId speaker = 0;
  friend bool operator==(const CutSense&, const CutSense&) = default;
};

/// The sharding plan: a partition of the link set into cells and the
/// explicit cut sets.
struct ShardPlan {
  /// cell_of[link] = index into `cells`.
  std::vector<std::uint32_t> cell_of;
  /// Cells in ascending order of their smallest link id; each cell's link
  /// list is ascending. Cells partition {0..n-1}.
  std::vector<std::vector<LinkId>> cells;
  /// Cross-cell conflict edges (a < b), lexicographically sorted. Each
  /// one needs completion-time resolution by the coordinator.
  std::vector<CutEdge> cut_conflicts;
  /// Cross-cell sense relations, sorted by (listener, speaker). Each one
  /// needs remote-activity injection at window barriers.
  std::vector<CutSense> cut_senses;

  [[nodiscard]] std::size_t num_links() const { return cell_of.size(); }
};

/// Partitions a topology given its conflict relation (symmetric: listing
/// either direction conflicts both; self loops ignored) and sense relation
/// (directed: sense[n] lists the links n hears).
/// `target_shards` >= 1 is the requested number of cells (see below).
///
/// Guarantees (property-tested):
///  - cells are exactly the connected components of the conflict∪sense
///    union graph, except that a component may be BFS-bisected while there
///    are fewer cells than `target_shards`;
///  - complete components (every pair conflict-adjacent) are never split, so
///    a complete() graph always yields exactly one cell;
///  - every conflict edge is intra-cell or in `cut_conflicts`, every sense
///    relation intra-cell or in `cut_senses`;
///  - output is deterministic: pure integer arithmetic, no RNG, no
///    platform-dependent ordering.
[[nodiscard]] ShardPlan partition_topology(const AdjacencyLists& conflict,
                                           const AdjacencyLists& sense,
                                           std::size_t target_shards);

/// The plan of an unpartitioned network: one cell over links 0..n-1,
/// nothing cut.
[[nodiscard]] ShardPlan single_cell_plan(std::size_t num_links);

/// The one packing of cells onto parallel workers: min(count >= 1, cells)
/// contiguous, non-empty chunks of about equal link count, as offsets (chunk
/// w is cells [bounds[w], bounds[w + 1])). O(cells).
[[nodiscard]] std::vector<std::size_t> chunk_bounds(const ShardPlan& plan, std::size_t count);

}  // namespace rtmac::sim
