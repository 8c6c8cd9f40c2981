// Pluggable interference topology: which links collide and who hears whom.
//
// The paper's channel (Section II-A) is one fully-interfering collision
// domain: every overlap collides and every device senses every busy/idle
// transition. That is only one point in the space these types span. A
// topology separates the two relations that a single-cell model conflates:
//
//   * conflict(a, b)  — overlapping transmissions on links a and b destroy
//     each other (interference at the receivers). Symmetric by model
//     definition: a collision fails every participant.
//   * senses(n, l)    — the transmitter of link n can carrier-sense
//     activity on link l. Not necessarily symmetric (asymmetric transmit
//     powers), and crucially NOT implied by conflict: a pair that
//     conflicts without sensing is a classic hidden terminal, where
//     listen-before-talk silently fails.
//
// SparseTopology (adjacency lists) is the one topology a network config
// carries; no topology means the paper's complete domain. InterferenceGraph
// is the per-Medium view of it: compressed rows built in O(N + E) for the
// whole topology, for the complete graph, or, in O(k + E_k), for one
// partition cell's induced subgraph. No n x n matrix exists anywhere, so the
// same types serve a ten-link paper figure and a 10^6-link city.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "core/types.hpp"

namespace rtmac::phy {

/// Adjacency-list interference topology. Self-relations are implicit (never
/// listed). The builders emit normalized lists (symmetric conflict, every
/// list ascending and duplicate-free); InterferenceGraph and the shard
/// partitioner also accept unnormalized lists and normalize them.
struct SparseTopology {
  std::size_t num_links = 0;
  /// conflict[a] = links whose overlapping transmissions destroy a's
  /// (symmetric: b appears under a iff a appears under b; ascending).
  std::vector<std::vector<LinkId>> conflict;
  /// sense[n] = links whose activity link n's transmitter hears (directed;
  /// ascending).
  std::vector<std::vector<LinkId>> sense;
};

/// Compressed sparse rows: row r is columns[offsets[r] .. offsets[r + 1]),
/// ascending.
struct CsrRows {
  std::vector<std::uint32_t> offsets;  ///< size rows + 1
  std::vector<LinkId> columns;

  [[nodiscard]] std::span<const LinkId> row(std::size_t r) const {
    return {columns.data() + offsets[r], offsets[r + 1] - offsets[r]};
  }
  [[nodiscard]] std::size_t memory_bytes() const {
    return offsets.capacity() * sizeof(std::uint32_t) + columns.capacity() * sizeof(LinkId);
  }
};

/// Immutable, copyable view of a topology over links 0..n-1: the conflict
/// rows and the inverted sense rows (`sensed_by`), each with its self entry.
/// Self-relations are forced: a link always conflicts with itself (two
/// overlapping transmissions on one link fail) and always senses its own
/// transmissions.
class InterferenceGraph {
 public:
  /// 2D placement of one link's endpoints for the unit-disk builder.
  struct Point {
    double x = 0.0;
    double y = 0.0;
  };
  struct LinkPlacement {
    Point tx;  ///< transmitter position
    Point rx;  ///< receiver position
  };

  /// Completeness-flag policy for induced subgraphs. A shard cell with ANY
  /// cut relation has external interference, so the complete-graph fast
  /// paths (shared loss stream, batch DP, burst mode, single-view sensing)
  /// must stay off for behavior to match the unsharded run — that is
  /// kClearCompleteness, the safe default. A CUT-FREE cell whose subgraph
  /// is a clique genuinely satisfies the complete-graph contract (its links
  /// interact with nothing outside, and the shard machinery re-keys the
  /// loss streams by global id either way), so kKeepCompleteness lets the
  /// honestly-computed flags stand and unlocks the O(1) single-view fast
  /// paths for dense-cell city topologies.
  enum class SubgraphFlags : std::uint8_t { kClearCompleteness, kKeepCompleteness };

  /// conflict_slot() of a pair that does not conflict.
  static constexpr std::size_t kNoSlot = std::numeric_limits<std::size_t>::max();

  /// The paper's Section II-A channel: everyone conflicts with and senses
  /// everyone. Precondition: num_links >= 1.
  [[nodiscard]] static InterferenceGraph complete(std::size_t num_links);

  /// The whole topology, with honestly computed completeness flags. Lists
  /// are normalized here: conflict is symmetrized (listing b under a
  /// conflicts both directions), sense is taken as given (asymmetric sensing
  /// is expressible), and rows are sorted, deduplicated and given their
  /// self entry. Out-of-range ids abort in debug builds.
  explicit InterferenceGraph(const SparseTopology& topology);

  /// Subgraph of `topology` induced by `links` (ascending global ids; local
  /// id i is links[i]), normalized like the constructor; relations leaving
  /// the set are dropped. Completeness flags per `flags` (see
  /// SubgraphFlags). Builds the two-cell maps of the overload below
  /// (`links` and the rest): O(N + E_links), for standalone callers.
  [[nodiscard]] static InterferenceGraph induced(
      const SparseTopology& topology, std::span<const LinkId> links,
      SubgraphFlags flags = SubgraphFlags::kClearCompleteness);

  /// The same subgraph for one cell of a partition that already indexes
  /// every link: `cell_of[g]` is g's cell and `local_of[g]` its position in
  /// that cell, and `links` is the whole cell cell_of[links[0]], ascending.
  /// Partners resolve through the two maps in O(1), with no scratch of the
  /// topology's size: O(k + E_links) per cell, so building every cell of a
  /// partition costs O(N + E) in all.
  [[nodiscard]] static InterferenceGraph induced(const SparseTopology& topology,
                                                 std::span<const LinkId> links,
                                                 std::span<const std::uint32_t> cell_of,
                                                 std::span<const LinkId> local_of,
                                                 SubgraphFlags flags);

  [[nodiscard]] std::size_t num_links() const { return n_; }

  /// Position of the (a, b) entry in the conflict rows' column array, or
  /// kNoSlot when a and b do not conflict. Per-pair state (the Medium's
  /// collision ledger) is stored parallel to that array.
  [[nodiscard]] std::size_t conflict_slot(LinkId a, LinkId b) const {
    // Full rows: column b of row a sits at a * n + b.
    if (complete_conflicts_) return static_cast<std::size_t>(a) * n_ + b;
    const std::span<const LinkId> row = conflict_.row(a);
    const auto it = std::lower_bound(row.begin(), row.end(), b);
    if (it == row.end() || *it != b) return kNoSlot;
    return conflict_.offsets[a] + static_cast<std::size_t>(it - row.begin());
  }

  /// Do overlapping transmissions on a and b collide? Symmetric.
  [[nodiscard]] bool conflicts(LinkId a, LinkId b) const {
    return complete_conflicts_ || conflict_slot(a, b) != kNoSlot;
  }

  /// Can link `node`'s transmitter hear activity on link `link`?
  [[nodiscard]] bool senses(LinkId node, LinkId link) const {
    if (complete_sensing_) return true;
    const std::span<const LinkId> row = sensed_by(link);
    return std::binary_search(row.begin(), row.end(), node);
  }

  /// All nodes whose sense view includes `link` (always contains `link`
  /// itself), ascending. The Medium iterates this on every transmission
  /// start/end.
  [[nodiscard]] std::span<const LinkId> sensed_by(LinkId link) const {
    return sensed_by_.row(link);
  }

  /// The conflict relation as rows (self included, ascending).
  [[nodiscard]] const CsrRows& conflict_rows() const { return conflict_; }

  /// Every pair of links conflicts (the paper's collision rule).
  [[nodiscard]] bool complete_conflicts() const { return complete_conflicts_; }
  /// Every node senses every link (the paper's carrier-sense rule). The DP
  /// protocol's collision-freedom guarantee holds exactly under this flag.
  [[nodiscard]] bool complete_sensing() const { return complete_sensing_; }
  /// Both relations complete: byte-identical to the pre-topology Medium.
  [[nodiscard]] bool is_complete() const { return complete_conflicts_ && complete_sensing_; }

  /// Heap bytes of the rows.
  [[nodiscard]] std::size_t memory_bytes() const {
    return conflict_.memory_bytes() + sensed_by_.memory_bytes();
  }

 private:
  /// Takes the (conflict, sensed_by) rows and sets the completeness flags
  /// from their sizes.
  InterferenceGraph(std::size_t n, std::pair<CsrRows, CsrRows> rows);
  /// The same, then clears the flags when `flags` asks for it.
  InterferenceGraph(std::size_t n, std::pair<CsrRows, CsrRows> rows, SubgraphFlags flags);

  std::size_t n_ = 0;
  CsrRows conflict_;   ///< symmetric, self included
  CsrRows sensed_by_;  ///< row l = nodes that sense l, self included
  bool complete_conflicts_ = false;
  bool complete_sensing_ = false;
};

/// Geometric builder: links conflict when either transmitter lies within
/// `interference_range` of the other link's receiver; link n senses link l
/// when their transmitters are within `sense_range` of each other.
/// Distances compare inclusively (<= range). Grid-bucketed, so construction
/// is expected O(n) for bounded-density placements.
[[nodiscard]] SparseTopology sparse_unit_disk(
    const std::vector<InterferenceGraph::LinkPlacement>& links, double interference_range,
    double sense_range);

}  // namespace rtmac::phy
