#include "phy/interference.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "util/check.hpp"

namespace rtmac::phy {

namespace {

/// Rows over `k` nodes from the off-diagonal entries `emit(add)` reports as
/// add(row, column); `emit` runs twice (count, then fill). Every row also
/// gets its diagonal entry, then is sorted and deduplicated — the one place
/// list input is normalized.
template <typename Emit>
CsrRows build_rows(std::size_t k, const Emit& emit) {
  std::vector<std::uint32_t> fill(k, 1);  // the diagonal entry
  emit([&fill](std::size_t r, LinkId) { ++fill[r]; });
  CsrRows rows;
  rows.offsets.assign(k + 1, 0);
  for (std::size_t r = 0; r < k; ++r) rows.offsets[r + 1] = rows.offsets[r] + fill[r];
  rows.columns.resize(rows.offsets[k]);
  for (std::size_t r = 0; r < k; ++r) {
    rows.columns[rows.offsets[r]] = static_cast<LinkId>(r);
    fill[r] = rows.offsets[r] + 1;
  }
  emit([&](std::size_t r, LinkId c) { rows.columns[fill[r]++] = c; });
  // Sort and deduplicate each row, compacting in place.
  std::uint32_t out = 0;
  for (std::size_t r = 0; r < k; ++r) {
    const auto first = rows.columns.begin() + rows.offsets[r];
    const auto last = rows.columns.begin() + rows.offsets[r + 1];
    std::sort(first, last);
    const auto end = std::unique(first, last);
    rows.offsets[r] = out;
    for (auto it = first; it != end; ++it) rows.columns[out++] = *it;
  }
  rows.offsets[k] = out;
  rows.columns.resize(out);
  return rows;
}

/// The view of `topology` over `k` local links: local link a is global link
/// global_of(a); local_of(g) maps back, returning k for links outside the
/// set.
template <typename GlobalOf, typename LocalOf>
std::pair<CsrRows, CsrRows> topology_rows(const SparseTopology& topology, std::size_t k,
                                          const GlobalOf& global_of, const LocalOf& local_of) {
  CsrRows conflict = build_rows(k, [&](const auto& add) {
    for (std::size_t a = 0; a < k; ++a) {
      for (LinkId partner : topology.conflict[global_of(a)]) {
        const std::size_t b = local_of(partner);
        if (b >= k || b == a) continue;
        // Either direction listed conflicts both.
        add(a, static_cast<LinkId>(b));
        add(b, static_cast<LinkId>(a));
      }
    }
  });
  CsrRows sensed_by = build_rows(k, [&](const auto& add) {
    for (std::size_t node = 0; node < k; ++node) {
      for (LinkId heard : topology.sense[global_of(node)]) {
        const std::size_t l = local_of(heard);
        if (l < k && l != node) add(l, static_cast<LinkId>(node));
      }
    }
  });
  return {std::move(conflict), std::move(sensed_by)};
}

/// The whole topology's rows, after checking its shape.
std::pair<CsrRows, CsrRows> whole_rows(const SparseTopology& topology) {
  const std::size_t n = topology.num_links;
  RTMAC_REQUIRE(n >= 1);
  RTMAC_REQUIRE(topology.conflict.size() == n && topology.sense.size() == n,
                "topology needs one conflict and one sense list per link");
  const auto identity = [n](LinkId g) -> std::size_t {
    RTMAC_REQUIRE(g < n, "topology names an unknown link");
    return g;
  };
  return topology_rows(topology, n, [](std::size_t a) { return a; }, identity);
}

}  // namespace

InterferenceGraph::InterferenceGraph(std::size_t n, std::pair<CsrRows, CsrRows> rows)
    : n_{n}, conflict_{std::move(rows.first)}, sensed_by_{std::move(rows.second)} {
  RTMAC_ASSERT(n_ >= 1);
  // Rows are deduplicated and bounded by n, so n * n entries means every
  // row is full.
  complete_conflicts_ = conflict_.columns.size() == n_ * n_;
  complete_sensing_ = sensed_by_.columns.size() == n_ * n_;
}

InterferenceGraph::InterferenceGraph(const SparseTopology& topology)
    : InterferenceGraph{topology.num_links, whole_rows(topology)} {}

InterferenceGraph InterferenceGraph::complete(std::size_t num_links) {
  RTMAC_REQUIRE(num_links >= 1);
  const auto all_pairs = [num_links](const auto& add) {
    for (std::size_t a = 0; a < num_links; ++a) {
      for (std::size_t b = 0; b < num_links; ++b) {
        if (a != b) add(a, static_cast<LinkId>(b));
      }
    }
  };
  return InterferenceGraph{num_links,
                           {build_rows(num_links, all_pairs), build_rows(num_links, all_pairs)}};
}

InterferenceGraph::InterferenceGraph(std::size_t n, std::pair<CsrRows, CsrRows> rows,
                                     SubgraphFlags flags)
    : InterferenceGraph{n, std::move(rows)} {
  if (flags == SubgraphFlags::kClearCompleteness) {
    complete_conflicts_ = false;
    complete_sensing_ = false;
  }
}

InterferenceGraph InterferenceGraph::induced(const SparseTopology& topology,
                                             std::span<const LinkId> links,
                                             SubgraphFlags flags) {
  // A two-cell partition: `links` is cell 0, every other link cell 1.
  std::vector<std::uint32_t> cell_of(topology.num_links, 1);
  std::vector<LinkId> local_of(topology.num_links, 0);
  for (std::size_t i = 0; i < links.size(); ++i) {
    RTMAC_REQUIRE(links[i] < topology.num_links, "induced subgraph names an unknown link");
    cell_of[links[i]] = 0;
    local_of[links[i]] = static_cast<LinkId>(i);
  }
  return induced(topology, links, cell_of, local_of, flags);
}

InterferenceGraph InterferenceGraph::induced(const SparseTopology& topology,
                                             std::span<const LinkId> links,
                                             std::span<const std::uint32_t> cell_of,
                                             std::span<const LinkId> local_of,
                                             SubgraphFlags flags) {
  const std::size_t k = links.size();
  RTMAC_REQUIRE(k >= 1, "induced subgraph needs at least one link");
  RTMAC_REQUIRE(cell_of.size() == topology.num_links && local_of.size() == topology.num_links,
                "cell maps must index every link");
  const std::uint32_t cell = cell_of[links[0]];
  for (std::size_t i = 0; i < k; ++i) {
    RTMAC_REQUIRE(links[i] < topology.num_links, "induced subgraph names an unknown link");
    RTMAC_REQUIRE(i == 0 || links[i - 1] < links[i], "induced subgraph links must ascend");
    RTMAC_REQUIRE(cell_of[links[i]] == cell && local_of[links[i]] == i,
                  "cell maps disagree with the cell's links");
  }
  const auto local = [cell_of, local_of, cell, k](LinkId global) -> std::size_t {
    return cell_of[global] == cell ? local_of[global] : k;
  };
  return InterferenceGraph{
      k, topology_rows(topology, k, [links](std::size_t a) { return links[a]; }, local), flags};
}

namespace {

double dist2(InterferenceGraph::Point a, InterferenceGraph::Point b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

/// Packs a 2D grid coordinate into a hashable key.
std::int64_t grid_key(std::int64_t ix, std::int64_t iy) {
  return (ix << 32) ^ (iy & 0xffffffff);
}

std::int64_t grid_floor(double v, double cell) {
  return static_cast<std::int64_t>(std::floor(v / cell));
}

}  // namespace

SparseTopology sparse_unit_disk(const std::vector<InterferenceGraph::LinkPlacement>& links,
                                double interference_range, double sense_range) {
  const std::size_t n = links.size();
  RTMAC_REQUIRE(n >= 1);
  RTMAC_REQUIRE(interference_range >= 0.0 && sense_range >= 0.0);
  const double ir2 = interference_range * interference_range;
  const double sr2 = sense_range * sense_range;

  // Neighbor search radius: two links can only be related when their
  // transmitters are within max(sense_range, interference_range + longest
  // tx->rx extent) of each other, so bucketing transmitters on a grid of
  // that pitch makes a 3x3 neighborhood scan exhaustive. The pitch is
  // padded by a relative 1e-9 so a pair exactly at the reach cannot land
  // two buckets apart through rounding in v / pitch.
  double max_extent2 = 0.0;
  for (const auto& link : links) {
    max_extent2 = std::max(max_extent2, dist2(link.tx, link.rx));
  }
  const double reach =
      std::max(sense_range, interference_range + std::sqrt(max_extent2));
  const double pitch = std::max(reach * (1.0 + 1e-9), 1e-9);

  std::unordered_map<std::int64_t, std::vector<LinkId>> buckets;
  buckets.reserve(n);
  for (LinkId a = 0; a < n; ++a) {
    buckets[grid_key(grid_floor(links[a].tx.x, pitch), grid_floor(links[a].tx.y, pitch))]
        .push_back(a);
  }

  SparseTopology out;
  out.num_links = n;
  out.conflict.resize(n);
  out.sense.resize(n);
  for (LinkId a = 0; a < n; ++a) {
    const std::int64_t ix = grid_floor(links[a].tx.x, pitch);
    const std::int64_t iy = grid_floor(links[a].tx.y, pitch);
    for (std::int64_t dx = -1; dx <= 1; ++dx) {
      for (std::int64_t dy = -1; dy <= 1; ++dy) {
        const auto it = buckets.find(grid_key(ix + dx, iy + dy));
        if (it == buckets.end()) continue;
        for (LinkId b : it->second) {
          if (b == a) continue;
          if (dist2(links[a].tx, links[b].rx) <= ir2 || dist2(links[b].tx, links[a].rx) <= ir2) {
            // Record each undirected conflict once (from the lower id) and
            // mirror it, keeping the lists exactly symmetric.
            if (a < b) {
              out.conflict[a].push_back(b);
              out.conflict[b].push_back(a);
            }
          }
          if (dist2(links[a].tx, links[b].tx) <= sr2) out.sense[a].push_back(b);
        }
      }
    }
  }
  for (auto& list : out.conflict) std::sort(list.begin(), list.end());
  for (auto& list : out.sense) std::sort(list.begin(), list.end());
  return out;
}

}  // namespace rtmac::phy
