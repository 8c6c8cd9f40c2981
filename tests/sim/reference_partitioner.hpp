// A frozen copy of the conflict-graph partitioner as it stood before its
// union-find / heap-driven rewrite: a symmetrized vector-of-vectors union
// graph, BFS components, a bisection loop that rescans every cell for the
// largest splittable one, and per-split max_id-sized scratch arrays. It is
// deliberately slow and obviously correct; the oracle test
// (shard_partitioner_oracle_test.cpp) diffs every ShardPlan field of
// sim::partition_topology against it. Test-only: nothing in src/ includes it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/shard_partitioner.hpp"
#include "util/check.hpp"

namespace rtmac::sim::reference {


/// Sorted, deduplicated, self-loop-free union of the conflict and sense
/// relations, symmetrized (connectivity is undirected even though sensing
/// is not).
inline AdjacencyLists build_union(const AdjacencyLists& conflict, const AdjacencyLists& sense) {
  const std::size_t n = conflict.size();
  AdjacencyLists u(n);
  auto add = [&](LinkId a, LinkId b) {
    if (a == b) return;
    u[a].push_back(b);
    u[b].push_back(a);
  };
  for (LinkId a = 0; a < n; ++a) {
    for (LinkId b : conflict[a]) add(a, b);
  }
  for (LinkId a = 0; a < sense.size(); ++a) {
    for (LinkId b : sense[a]) add(a, b);
  }
  for (auto& list : u) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  return u;
}

/// Connected components of `u`, each as an ascending link list, ordered by
/// smallest member id. Iterative BFS with an explicit frontier; neighbor
/// lists are already sorted, so the visit order is fully determined.
inline std::vector<std::vector<LinkId>> connected_components(const AdjacencyLists& u) {
  const std::size_t n = u.size();
  std::vector<std::vector<LinkId>> comps;
  std::vector<bool> seen(n, false);
  std::vector<LinkId> frontier;
  for (LinkId root = 0; root < n; ++root) {
    if (seen[root]) continue;
    std::vector<LinkId> comp;
    frontier.assign(1, root);
    seen[root] = true;
    while (!frontier.empty()) {
      const LinkId v = frontier.back();
      frontier.pop_back();
      comp.push_back(v);
      for (LinkId w : u[v]) {
        if (!seen[w]) {
          seen[w] = true;
          frontier.push_back(w);
        }
      }
    }
    std::sort(comp.begin(), comp.end());
    comps.push_back(std::move(comp));
  }
  return comps;
}

/// True when every pair inside `cell` is adjacent in `u` (a clique). Clique
/// cells are never split: cutting a complete conflict graph would put every
/// transmission on the cut and serialize the shards anyway.
inline bool is_clique(const std::vector<LinkId>& cell, const AdjacencyLists& u) {
  if (cell.size() <= 1) return true;
  // Adjacency lists are sorted; membership by binary search keeps this
  // O(k * deg * log). Cells are small compared to the whole graph.
  for (LinkId v : cell) {
    const auto& nb = u[v];
    std::size_t inside = 0;
    for (LinkId w : cell) {
      if (w == v) continue;
      if (std::binary_search(nb.begin(), nb.end(), w)) ++inside;
    }
    if (inside + 1 < cell.size()) return false;
  }
  return true;
}

/// BFS order over `cell` (ascending-id tie-breaks, restarting from the
/// lowest unvisited id if the cell is internally disconnected), then takes
/// the first ceil(m/2) links as the first half. This is the "balanced
/// edge-cut" heuristic: BFS halves keep geometrically-near links together,
/// so the cut crosses the narrow waist of the component.
inline void bfs_bisect(const std::vector<LinkId>& cell, const AdjacencyLists& u,
                       std::vector<LinkId>& first, std::vector<LinkId>& second) {
  std::vector<LinkId> order;
  order.reserve(cell.size());
  const LinkId max_id = cell.back();
  std::vector<std::uint8_t> in_cell_flags(static_cast<std::size_t>(max_id) + 1, 0);
  for (LinkId v : cell) in_cell_flags[v] = 1;
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(max_id) + 1, 0);
  std::vector<LinkId> queue;
  std::size_t head = 0;
  for (LinkId root : cell) {
    if (seen[root]) continue;
    seen[root] = 1;
    queue.push_back(root);
    while (head < queue.size()) {
      const LinkId v = queue[head++];
      order.push_back(v);
      for (LinkId w : u[v]) {
        if (w <= max_id && in_cell_flags[w] && !seen[w]) {
          seen[w] = 1;
          queue.push_back(w);
        }
      }
    }
  }
  RTMAC_ASSERT(order.size() == cell.size(), "BFS bisection lost links");
  const std::size_t half = (order.size() + 1) / 2;
  first.assign(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(half));
  second.assign(order.begin() + static_cast<std::ptrdiff_t>(half), order.end());
  std::sort(first.begin(), first.end());
  std::sort(second.begin(), second.end());
}

inline ShardPlan partition_topology(const AdjacencyLists& conflict,
                                    const AdjacencyLists& sense, std::size_t target_shards) {
  RTMAC_REQUIRE(target_shards >= 1, "target_shards must be >= 1");
  RTMAC_REQUIRE(sense.size() == conflict.size() || sense.empty(),
                "sense adjacency size mismatch");
  const std::size_t n = conflict.size();

  const AdjacencyLists u = build_union(conflict, sense.empty() ? AdjacencyLists(n) : sense);
  std::vector<std::vector<LinkId>> cells = connected_components(u);

  // Bisect the largest non-clique cell while more parallelism is wanted.
  // Ties break toward the earliest cell, so the sequence of splits — and
  // therefore the whole plan — is deterministic.
  while (cells.size() < target_shards) {
    std::size_t pick = cells.size();
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (cells[c].size() < 2 || is_clique(cells[c], u)) continue;
      if (pick == cells.size() || cells[c].size() > cells[pick].size()) pick = c;
    }
    if (pick == cells.size()) break;  // nothing splittable left
    std::vector<LinkId> first;
    std::vector<LinkId> second;
    bfs_bisect(cells[pick], u, first, second);
    cells[pick] = std::move(first);
    cells.push_back(std::move(second));
  }

  // Canonical cell order: ascending smallest member id.
  std::sort(cells.begin(), cells.end(),
            [](const std::vector<LinkId>& a, const std::vector<LinkId>& b) {
              return a.front() < b.front();
            });

  ShardPlan plan;
  plan.cells = std::move(cells);
  plan.cell_of.assign(n, 0);
  for (std::uint32_t c = 0; c < plan.cells.size(); ++c) {
    for (LinkId v : plan.cells[c]) plan.cell_of[v] = c;
  }

  // Cut sets straight off the input relations. A conflict listed in either
  // direction is the same undirected edge.
  for (LinkId a = 0; a < n; ++a) {
    for (LinkId b : conflict[a]) {
      if (plan.cell_of[a] != plan.cell_of[b]) {
        plan.cut_conflicts.push_back({std::min(a, b), std::max(a, b)});
      }
    }
  }
  std::sort(plan.cut_conflicts.begin(), plan.cut_conflicts.end(),
            [](const CutEdge& x, const CutEdge& y) {
              return x.a != y.a ? x.a < y.a : x.b < y.b;
            });
  plan.cut_conflicts.erase(std::unique(plan.cut_conflicts.begin(), plan.cut_conflicts.end()),
                           plan.cut_conflicts.end());
  for (LinkId listener = 0; listener < sense.size(); ++listener) {
    for (LinkId speaker : sense[listener]) {
      if (listener != speaker && plan.cell_of[listener] != plan.cell_of[speaker]) {
        plan.cut_senses.push_back({listener, speaker});
      }
    }
  }
  std::sort(plan.cut_senses.begin(), plan.cut_senses.end(),
            [](const CutSense& x, const CutSense& y) {
              return x.listener != y.listener ? x.listener < y.listener : x.speaker < y.speaker;
            });
  plan.cut_senses.erase(std::unique(plan.cut_senses.begin(), plan.cut_senses.end()),
                        plan.cut_senses.end());

  return plan;
}

}  // namespace rtmac::sim::reference
