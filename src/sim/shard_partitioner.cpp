#include "sim/shard_partitioner.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <numeric>
#include <queue>
#include <span>
#include <utility>

#include "util/check.hpp"

namespace rtmac::sim {
namespace {

/// Connected components of the conflict ∪ sense union graph, each as an
/// ascending link list, ordered by smallest member id. Union-find straight
/// over the input lists (unsorted, duplicated, one-sided and self entries
/// are all harmless): every set is rooted at its smallest id, so parent[v]
/// <= v throughout and one ascending sweep numbers the cells in order of
/// their smallest member and fills each in ascending order.
std::vector<std::vector<LinkId>> connected_components(const AdjacencyLists& conflict,
                                                      const AdjacencyLists& sense) {
  const std::size_t n = conflict.size();
  std::vector<LinkId> parent(n);
  std::iota(parent.begin(), parent.end(), LinkId{0});
  const auto find = [&parent](LinkId v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];  // path halving
      v = parent[v];
    }
    return v;
  };
  // The owner of a list keeps its root across the list: a union only ever
  // lowers it to the other side's root.
  const auto unite_lists = [&](const AdjacencyLists& lists) {
    for (LinkId a = 0; a < lists.size(); ++a) {
      LinkId root = find(a);
      for (LinkId b : lists[a]) {
        RTMAC_ASSERT(b < n, "adjacency names an unknown link");
        const LinkId other = find(b);
        if (root < other) {
          parent[other] = root;
        } else if (other < root) {
          parent[root] = other;
          root = other;
        }
      }
    }
  };
  unite_lists(conflict);
  unite_lists(sense);
  // parent[v] < v is already resolved to a cell index by the time v is seen.
  std::vector<std::uint32_t> cell_of(n);
  std::vector<std::size_t> sizes;
  for (LinkId v = 0; v < n; ++v) {
    if (parent[v] == v) {
      cell_of[v] = static_cast<std::uint32_t>(sizes.size());
      sizes.push_back(0);
    } else {
      cell_of[v] = cell_of[parent[v]];
    }
    ++sizes[cell_of[v]];
  }
  std::vector<std::vector<LinkId>> comps(sizes.size());
  for (std::size_t c = 0; c < comps.size(); ++c) comps[c].reserve(sizes[c]);
  for (LinkId v = 0; v < n; ++v) comps[cell_of[v]].push_back(v);
  return comps;
}

/// The bisection loop's view of the topology: the symmetrized union of the
/// conflict and sense relations as one set of compressed rows (ascending,
/// deduplicated, self-loop-free; connectivity is undirected even though
/// sensing is not), plus one epoch-stamped scratch array over the links that
/// every clique test and split reuses. Built only when bisection runs.
class Bisector {
 public:
  Bisector(const AdjacencyLists& conflict, const AdjacencyLists& sense)
      : offsets_(conflict.size() + 1, 0), stamp_(conflict.size(), 0) {
    const std::size_t n = conflict.size();
    const auto for_each_edge = [&](const auto& add) {
      for (LinkId a = 0; a < n; ++a) {
        for (LinkId b : conflict[a]) add(a, b);
      }
      for (LinkId a = 0; a < sense.size(); ++a) {
        for (LinkId b : sense[a]) add(a, b);
      }
    };
    for_each_edge([this](LinkId a, LinkId b) {
      if (a == b) return;
      ++offsets_[a + 1];
      ++offsets_[b + 1];
    });
    for (std::size_t v = 0; v < n; ++v) offsets_[v + 1] += offsets_[v];
    columns_.resize(offsets_[n]);
    std::vector<std::size_t> fill(offsets_.begin(), offsets_.end() - 1);
    for_each_edge([&](LinkId a, LinkId b) {
      if (a == b) return;
      columns_[fill[a]++] = b;
      columns_[fill[b]++] = a;
    });
    // Sort and deduplicate each row, compacting in place.
    std::size_t out = 0;
    for (std::size_t v = 0; v < n; ++v) {
      const auto first = columns_.begin() + static_cast<std::ptrdiff_t>(offsets_[v]);
      const auto last = columns_.begin() + static_cast<std::ptrdiff_t>(offsets_[v + 1]);
      std::sort(first, last);
      const auto end = std::unique(first, last);
      offsets_[v] = out;
      for (auto it = first; it != end; ++it) columns_[out++] = *it;
    }
    offsets_[n] = out;
    columns_.resize(out);
  }

  /// True when every pair inside `cell` is adjacent (a clique). Clique
  /// cells are never split: cutting a complete conflict graph would put
  /// every transmission on the cut and serialize the shards anyway. Rows
  /// are duplicate-free, so v is adjacent to all of the cell exactly when
  /// k - 1 of its neighbors are members: O(sum of the members' degrees).
  bool is_clique(const std::vector<LinkId>& cell) {
    if (cell.size() <= 1) return true;
    const std::uint32_t member = stamp(cell);
    for (LinkId v : cell) {
      const std::span<const LinkId> nb = row(v);
      if (nb.size() + 1 < cell.size()) return false;
      const auto inside = std::count_if(nb.begin(), nb.end(),
                                        [&](LinkId w) { return stamp_[w] == member; });
      if (static_cast<std::size_t>(inside) + 1 < cell.size()) return false;
    }
    return true;
  }

  /// BFS order over `cell` (ascending-id tie-breaks, restarting from the
  /// lowest unvisited id if the cell is internally disconnected), then takes
  /// the first ceil(m/2) links as the first half. This is the "balanced
  /// edge-cut" heuristic: BFS halves keep geometrically-near links together,
  /// so the cut crosses the narrow waist of the component. O(sum of the
  /// members' degrees), whatever the link ids.
  void bisect(const std::vector<LinkId>& cell, std::vector<LinkId>& first,
              std::vector<LinkId>& second) {
    // stamp_ == unseen: a member not yet queued; unseen + 1: queued.
    const std::uint32_t unseen = stamp(cell);
    order_.clear();
    std::size_t head = 0;
    for (LinkId root : cell) {
      if (stamp_[root] != unseen) continue;
      stamp_[root] = unseen + 1;
      order_.push_back(root);
      while (head < order_.size()) {
        for (LinkId w : row(order_[head++])) {
          if (stamp_[w] == unseen) {
            stamp_[w] = unseen + 1;
            order_.push_back(w);
          }
        }
      }
    }
    RTMAC_ASSERT(order_.size() == cell.size(), "BFS bisection lost links");
    // Restamp the first half `unseen`, then split the ascending cell by
    // stamp: both halves come out ascending without a sort.
    const std::size_t half = (order_.size() + 1) / 2;
    for (std::size_t i = 0; i < half; ++i) stamp_[order_[i]] = unseen;
    first.clear();
    second.clear();
    first.reserve(half);
    second.reserve(cell.size() - half);
    for (LinkId v : cell) (stamp_[v] == unseen ? first : second).push_back(v);
  }

 private:
  [[nodiscard]] std::span<const LinkId> row(LinkId v) const {
    return {columns_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// Stamps `cell`'s links with a fresh epoch and returns it. Epochs step by
  /// two, leaving epoch + 1 free as a second per-call state.
  std::uint32_t stamp(const std::vector<LinkId>& cell) {
    RTMAC_ASSERT(epoch_ < std::numeric_limits<std::uint32_t>::max() - 2, "stamp epoch overflow");
    epoch_ += 2;
    for (LinkId v : cell) stamp_[v] = epoch_;
    return epoch_;
  }

  std::vector<std::size_t> offsets_;  ///< size n + 1
  std::vector<LinkId> columns_;
  std::vector<std::uint32_t> stamp_;  ///< per link: the epoch that last marked it
  std::uint32_t epoch_ = 0;
  std::vector<LinkId> order_;  ///< BFS queue, which is also the visit order
};

}  // namespace

ShardPlan partition_topology(const AdjacencyLists& conflict, const AdjacencyLists& sense,
                             std::size_t target_shards) {
  RTMAC_REQUIRE(target_shards >= 1, "target_shards must be >= 1");
  RTMAC_REQUIRE(sense.size() == conflict.size() || sense.empty(),
                "sense adjacency size mismatch");
  const std::size_t n = conflict.size();

  std::vector<std::vector<LinkId>> cells = connected_components(conflict, sense);
  const std::size_t num_components = cells.size();

  // Bisect the largest non-clique cell while more parallelism is wanted.
  // Ties break toward the lowest cell index, so the sequence of splits —
  // and therefore the whole plan — is deterministic. A max-heap keyed on
  // (links, lowest index) holds only the splittable cells, so each cell is
  // tested for a clique once, when it is made.
  if (cells.size() < target_shards) {
    Bisector bisector{conflict, sense};
    using Entry = std::pair<std::size_t, std::size_t>;  // (links, cell index)
    const auto picked_later = [](const Entry& x, const Entry& y) {
      return x.first != y.first ? x.first < y.first : x.second > y.second;
    };
    std::priority_queue<Entry, std::vector<Entry>, decltype(picked_later)> splittable{
        picked_later};
    const auto offer = [&](std::size_t c) {
      if (cells[c].size() >= 2 && !bisector.is_clique(cells[c])) {
        splittable.emplace(cells[c].size(), c);
      }
    };
    for (std::size_t c = 0; c < cells.size(); ++c) offer(c);
    while (cells.size() < target_shards && !splittable.empty()) {
      const std::size_t pick = splittable.top().second;
      splittable.pop();
      std::vector<LinkId> first;
      std::vector<LinkId> second;
      bisector.bisect(cells[pick], first, second);
      cells[pick] = std::move(first);
      cells.push_back(std::move(second));
      offer(pick);
      offer(cells.size() - 1);
    }
    // Canonical cell order: ascending smallest member id (components are
    // already in it; splits append out of order).
    std::sort(cells.begin(), cells.end(),
              [](const std::vector<LinkId>& a, const std::vector<LinkId>& b) {
                return a.front() < b.front();
              });
  }

  ShardPlan plan;
  plan.cells = std::move(cells);
  plan.cell_of.assign(n, 0);
  for (std::uint32_t c = 0; c < plan.cells.size(); ++c) {
    for (LinkId v : plan.cells[c]) plan.cell_of[v] = c;
  }

  // Cut sets straight off the input relations. A conflict listed in either
  // direction is the same undirected edge. Components share no relation, so
  // only a split can cut one.
  if (plan.cells.size() > num_components) {
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
  }

  return plan;
}

ShardPlan single_cell_plan(std::size_t num_links) {
  ShardPlan plan;
  plan.cell_of.assign(num_links, 0);
  plan.cells.emplace_back(num_links);
  std::iota(plan.cells[0].begin(), plan.cells[0].end(), LinkId{0});
  return plan;
}

std::vector<std::size_t> chunk_bounds(const ShardPlan& plan, std::size_t count) {
  RTMAC_REQUIRE(count >= 1, "chunk count must be >= 1");
  const std::size_t cells = plan.cells.size();
  count = std::min(count, cells);
  std::vector<std::size_t> bounds(count + 1, 0);
  std::size_t c = 0;
  std::size_t taken = 0;  // links in chunks so far
  for (std::size_t w = 0; w < count; ++w) {
    // Fill chunk w to its share of the links, leaving a cell per later chunk.
    while (c + (count - w) <= cells &&
           (c == bounds[w] || taken < plan.num_links() * (w + 1) / count)) {
      taken += plan.cells[c++].size();
    }
    bounds[w + 1] = c;
  }
  return bounds;
}

}  // namespace rtmac::sim
