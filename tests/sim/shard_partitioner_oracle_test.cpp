// Differential oracle for the conflict-graph partitioner: every ShardPlan
// field of sim::partition_topology must equal the frozen reference
// implementation's (reference_partitioner.hpp) on random graphs, unit-disk
// cities whose clusters overlap, chains, rings and hidden pairs, at targets
// from one cell up to one cell per link, on clean and messy input lists.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "expfw/scenarios.hpp"
#include "phy/interference.hpp"
#include "sim/reference_partitioner.hpp"
#include "sim/shard_partitioner.hpp"
#include "util/rng.hpp"

namespace rtmac::sim {
namespace {

struct Lists {
  AdjacencyLists conflict;
  AdjacencyLists sense;
};

Lists lists_of(const phy::SparseTopology& t) { return {t.conflict, t.sense}; }

void expect_same_plan(const Lists& t, std::size_t target, const std::string& label) {
  const ShardPlan want = reference::partition_topology(t.conflict, t.sense, target);
  const ShardPlan got = partition_topology(t.conflict, t.sense, target);
  const std::string where = label + " target=" + std::to_string(target);
  EXPECT_EQ(got.cell_of, want.cell_of) << where;
  EXPECT_EQ(got.cells, want.cells) << where;
  EXPECT_TRUE(got.cut_conflicts == want.cut_conflicts) << where;
  EXPECT_TRUE(got.cut_senses == want.cut_senses) << where;
}

/// Diffs the plans at 1, components, components + 1, 2 x components and n
/// targets (the component count as the reference sees it).
void expect_same_plans(const Lists& t, const std::string& label) {
  const std::size_t n = t.conflict.size();
  const std::size_t comps = reference::partition_topology(t.conflict, t.sense, 1).cells.size();
  const std::set<std::size_t> targets{1, std::max<std::size_t>(comps, 1), comps + 1, 2 * comps,
                                      std::max<std::size_t>(n, 1)};
  for (const std::size_t target : targets) expect_same_plan(t, target, label);
}

/// The same relations written badly: lists shuffled, some entries
/// duplicated, self loops added, and about a third of the conflict edges
/// listed under one endpoint only (sense is directed, so it keeps every
/// entry).
Lists messy(const Lists& clean, std::uint64_t seed) {
  Rng rng{seed, /*stream_id=*/0x3E55ULL};
  Lists out{AdjacencyLists(clean.conflict.size()), AdjacencyLists(clean.sense.size())};
  for (LinkId a = 0; a < clean.conflict.size(); ++a) {
    for (const LinkId b : clean.conflict[a]) {
      if (a < b && rng.bernoulli(0.3)) continue;  // b still lists a
      out.conflict[a].push_back(b);
      if (rng.bernoulli(0.2)) out.conflict[a].push_back(b);
    }
    if (rng.bernoulli(0.1)) out.conflict[a].push_back(a);
  }
  for (LinkId a = 0; a < clean.sense.size(); ++a) {
    for (const LinkId b : clean.sense[a]) {
      out.sense[a].push_back(b);
      if (rng.bernoulli(0.2)) out.sense[a].push_back(b);
    }
    if (rng.bernoulli(0.1)) out.sense[a].push_back(a);
  }
  for (auto& list : out.conflict) std::shuffle(list.begin(), list.end(), rng);
  for (auto& list : out.sense) std::shuffle(list.begin(), list.end(), rng);
  return out;
}

/// Clean, messy, and with an empty sense relation.
void expect_same_plans_every_form(const Lists& t, const std::string& label,
                                  std::uint64_t seed) {
  expect_same_plans(t, label);
  expect_same_plans(messy(t, seed), label + " messy");
  expect_same_plans(Lists{t.conflict, {}}, label + " no-sense");
}

Lists random_graph(std::size_t n, double conflict_p, double sense_p, std::uint64_t seed) {
  Rng rng{seed, /*stream_id=*/0x0AC1EULL};
  Lists t{AdjacencyLists(n), AdjacencyLists(n)};
  for (LinkId a = 0; a < n; ++a) {
    for (LinkId b = a + 1; b < n; ++b) {
      if (rng.bernoulli(conflict_p)) {
        t.conflict[a].push_back(b);
        t.conflict[b].push_back(a);
      }
    }
  }
  for (LinkId l = 0; l < n; ++l) {
    for (LinkId s = 0; s < n; ++s) {
      if (l != s && rng.bernoulli(sense_p)) t.sense[l].push_back(s);
    }
  }
  return t;
}

/// Unit-disk placement of `clusters` clusters on a 6-wide grid of pitch 10
/// whose links scatter +-6 around their center, so neighboring clusters
/// overlap into components of uneven size and shape.
Lists overlapping_city(std::size_t clusters, std::size_t per_cluster, std::uint64_t seed) {
  Rng rng{seed, /*stream_id=*/0xC17EULL};
  std::vector<phy::InterferenceGraph::LinkPlacement> links;
  for (std::size_t c = 0; c < clusters; ++c) {
    const double cx = 10.0 * static_cast<double>(c % 6);
    const double cy = 10.0 * static_cast<double>(c / 6);
    for (std::size_t i = 0; i < per_cluster; ++i) {
      phy::InterferenceGraph::LinkPlacement p;
      p.tx = {cx + rng.uniform_real(-6.0, 6.0), cy + rng.uniform_real(-6.0, 6.0)};
      p.rx = {p.tx.x + rng.uniform_real(-1.0, 1.0), p.tx.y + rng.uniform_real(-1.0, 1.0)};
      links.push_back(p);
    }
  }
  return lists_of(phy::sparse_unit_disk(links, 3.0, 4.0));
}

/// Ring of `n` links: each conflicts with both neighbors and hears only the
/// next one (directed sensing).
Lists ring(std::size_t n) {
  Lists t{AdjacencyLists(n), AdjacencyLists(n)};
  for (LinkId a = 0; a < n; ++a) {
    const auto next = static_cast<LinkId>((a + 1) % n);
    if (next == a) continue;
    t.conflict[a].push_back(next);
    t.conflict[next].push_back(a);
    t.sense[a].push_back(next);
  }
  return t;
}

// ---- oracle -----------------------------------------------------------------

TEST(ShardPartitionerOracleTest, RandomGraphsMatchTheReference) {
  struct Density {
    double conflict;
    double sense;
  };
  for (const std::size_t n : {1UL, 2UL, 7UL, 40UL, 120UL}) {
    for (const Density d : {Density{0.02, 0.01}, Density{0.06, 0.04}, Density{0.2, 0.0},
                            Density{0.0, 0.05}, Density{0.5, 0.5}}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        expect_same_plans_every_form(random_graph(n, d.conflict, d.sense, seed),
                                     "random n=" + std::to_string(n) + " seed=" +
                                         std::to_string(seed),
                                     seed);
      }
    }
  }
}

TEST(ShardPartitionerOracleTest, OverlappingUnitDiskCitiesMatchTheReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const std::size_t per : {3UL, 8UL}) {
      expect_same_plans_every_form(overlapping_city(24, per, seed),
                                   "city per=" + std::to_string(per) + " seed=" +
                                       std::to_string(seed),
                                   seed);
    }
  }
}

TEST(ShardPartitionerOracleTest, ChainsRingsAndHiddenPairsMatchTheReference) {
  for (const std::size_t cells : {1UL, 2UL, 5UL, 16UL}) {
    for (const std::size_t size : {1UL, 3UL, 8UL}) {
      expect_same_plans_every_form(lists_of(expfw::chain_cells_topology(cells, size)),
                                   "chain " + std::to_string(cells) + "x" + std::to_string(size),
                                   cells * 31 + size);
    }
  }
  for (const std::size_t n : {1UL, 2UL, 3UL, 10UL, 33UL}) {
    expect_same_plans_every_form(ring(n), "ring " + std::to_string(n), n);
  }
  expect_same_plans_every_form(lists_of(expfw::hidden_terminal_pair()), "hidden pair", 1);
  expect_same_plans_every_form(lists_of(expfw::hidden_cells_topology(12, 3)), "hidden cells", 2);
  expect_same_plans_every_form(lists_of(expfw::two_cell_topology(6, 2)), "two cells", 3);
}

// The two plans perfbench builds: the 10^5-link city at one shard per
// cluster (seeds 1 and 2, as perfbench derives its topology seed) and the
// 256-cell hidden-terminal chain at one shard per cell.
TEST(ShardPartitionerOracleTest, PerfbenchPlansMatchTheReference) {
  for (const std::uint64_t seed : {1ULL, 2ULL}) {
    expect_same_plan(lists_of(expfw::city_unit_disk_topology(12'500, 8, mix64(seed, 1))), 12'500,
                     "perfbench city seed=" + std::to_string(seed));
  }
  expect_same_plan(lists_of(expfw::chain_cells_topology(256, 8)), 256, "perfbench chain");
}

}  // namespace
}  // namespace rtmac::sim
