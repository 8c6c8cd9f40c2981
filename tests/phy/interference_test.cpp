#include "phy/interference.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace rtmac::phy {
namespace {

TEST(InterferenceGraphTest, CompleteGraphConflictsAndSensesEverywhere) {
  const auto g = InterferenceGraph::complete(4);
  EXPECT_EQ(g.num_links(), 4u);
  for (LinkId a = 0; a < 4; ++a) {
    for (LinkId b = 0; b < 4; ++b) {
      EXPECT_TRUE(g.conflicts(a, b));
      EXPECT_TRUE(g.senses(a, b));
    }
  }
  EXPECT_TRUE(g.complete_conflicts());
  EXPECT_TRUE(g.complete_sensing());
  EXPECT_TRUE(g.is_complete());
}

TEST(InterferenceGraphTest, SingleLinkIsComplete) {
  const auto g = InterferenceGraph::complete(1);
  EXPECT_TRUE(g.is_complete());
  EXPECT_TRUE(g.conflicts(0, 0));
  EXPECT_TRUE(g.senses(0, 0));
}

TEST(InterferenceGraphTest, SelfRelationsAreForced) {
  // Empty lists: every link still conflicts with and senses itself.
  const InterferenceGraph g{SparseTopology{3, {{}, {}, {}}, {{}, {}, {}}}};
  for (LinkId n = 0; n < 3; ++n) {
    EXPECT_TRUE(g.conflicts(n, n));
    EXPECT_TRUE(g.senses(n, n));
    ASSERT_EQ(g.sensed_by(n).size(), 1u);
    EXPECT_EQ(g.sensed_by(n)[0], n);
  }
  EXPECT_FALSE(g.conflicts(0, 1));
  EXPECT_FALSE(g.senses(0, 1));
  EXPECT_FALSE(g.complete_conflicts());
  EXPECT_FALSE(g.complete_sensing());
}

TEST(InterferenceGraphTest, ConflictIsSymmetrized) {
  // b listed under a only: the conflict must hold in both directions.
  const InterferenceGraph g{SparseTopology{2, {{1}, {}}, {{}, {}}}};
  EXPECT_TRUE(g.conflicts(0, 1));
  EXPECT_TRUE(g.conflicts(1, 0));
}

TEST(InterferenceGraphTest, SensingMayBeAsymmetric) {
  // Node 0 hears link 1, node 1 does not hear link 0 (power asymmetry).
  const InterferenceGraph g{SparseTopology{2, {{}, {}}, {{1}, {}}}};
  EXPECT_TRUE(g.senses(0, 1));
  EXPECT_FALSE(g.senses(1, 0));
  // sensed_by inverts the relation: link 1 is heard by nodes 0 and 1.
  ASSERT_EQ(g.sensed_by(1).size(), 2u);
  EXPECT_EQ(g.sensed_by(1)[0], 0u);
  EXPECT_EQ(g.sensed_by(1)[1], 1u);
  ASSERT_EQ(g.sensed_by(0).size(), 1u);
  EXPECT_EQ(g.sensed_by(0)[0], 0u);
}

TEST(InterferenceGraphTest, HiddenTerminalIsConflictWithoutSensing) {
  const InterferenceGraph g{SparseTopology{2, {{1}, {0}}, {{}, {}}}};
  EXPECT_TRUE(g.conflicts(0, 1));
  EXPECT_FALSE(g.senses(0, 1));
  EXPECT_FALSE(g.senses(1, 0));
  EXPECT_TRUE(g.complete_conflicts());
  EXPECT_FALSE(g.complete_sensing());
  EXPECT_FALSE(g.is_complete());
}

TEST(InterferenceGraphTest, UnitDiskBuildsExpectedRelations) {
  // Two link pairs far apart, one in the middle conflicting with both.
  //   link 0: tx (0,0)  rx (1,0)
  //   link 1: tx (10,0) rx (11,0)
  //   link 2: tx (5,0)  rx (6,0)
  const std::vector<InterferenceGraph::LinkPlacement> links{
      {{0.0, 0.0}, {1.0, 0.0}},
      {{10.0, 0.0}, {11.0, 0.0}},
      {{5.0, 0.0}, {6.0, 0.0}},
  };
  const InterferenceGraph g{sparse_unit_disk(links, /*interference_range=*/5.0,
                                             /*sense_range=*/5.0)};
  // 0 and 1: tx-rx distances 10 and 11 — independent.
  EXPECT_FALSE(g.conflicts(0, 1));
  EXPECT_FALSE(g.senses(0, 1));
  // 0 and 2: tx0 (0,0) to rx2 (6,0) = 6 > 5, but tx2 (5,0) to rx0 (1,0) = 4.
  EXPECT_TRUE(g.conflicts(0, 2));
  EXPECT_TRUE(g.conflicts(2, 0));
  // Sensing: tx0-tx2 distance 5, inclusive comparison.
  EXPECT_TRUE(g.senses(0, 2));
  EXPECT_TRUE(g.senses(2, 0));
  // tx1 (10,0) to tx2 (5,0) = 5: also in range.
  EXPECT_TRUE(g.senses(1, 2));
  EXPECT_FALSE(g.is_complete());
}

TEST(InterferenceGraphTest, SensedByIsSortedAndIncludesSelf) {
  const auto g = InterferenceGraph::complete(5);
  for (LinkId l = 0; l < 5; ++l) {
    const auto nodes = g.sensed_by(l);
    ASSERT_EQ(nodes.size(), 5u);
    for (LinkId n = 0; n < 5; ++n) EXPECT_EQ(nodes[n], n);
  }
}

TEST(InterferenceGraphTest, CopyableValueType) {
  const InterferenceGraph g{SparseTopology{2, {{1}, {}}, {{}, {}}}};
  const InterferenceGraph copy = g;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_TRUE(copy.conflicts(1, 0));
  EXPECT_EQ(copy.num_links(), 2u);
}

// ---- sparse_unit_disk against a brute-force pairwise reference ---------------

using Placement = InterferenceGraph::LinkPlacement;

double dist2(InterferenceGraph::Point a, InterferenceGraph::Point b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

/// The unit-disk rule, pair by pair: O(n^2), obviously right.
SparseTopology brute_force_unit_disk(const std::vector<Placement>& links, double ir, double sr) {
  const std::size_t n = links.size();
  SparseTopology out{n, std::vector<std::vector<LinkId>>(n), std::vector<std::vector<LinkId>>(n)};
  for (LinkId a = 0; a < n; ++a) {
    for (LinkId b = 0; b < n; ++b) {
      if (a == b) continue;
      const bool a_hits_b = dist2(links[a].tx, links[b].rx) <= ir * ir;
      const bool b_hits_a = dist2(links[b].tx, links[a].rx) <= ir * ir;
      if (a_hits_b || b_hits_a) out.conflict[a].push_back(b);
      if (dist2(links[a].tx, links[b].tx) <= sr * sr) out.sense[a].push_back(b);
    }
  }
  return out;
}

/// Integer grid placements in [-6, 6]^2 with receivers up to 2 away: many
/// transmitters coincide, many pairs sit exactly at integer ranges (axis
/// offsets and 3-4-5 triangles), and about one link in 25 has zero length.
std::vector<Placement> grid_placements(std::uint64_t seed, std::size_t n) {
  Rng rng{seed, /*stream_id=*/0x5D15CULL};
  std::vector<Placement> links(n);
  for (Placement& p : links) {
    p.tx.x = static_cast<double>(rng.uniform_int(-6, 6));
    p.tx.y = static_cast<double>(rng.uniform_int(-6, 6));
    p.rx.x = p.tx.x + static_cast<double>(rng.uniform_int(-2, 2));
    p.rx.y = p.tx.y + static_cast<double>(rng.uniform_int(-2, 2));
  }
  return links;
}

/// Continuous placements over [-30, 30]^2, some links of zero length.
std::vector<Placement> real_placements(std::uint64_t seed, std::size_t n) {
  Rng rng{seed, /*stream_id=*/0x2EA1ULL};
  std::vector<Placement> links(n);
  for (std::size_t i = 0; i < n; ++i) {
    Placement& p = links[i];
    p.tx.x = 60.0 * rng.next_double() - 30.0;
    p.tx.y = 60.0 * rng.next_double() - 30.0;
    const bool zero_length = i % 7 == 0;
    p.rx.x = zero_length ? p.tx.x : p.tx.x + 4.0 * rng.next_double() - 2.0;
    p.rx.y = zero_length ? p.tx.y : p.tx.y + 4.0 * rng.next_double() - 2.0;
  }
  return links;
}

void expect_same_lists(const SparseTopology& got, const SparseTopology& want) {
  ASSERT_EQ(got.num_links, want.num_links);
  EXPECT_EQ(got.conflict, want.conflict);
  EXPECT_EQ(got.sense, want.sense);
}

TEST(SparseUnitDiskTest, MatchesBruteForceOnGridPlacementsWithExactRangePairs) {
  const double ranges[] = {0.0, 1.0, 2.0, 2.5, 5.0};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto links = grid_placements(seed, 80);
    for (const double ir : ranges) {
      for (const double sr : ranges) {
        SCOPED_TRACE(testing::Message() << "seed=" << seed << " ir=" << ir << " sr=" << sr);
        expect_same_lists(sparse_unit_disk(links, ir, sr), brute_force_unit_disk(links, ir, sr));
      }
    }
  }
}

TEST(SparseUnitDiskTest, GridPlacementsReallyContainBoundaryCases) {
  // Guards the test above against vacuity: the placements must hold pairs
  // at exactly range 5 and 2, coincident transmitters (all range 0 sees),
  // zero-length links and negative coordinates.
  const auto links = grid_placements(1, 80);
  bool at_five = false;
  bool at_two = false;
  bool coincident = false;
  bool zero_length = false;
  bool negative = false;
  for (LinkId a = 0; a < links.size(); ++a) {
    zero_length = zero_length || dist2(links[a].tx, links[a].rx) == 0.0;
    negative = negative || links[a].tx.x < 0.0 || links[a].rx.y < 0.0;
    for (LinkId b = 0; b < a; ++b) {
      const double d2 = dist2(links[a].tx, links[b].tx);
      at_five = at_five || d2 == 25.0;
      at_two = at_two || d2 == 4.0;
      coincident = coincident || d2 == 0.0;
    }
  }
  EXPECT_TRUE(at_five && at_two && coincident && zero_length && negative);
}

TEST(SparseUnitDiskTest, MatchesBruteForceOnContinuousPlacements) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto links = real_placements(seed, 150);
    for (const double ir : {0.0, 1.5, 4.0, 9.0}) {
      for (const double sr : {0.0, 3.0, 12.0}) {
        SCOPED_TRACE(testing::Message() << "seed=" << seed << " ir=" << ir << " sr=" << sr);
        expect_same_lists(sparse_unit_disk(links, ir, sr), brute_force_unit_disk(links, ir, sr));
      }
    }
  }
}

// ---- the CSR view ------------------------------------------------------------

TEST(InterferenceGraphTest, ListsAreNormalizedIntoSortedRowsWithSelf) {
  // Unsorted, duplicated, self-listing and one-directional input.
  const InterferenceGraph g{SparseTopology{4, {{3, 0, 3}, {}, {1}, {}}, {{2, 2, 0}, {}, {}, {}}}};
  const CsrRows& rows = g.conflict_rows();
  EXPECT_EQ(rows.offsets, (std::vector<std::uint32_t>{0, 2, 4, 6, 8}));
  EXPECT_EQ(rows.columns, (std::vector<LinkId>{0, 3, 1, 2, 1, 2, 0, 3}));
  EXPECT_TRUE(g.conflicts(1, 2));
  EXPECT_TRUE(g.conflicts(2, 1));
  EXPECT_EQ(g.conflict_slot(3, 0), 6u);
  EXPECT_EQ(g.conflict_slot(0, 1), InterferenceGraph::kNoSlot);
  ASSERT_EQ(g.sensed_by(2).size(), 2u);
  EXPECT_EQ(g.sensed_by(2)[0], 0u);
  EXPECT_EQ(g.sensed_by(2)[1], 2u);
  EXPECT_TRUE(g.senses(0, 2));
  EXPECT_FALSE(g.senses(2, 0));
}

TEST(InterferenceGraphTest, CompleteGraphSlotsAreRowMajor) {
  const auto g = InterferenceGraph::complete(3);
  EXPECT_EQ(g.conflict_rows().columns.size(), 9u);
  for (LinkId a = 0; a < 3; ++a) {
    for (LinkId b = 0; b < 3; ++b) EXPECT_EQ(g.conflict_slot(a, b), a * 3u + b);
  }
}

TEST(InterferenceGraphTest, InducedSubgraphRelabelsAndDropsOutsideRelations) {
  // Chain 0-1-2-3 (conflict), sensing 3 -> 1 only.
  const SparseTopology topo{4, {{1}, {0, 2}, {1, 3}, {2}}, {{}, {}, {}, {1}}};
  const LinkId links[] = {1, 3};
  const auto g = InterferenceGraph::induced(topo, links);
  ASSERT_EQ(g.num_links(), 2u);
  EXPECT_FALSE(g.conflicts(0, 1));  // 1 and 3 do not conflict
  EXPECT_TRUE(g.senses(1, 0));      // global 3 hears global 1
  EXPECT_FALSE(g.senses(0, 1));
  EXPECT_EQ(g.conflict_rows().columns, (std::vector<LinkId>{0, 1}));
}

TEST(InterferenceGraphTest, InducedFlagsFollowThePolicy) {
  const SparseTopology topo{3, {{1}, {0}, {}}, {{1}, {0}, {}}};
  const LinkId pair[] = {0, 1};
  EXPECT_FALSE(InterferenceGraph::induced(topo, pair).is_complete());
  EXPECT_TRUE(
      InterferenceGraph::induced(topo, pair, InterferenceGraph::SubgraphFlags::kKeepCompleteness)
          .is_complete());
  // The whole topology computes its flags honestly: link 2 is isolated.
  const InterferenceGraph whole{topo};
  EXPECT_FALSE(whole.complete_conflicts());
  EXPECT_FALSE(whole.complete_sensing());
  // An induced view over every link equals the whole view.
  const LinkId all[] = {0, 1, 2};
  const auto everything =
      InterferenceGraph::induced(topo, all, InterferenceGraph::SubgraphFlags::kKeepCompleteness);
  EXPECT_EQ(everything.conflict_rows().columns, whole.conflict_rows().columns);
  EXPECT_EQ(everything.conflict_rows().offsets, whole.conflict_rows().offsets);
}

}  // namespace
}  // namespace rtmac::phy
