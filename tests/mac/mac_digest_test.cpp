// Per-interval digest goldens for the three contention MACs (DB-DP, DCF,
// FCSMA).
//
// Each case runs one configuration and folds everything observable into one
// 64-bit digest (a mix64 chain):
//   * every interval's per-link deliveries and debts;
//   * the final DP priorities (DB-DP runs);
//   * the Medium counters data_tx, empty_tx, delivered, channel_losses,
//     collisions and busy_time (summed over cells);
//   * for single-cell partial-sensing runs, every Tracer record.
//
// The recorded digests were taken while every MAC still had a per-link
// reference layout beside its SoA layout, and each complete-domain case
// reproduced its digest on both. They pin the one remaining layout per MAC
// to that behaviour: RNG streams, listener order, event sequence numbers and
// tie order all feed the digest, so any drift changes it. The complete-
// domain cases are exactly the configs (seeds, interval counts) the former
// layout-equivalence tests ran; the ring and chain cases cover per-link
// backoff engines on per-node sense views, single-cell and sharded. Both
// clocks give the same digest on a complete domain, so every case also checks
// which clock its cells armed: the shared one under complete sensing, per-link
// engines otherwise.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "expfw/scenarios.hpp"
#include "helpers/ring_topology.hpp"
#include "mac/dcf_mac.hpp"
#include "mac/dp_link_mac.hpp"
#include "mac/fcsma_mac.hpp"
#include "net/network.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

namespace rtmac::mac {
namespace {

/// One run's digest plus what the sanity checks read.
struct RunDigest {
  std::uint64_t digest = 0;
  phy::MediumCounters counters;
  std::size_t cells = 0;
  /// Cells whose scheme arms one shared clock (DpBatchBackoff or
  /// SharedBackoffClock) instead of per-link BackoffEngines. The digests
  /// cannot tell the two apart on a complete domain, so this is checked
  /// directly.
  std::size_t shared_clock_cells = 0;
};

bool on_shared_clock(const MacScheme& scheme) {
  if (const auto* dp = dynamic_cast<const DpScheme*>(&scheme); dp != nullptr) {
    return dp->batch_path();
  }
  if (const auto* dcf = dynamic_cast<const DcfScheme*>(&scheme); dcf != nullptr) {
    return dcf->batch_path();
  }
  if (const auto* fcsma = dynamic_cast<const FcsmaScheme*>(&scheme); fcsma != nullptr) {
    return fcsma->batch_path();
  }
  ADD_FAILURE() << "not a contention MAC: " << scheme.name();
  return false;
}

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return mix64(h, v);
}
std::uint64_t fold(std::uint64_t h, std::int64_t v) {
  return mix64(h, static_cast<std::uint64_t>(v));
}

/// Runs `cfg` for `intervals` and folds the digest. `traced` attaches an
/// unbounded Tracer (single-cell runs only) and folds every record.
RunDigest run_digest(const net::NetworkConfig& cfg, const SchemeFactory& factory,
                     IntervalIndex intervals, bool traced) {
  net::Network net{cfg.clone(), factory};
  sim::Tracer tracer{0};
  if (traced) {
    EXPECT_EQ(net.cell_count(), 1U);
    net.attach_tracer(&tracer);
  }
  std::uint64_t h = 0x6D61632D64696765ULL;
  net.add_observer([&h, &net](IntervalIndex k, std::span<const int>, std::span<const int> s) {
    h = fold(h, static_cast<std::uint64_t>(k));
    for (std::size_t n = 0; n < s.size(); ++n) {
      h = fold(h, static_cast<std::int64_t>(s[n]));
      h = fold(h, std::bit_cast<std::uint64_t>(net.debts().debt(static_cast<LinkId>(n))));
    }
  });
  net.run(intervals);
  if (net.cell_count() == 1) {
    if (const auto* dp = dynamic_cast<const DpScheme*>(&net.scheme()); dp != nullptr) {
      for (const PriorityIndex p : dp->priority_vector()) {
        h = fold(h, static_cast<std::uint64_t>(p));
      }
    }
  }
  const phy::MediumCounters c = net.medium_counters();
  for (const std::uint64_t v :
       {c.data_tx, c.empty_tx, c.delivered, c.channel_losses, c.collisions}) {
    h = fold(h, v);
  }
  h = fold(h, c.busy_time.ns());
  if (traced) {
    h = fold(h, static_cast<std::uint64_t>(tracer.total_recorded()));
    for (const sim::TraceEvent& e : tracer.events()) {
      h = fold(h, e.time.ns());
      h = fold(h, static_cast<std::uint64_t>(e.kind));
      h = fold(h, static_cast<std::uint64_t>(e.link));
      h = fold(h, e.a);
      h = fold(h, e.b);
    }
    net.attach_tracer(nullptr);
  }
  RunDigest run{h, c, net.cell_count(), 0};
  for (std::size_t cell = 0; cell < net.cell_count(); ++cell) {
    if (on_shared_clock(net.cell_scheme(cell))) ++run.shared_clock_cells;
  }
  return run;
}

/// Runs a case and checks its recorded digest.
RunDigest expect_digest(const net::NetworkConfig& cfg, const SchemeFactory& factory,
                        IntervalIndex intervals, std::uint64_t expected, bool traced = false) {
  const RunDigest run = run_digest(cfg, factory, intervals, traced);
  EXPECT_EQ(run.digest, expected) << std::hex << "recorded 0x" << expected << ", got 0x"
                                  << run.digest;
  return run;
}

net::NetworkConfig chain_cells_config(std::uint64_t seed) {
  constexpr std::size_t kCells = 8;
  constexpr std::size_t kCellSize = 8;
  auto cfg = expfw::with_sparse_topology(
      net::symmetric_network(kCells * kCellSize, Duration::milliseconds(2),
                             phy::PhyParams::control_80211a(), 0.7,
                             traffic::BernoulliArrivals{0.8}, 0.9, seed),
      expfw::chain_cells_topology(kCells, kCellSize));
  cfg.shards = kCells;
  return cfg;
}

// ---- DB-DP, complete sensing ------------------------------------------------

TEST(DpBatchEquivalenceTest, VideoScenarioAcrossSeeds) {
  const std::uint64_t seeds[] = {1, 7, 1234};
  const std::uint64_t expected[] = {0x56e1c7478ad2a0b0ULL, 0x5a35590c66202e37ULL,
                                    0x68e543cc08d4adfbULL};
  for (std::size_t i = 0; i < 3; ++i) {
    const RunDigest run = expect_digest(expfw::video_symmetric(0.55, 0.9, seeds[i]),
                                        expfw::dbdp_factory(), 120, expected[i]);
    EXPECT_EQ(run.shared_clock_cells, 1U);
    EXPECT_GT(run.counters.data_tx, 0U);
    EXPECT_EQ(run.counters.collisions, 0U);
  }
}

TEST(DpBatchEquivalenceTest, SmallLossyNetwork) {
  // 6 links, heavy loss, tighter requirement: retransmission bursts and
  // empty claims far more often per interval.
  net::NetworkConfig small = expfw::video_symmetric(0.55, 0.9, 99);
  small.success_prob = ProbabilityVector(6, 0.6);
  small.requirements.lambda.resize(6);
  small.requirements.rho.assign(6, 0.8);
  const RunDigest run = expect_digest(small, expfw::dbdp_factory(), 150, 0xc29fef732dac3a5eULL);
  EXPECT_EQ(run.shared_clock_cells, 1U);
  EXPECT_GT(run.counters.channel_losses, 0U);
  EXPECT_EQ(run.counters.collisions, 0U);
}

TEST(DpBatchEquivalenceTest, MultiPairSwaps) {
  const RunDigest run = expect_digest(expfw::video_symmetric(0.55, 0.9, 21),
                                      expfw::dbdp_multipair_factory(3), 80, 0x4afbbba895b81ddeULL);
  EXPECT_EQ(run.shared_clock_cells, 1U);
  EXPECT_EQ(run.counters.collisions, 0U);
}

// ---- DCF and FCSMA, complete sensing ----------------------------------------

TEST(SharedBackoffClockTest, DcfVideoScenarioAcrossSeeds) {
  const std::uint64_t seeds[] = {1, 7, 1234};
  const std::uint64_t expected[] = {0xb438d71d93bf0245ULL, 0x307403bd90a77fa7ULL,
                                    0x4c942cefc9d296c6ULL};
  for (std::size_t i = 0; i < 3; ++i) {
    const RunDigest run = expect_digest(expfw::video_symmetric(0.55, 0.9, seeds[i]),
                                        expfw::dcf_factory(), 120, expected[i]);
    // DCF under bursty video load must actually collide (CW doubling and the
    // freeze/resume machinery are exercised, not idled past).
    EXPECT_EQ(run.shared_clock_cells, 1U);
    EXPECT_GT(run.counters.collisions, 0U);
    EXPECT_GT(run.counters.data_tx, 0U);
  }
}

TEST(SharedBackoffClockTest, DcfControlScenario) {
  // 10 links, Bernoulli arrivals, 2 ms deadline: short intervals hit the
  // deadline gap rule and the interval-boundary stop() often.
  const RunDigest run = expect_digest(expfw::control_symmetric(0.8, 0.9, 42),
                                      expfw::dcf_factory(), 200, 0x84e19bcb82951c0dULL);
  EXPECT_EQ(run.shared_clock_cells, 1U);
}

TEST(SharedBackoffClockTest, FcsmaVideoScenarioAcrossSeeds) {
  const std::uint64_t seeds[] = {3, 11, 4321};
  const std::uint64_t expected[] = {0xaaa47d183f8e304cULL, 0x227913299ccc9661ULL,
                                    0xd05deae2a19669a9ULL};
  for (std::size_t i = 0; i < 3; ++i) {
    const RunDigest run = expect_digest(expfw::video_symmetric(0.55, 0.9, seeds[i]),
                                        expfw::fcsma_factory(), 120, expected[i]);
    EXPECT_EQ(run.shared_clock_cells, 1U);
    EXPECT_GT(run.counters.data_tx, 0U);
  }
}

TEST(SharedBackoffClockTest, FcsmaControlScenario) {
  const RunDigest run = expect_digest(expfw::control_symmetric(0.8, 0.9, 77),
                                      expfw::fcsma_factory(), 200, 0x33e2a4bdd0e1caf3ULL);
  EXPECT_EQ(run.shared_clock_cells, 1U);
}

// ---- partial sensing: per-link engines on per-node sense views --------------

TEST(MacDigestTest, RingDbdp) {
  const RunDigest run = expect_digest(test::with_ring(expfw::video_symmetric(0.55, 0.9, 3)),
                                      expfw::dbdp_factory(), 60, 0x6f0c02d4c49a0f8cULL,
                                      /*traced=*/true);
  EXPECT_EQ(run.shared_clock_cells, 0U);
}

TEST(MacDigestTest, RingDcf) {
  const RunDigest run = expect_digest(test::with_ring(expfw::video_symmetric(0.55, 0.9, 5)),
                                      expfw::dcf_factory(), 60, 0x295511818aeb83f1ULL,
                                      /*traced=*/true);
  EXPECT_EQ(run.shared_clock_cells, 0U);
  EXPECT_GT(run.counters.collisions, 0U);
}

TEST(MacDigestTest, RingFcsma) {
  const RunDigest run = expect_digest(test::with_ring(expfw::video_symmetric(0.55, 0.9, 5)),
                                      expfw::fcsma_factory(), 60, 0xd8807029a46bae7cULL,
                                      /*traced=*/true);
  EXPECT_EQ(run.shared_clock_cells, 0U);
}

TEST(MacDigestTest, ChainCellsDcf) {
  const RunDigest run =
      expect_digest(chain_cells_config(13), expfw::dcf_factory(), 60, 0x17eddad08064f47ULL);
  EXPECT_EQ(run.cells, 8U);
  EXPECT_EQ(run.shared_clock_cells, 0U);  // every chain cell has cut links
  EXPECT_GT(run.counters.collisions, 0U);
}

TEST(MacDigestTest, ChainCellsFcsma) {
  const RunDigest run =
      expect_digest(chain_cells_config(13), expfw::fcsma_factory(), 60, 0x63265dc1334cfdacULL);
  EXPECT_EQ(run.cells, 8U);
  EXPECT_EQ(run.shared_clock_cells, 0U);  // every chain cell has cut links
  EXPECT_GT(run.counters.collisions, 0U);
}

}  // namespace
}  // namespace rtmac::mac
