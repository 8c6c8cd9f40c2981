// Tests for the SharedBackoffClock of the DCF and FCSMA baselines.
//
// On a complete-sensing collision domain both schemes replace N per-link
// BackoffEngines with ONE shared slot clock; any other topology keeps one
// engine per link on its own sense view. The shared clock must reproduce the
// engines bit for bit — same expiry instants, same tie order, same trace and
// freeze records — because tie order decides collisions and the order of
// draws from the domain's shared channel-loss stream. The first group drives
// one domain through scripted tie shapes on both clocks; the differential
// test runs whole networks of disjoint cliques both ways; the layout tests
// check which clock a topology selects and what it declares.
#include "mac/shared_backoff_clock.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "expfw/scenarios.hpp"
#include "helpers/ring_topology.hpp"
#include "helpers/static_medium.hpp"
#include "mac/backoff_engine.hpp"
#include "mac/dcf_mac.hpp"
#include "mac/fcsma_mac.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

namespace rtmac::mac {
namespace {

constexpr auto kSlot = Duration::microseconds(9);

/// One complete domain's scripted contention. At time 0 the links in
/// `arm_order` arm with the first count of their script; a link's expiry
/// starts a transmission of its own airtime, and the outcome callback arms
/// the link's next count, if any.
struct Script {
  std::vector<LinkId> arm_order;
  std::vector<std::vector<int>> counts;  ///< per link, in arm order
  std::vector<Duration> airtime;         ///< per link
  double p = 1.0;                        ///< channel success probability
};

/// Everything a clock's behaviour can show: expiries, transmission outcomes
/// (collisions, and which completion drew which loss), trace records and
/// the freeze metrics.
struct Observed {
  std::vector<std::tuple<std::int64_t, int, LinkId, int>> events;  // (t, what, link, outcome)
  std::vector<std::tuple<std::int64_t, int, std::int64_t>> trace;  // (t, kind, a)
  std::uint64_t freeze_ns = 0;
  std::vector<std::uint64_t> freeze_hist;
};

/// Runs `script` on the shared clock (`shared`) or on one BackoffEngine per
/// link, built in link order on each link's own sense view as ClockArm
/// builds them.
Observed run_script(const Script& script, bool shared) {
  const std::size_t n = script.airtime.size();
  sim::Simulator sim;
  phy::Medium medium = test::static_medium(sim, ProbabilityVector(n, script.p), 7);
  sim::Tracer tracer{0};
  obs::MetricsRegistry registry;
  medium.set_tracer(&tracer);
  medium.set_metrics(&registry);

  Observed seen;
  std::vector<std::size_t> next(n, 0);
  std::function<void(LinkId)> arm;
  const auto on_done = [&](LinkId l, phy::TxOutcome o) {
    seen.events.emplace_back(sim.now().ns(), 1, l, static_cast<int>(o));
    if (next[l] < script.counts[l].size()) arm(l);
  };
  const auto on_expire = [&](LinkId l) {
    seen.events.emplace_back(sim.now().ns(), 0, l, 0);
    medium.start_transmission(l, script.airtime[l], phy::PacketKind::kData,
                              [&on_done, l](phy::TxOutcome o) { on_done(l, o); });
  };

  std::unique_ptr<SharedBackoffClock> clock;
  std::vector<std::unique_ptr<BackoffEngine>> engines;
  if (shared) {
    clock = std::make_unique<SharedBackoffClock>(sim, medium, kSlot, n,
                                                 [&on_expire](LinkId l) { on_expire(l); });
    arm = [&](LinkId l) { clock->arm(l, script.counts[l][next[l]++]); };
  } else {
    for (LinkId l = 0; l < n; ++l) {
      engines.push_back(std::make_unique<BackoffEngine>(sim, medium, kSlot, l));
    }
    arm = [&](LinkId l) {
      engines[l]->start(script.counts[l][next[l]++], [&on_expire, l] { on_expire(l); });
    };
  }
  sim.schedule_in(Duration{}, [&] {
    if (clock) clock->begin_interval(sim.now());
    for (const LinkId l : script.arm_order) arm(l);
    if (clock) clock->finish_arming();
  });
  sim.run_until(TimePoint::origin() + Duration::milliseconds(100));

  for (const sim::TraceEvent& e : tracer.events()) {
    seen.trace.emplace_back(e.time.ns(), static_cast<int>(e.kind), e.a);
  }
  seen.freeze_ns = registry.counter("mac.freeze_ns").value();
  seen.freeze_hist =
      registry.histogram("mac.backoff_freeze_us", obs::log_bounds(1.0, 65536.0, 2.0))
          .bucket_counts();
  return seen;
}

/// Runs `script` on both clocks and requires identical observations.
void expect_same_on_both_clocks(const Script& script) {
  const Observed engines = run_script(script, /*shared=*/false);
  const Observed shared = run_script(script, /*shared=*/true);
  ASSERT_FALSE(engines.events.empty());
  EXPECT_EQ(shared.events, engines.events);
  EXPECT_EQ(shared.trace, engines.trace);
  EXPECT_EQ(shared.freeze_ns, engines.freeze_ns);
  EXPECT_EQ(shared.freeze_hist, engines.freeze_hist);
}

constexpr auto kShort = Duration::microseconds(40);
constexpr auto kLong = Duration::microseconds(120);

TEST(SharedBackoffClockTest, TiesAfterTheArmLoopFireInArmOrder) {
  // Four links armed out of link order with one count: they expire in arm
  // order and collide. All four complete at once, so three re-arm frozen
  // and the last completion's link re-arms live — ties again, live first.
  Script s;
  s.arm_order = {2, 0, 3, 1};
  s.counts = {{3, 1, 0}, {3, 1, 2}, {3, 1}, {3, 1, 2}};
  s.airtime = {kShort, kShort, kShort, kShort};
  expect_same_on_both_clocks(s);
}

TEST(SharedBackoffClockTest, ZeroCountArmDuringBusyPeriodFiresAtTheResume) {
  // Links 0 and 1 collide; link 0 finishes first, while link 1 still keeps
  // the medium busy, and re-arms with count 0. It may not fire before the
  // medium goes idle, and then ties link 1's live count-0 re-arm.
  Script s;
  s.arm_order = {0, 1, 2};
  s.counts = {{2, 0, 0}, {2, 0, 1}, {5, 2}};
  s.airtime = {kShort, kLong, kShort};
  expect_same_on_both_clocks(s);
}

TEST(SharedBackoffClockTest, LiveArmAtLastCompletionPrecedesFrozenLowerLink) {
  // Link 0 is frozen with 5 slots left while link 2 transmits; link 2
  // re-arms live at its completion with 5. Per-link engines scheduled link
  // 2's event before the idle sweep resumed link 0, so link 2 goes first.
  Script s;
  s.arm_order = {0, 1, 2};
  s.counts = {{6, 3}, {9}, {1, 5, 0}};
  s.airtime = {kShort, kShort, kLong};
  expect_same_on_both_clocks(s);
}

TEST(SharedBackoffClockTest, SameInstantTieAtBusyEdgeFiresIntoTheCollision) {
  // Links 0 and 2 reach zero in the same slot: the first to fire turns the
  // medium busy, and the second must still fire at that instant (the
  // per-link count_after <= 0 rule) while link 1 freezes.
  Script s;
  s.arm_order = {2, 1, 0};
  s.counts = {{3, 2}, {5, 4}, {3, 2}};
  s.airtime = {kLong, kShort, kShort};
  expect_same_on_both_clocks(s);
}

TEST(SharedBackoffClockTest, RandomScriptsMatchPerLinkEngines) {
  // Tiny windows make ties the common case; mixed airtimes make non-final
  // completions (frozen re-arms) common too; lossy links make tie order
  // visible in the shared loss stream.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng{seed, 0x5C41E7ULL};
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 9));
    Script s;
    s.p = 0.6;
    for (LinkId l = 0; l < n; ++l) {
      s.arm_order.push_back(l);
      s.airtime.push_back(static_cast<int>(rng.uniform_int(1, 3)) * kShort);
      s.counts.emplace_back();
      for (int k = static_cast<int>(rng.uniform_int(1, 5)); k > 0; --k) {
        s.counts.back().push_back(static_cast<int>(rng.uniform_int(0, 3)));
      }
    }
    for (std::size_t i = n; i > 1; --i) {
      const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(s.arm_order[i - 1], s.arm_order[j]);
    }
    SCOPED_TRACE(seed);
    expect_same_on_both_clocks(s);
  }
}

// ---- networks of disjoint cliques: per-link engines vs shared clocks ---------

/// Per-link results, Medium counters, collision pairs and freeze metrics of
/// one run.
struct NetworkObserved {
  std::vector<std::uint64_t> delivered;
  std::vector<double> debts;
  std::vector<std::uint64_t> counters;
  std::vector<std::tuple<LinkId, LinkId, std::uint64_t>> collision_pairs;
  std::uint64_t freeze_ns = 0;
  std::vector<std::uint64_t> freeze_hist;
};

NetworkObserved run_cliques(const net::NetworkConfig& cfg, const SchemeFactory& factory,
                            std::size_t shards) {
  net::NetworkConfig run_cfg = cfg.clone();
  run_cfg.shards = shards;
  run_cfg.shard_jobs = 1;
  net::Network net{std::move(run_cfg), factory};
  obs::MetricsRegistry registry;
  net.attach_metrics(&registry);
  net.run(12);
  net.attach_metrics(nullptr);
  obs::MetricsRegistry merged;
  net.merge_cell_metrics_into(merged);
  obs::MetricsRegistry& metrics = net.cell_count() == 1 ? registry : merged;

  NetworkObserved seen;
  for (LinkId l = 0; l < cfg.num_links(); ++l) {
    seen.delivered.push_back(net.stats().total_delivered(l));
    seen.debts.push_back(net.debts().debt(l));
  }
  const phy::MediumCounters c = net.medium_counters();
  seen.counters = {c.data_tx, c.empty_tx, c.delivered, c.channel_losses, c.collisions,
                   static_cast<std::uint64_t>(c.busy_time.ns())};
  net.for_each_collision_pair([&seen](LinkId a, LinkId b, std::uint64_t count) {
    seen.collision_pairs.emplace_back(a, b, count);
  });
  std::sort(seen.collision_pairs.begin(), seen.collision_pairs.end());
  seen.freeze_ns = metrics.counter("mac.freeze_ns").value();
  seen.freeze_hist =
      metrics.histogram("mac.backoff_freeze_us", obs::log_bounds(1.0, 65536.0, 2.0))
          .bucket_counts();
  return seen;
}

TEST(SharedBackoffClockTest, DisjointCliquesMatchPerLinkEnginesAcrossSeeds) {
  // At shards = 0 the whole network is one partial-sensing cell, so every
  // link counts down on its own BackoffEngine; at shards = cliques each
  // clique is a complete cell on one SharedBackoffClock. Both window rules
  // start at the smallest window their parameters accept (1), so ties and
  // collisions are frequent.
  const SchemeFactory dcf = [](const SchemeContext& ctx) {
    return std::make_unique<DcfScheme>(ctx, DcfParams{.cw_min = 1, .cw_max = 4}, "DCF");
  };
  const SchemeFactory fcsma = expfw::fcsma_factory(FcsmaParams{.window_sizes = {3, 2, 1}});
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng{seed, 0xC11C0E5ULL};
    const auto cliques = static_cast<std::size_t>(rng.uniform_int(2, 3));
    phy::SparseTopology topo;
    std::size_t first = 0;
    for (std::size_t c = 0; c < cliques; ++c) {
      const auto size = static_cast<std::size_t>(rng.uniform_int(2, 24));
      topo.conflict.resize(first + size);
      topo.sense.resize(first + size);
      for (std::size_t a = first; a < first + size; ++a) {
        for (std::size_t b = first; b < first + size; ++b) {
          if (a == b) continue;
          topo.conflict[a].push_back(static_cast<LinkId>(b));
          topo.sense[a].push_back(static_cast<LinkId>(b));
        }
      }
      first += size;
    }
    topo.num_links = first;
    const net::NetworkConfig cfg = expfw::with_sparse_topology(
        net::symmetric_network(first, Duration::milliseconds(2),
                               phy::PhyParams::control_80211a(), 0.7,
                               traffic::UniformBurstyArrivals{0.3}, 0.9, seed),
        std::move(topo));
    const std::pair<const char*, SchemeFactory> schemes[] = {{"DCF", dcf}, {"FCSMA", fcsma}};
    for (const auto& [name, factory] : schemes) {
      SCOPED_TRACE(testing::Message() << name << " seed " << seed << " cliques " << cliques);
      const NetworkObserved engines = run_cliques(cfg, factory, 0);
      const NetworkObserved shared = run_cliques(cfg, factory, cliques);
      ASSERT_GT(engines.counters[4], 0U) << "no collisions: the run exercises no ties";
      EXPECT_EQ(shared.delivered, engines.delivered);
      EXPECT_EQ(shared.debts, engines.debts);
      EXPECT_EQ(shared.counters, engines.counters);
      EXPECT_EQ(shared.collision_pairs, engines.collision_pairs);
      EXPECT_EQ(shared.freeze_ns, engines.freeze_ns);
      EXPECT_EQ(shared.freeze_hist, engines.freeze_hist);
    }
  }
}

// ---- clock choice ------------------------------------------------------------

TEST(SharedBackoffClockTest, PartialSensingFallsBackToScalar) {
  // The shared clock must refuse a partial-sensing topology and arm one
  // engine per link instead.
  net::Network net{test::with_ring(expfw::video_symmetric(0.55, 0.9, 5)),
                   expfw::dcf_factory()};
  net.run(20);
  const auto* dcf = dynamic_cast<const DcfScheme*>(&net.scheme());
  ASSERT_NE(dcf, nullptr);
  EXPECT_FALSE(dcf->batch_path());
}

TEST(SharedBackoffClockTest, BatchPathDeclaresTighterEventBound) {
  // The per-cell event reserve keys off this declaration; a shared-clock
  // scheme regressing to the conservative bound would silently re-inflate
  // the 10^6-link memory footprint (the phase-3 RSS ceiling in
  // bench/city_scale).
  net::Network net{expfw::video_symmetric(0.55, 0.9, 2), expfw::dcf_factory()};
  EXPECT_EQ(net.scheme().pending_events_per_link(), 1u);
  net::Network ring_net{test::with_ring(expfw::video_symmetric(0.55, 0.9, 2)),
                        expfw::dcf_factory()};
  EXPECT_EQ(ring_net.scheme().pending_events_per_link(), 6u);
}

}  // namespace
}  // namespace rtmac::mac
