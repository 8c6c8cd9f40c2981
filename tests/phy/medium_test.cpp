#include "phy/medium.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "helpers/static_medium.hpp"
#include "obs/metrics.hpp"
#include "sim/shard_barrier.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "util/thread_annotations.hpp"

namespace rtmac::phy {
namespace {

class RecordingListener final : public MediumListener {
 public:
  void on_medium_busy(TimePoint t) override { events.emplace_back('B', t.ns()); }
  void on_medium_idle(TimePoint t) override { events.emplace_back('I', t.ns()); }
  std::vector<std::pair<char, std::int64_t>> events;
};

TEST(MediumTest, StartsIdle) {
  sim::Simulator sim;
  Medium medium = test::static_medium(sim, {1.0}, 1);
  EXPECT_FALSE(medium.busy());
}

TEST(MediumTest, BusyDuringTransmission) {
  sim::Simulator sim;
  Medium medium = test::static_medium(sim, {1.0}, 1);
  bool done = false;
  sim.schedule_in(Duration{}, [&] {
    medium.start_transmission(0, Duration::microseconds(330), PacketKind::kData,
                              [&](TxOutcome o) {
                                done = true;
                                EXPECT_EQ(o, TxOutcome::kDelivered);
                              });
  });
  sim.run_until(TimePoint::origin() + Duration::microseconds(100));
  EXPECT_TRUE(medium.busy());
  sim.run();
  EXPECT_FALSE(medium.busy());
  EXPECT_TRUE(done);
}

TEST(MediumTest, ReliableChannelAlwaysDelivers) {
  sim::Simulator sim;
  Medium medium = test::static_medium(sim, {1.0}, 7);
  int delivered = 0;
  for (int i = 0; i < 50; ++i) {
    sim.schedule_in(Duration::microseconds(400 * i), [&] {
      medium.start_transmission(0, Duration::microseconds(330), PacketKind::kData,
                                [&](TxOutcome o) {
                                  if (o == TxOutcome::kDelivered) ++delivered;
                                });
    });
  }
  sim.run();
  EXPECT_EQ(delivered, 50);
  EXPECT_EQ(medium.counters().delivered, 50u);
  EXPECT_EQ(medium.counters().channel_losses, 0u);
}

TEST(MediumTest, UnreliableChannelLossRateMatchesP) {
  sim::Simulator sim;
  Medium medium = test::static_medium(sim, {0.7}, 42);
  int delivered = 0;
  constexpr int kTx = 20000;
  for (int i = 0; i < kTx; ++i) {
    sim.schedule_in(Duration::microseconds(10 * i), [&] {
      medium.start_transmission(0, Duration::microseconds(5), PacketKind::kData,
                                [&](TxOutcome o) {
                                  if (o == TxOutcome::kDelivered) ++delivered;
                                });
    });
  }
  sim.run();
  EXPECT_NEAR(static_cast<double>(delivered) / kTx, 0.7, 0.02);
}

TEST(MediumTest, OverlappingTransmissionsAllCollide) {
  sim::Simulator sim;
  Medium medium = test::static_medium(sim, {1.0, 1.0}, 3);
  std::vector<TxOutcome> outcomes;
  sim.schedule_in(Duration{}, [&] {
    medium.start_transmission(0, Duration::microseconds(100), PacketKind::kData,
                              [&](TxOutcome o) { outcomes.push_back(o); });
  });
  sim.schedule_in(Duration::microseconds(50), [&] {
    medium.start_transmission(1, Duration::microseconds(100), PacketKind::kData,
                              [&](TxOutcome o) { outcomes.push_back(o); });
  });
  sim.run();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0], TxOutcome::kCollision);
  EXPECT_EQ(outcomes[1], TxOutcome::kCollision);
  EXPECT_EQ(medium.counters().collisions, 2u);
}

TEST(MediumTest, BackToBackTransmissionsDoNotCollide) {
  sim::Simulator sim;
  Medium medium = test::static_medium(sim, {1.0}, 3);
  std::vector<TxOutcome> outcomes;
  sim.schedule_in(Duration{}, [&] {
    medium.start_transmission(0, Duration::microseconds(100), PacketKind::kData,
                              [&](TxOutcome o) {
                                outcomes.push_back(o);
                                // Chain the next packet with zero gap.
                                medium.start_transmission(
                                    0, Duration::microseconds(100), PacketKind::kData,
                                    [&](TxOutcome o2) { outcomes.push_back(o2); });
                              });
  });
  sim.run();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0], TxOutcome::kDelivered);
  EXPECT_EQ(outcomes[1], TxOutcome::kDelivered);
}

TEST(MediumTest, AdjacentTransmissionsDoNotCollide) {
  // A tx ending at t and another starting exactly at t must not overlap.
  sim::Simulator sim;
  Medium medium = test::static_medium(sim, {1.0, 1.0}, 3);
  std::vector<TxOutcome> outcomes;
  sim.schedule_in(Duration{}, [&] {
    medium.start_transmission(0, Duration::microseconds(100), PacketKind::kData,
                              [&](TxOutcome o) { outcomes.push_back(o); });
  });
  sim.schedule_in(Duration::microseconds(100), [&] {
    medium.start_transmission(1, Duration::microseconds(100), PacketKind::kData,
                              [&](TxOutcome o) { outcomes.push_back(o); });
  });
  sim.run();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0], TxOutcome::kDelivered);
  EXPECT_EQ(outcomes[1], TxOutcome::kDelivered);
}

TEST(MediumTest, ListenersSeeBusyIdleTransitions) {
  sim::Simulator sim;
  Medium medium = test::static_medium(sim, {1.0}, 3);
  RecordingListener listener;
  medium.add_listener(&listener);
  sim.schedule_in(Duration::microseconds(10), [&] {
    medium.start_transmission(0, Duration::microseconds(100), PacketKind::kData, nullptr);
  });
  sim.run();
  ASSERT_EQ(listener.events.size(), 2u);
  EXPECT_EQ(listener.events[0], std::make_pair('B', std::int64_t{10'000}));
  EXPECT_EQ(listener.events[1], std::make_pair('I', std::int64_t{110'000}));
}

TEST(MediumTest, NoDuplicateBusyOnBackToBackChain) {
  sim::Simulator sim;
  Medium medium = test::static_medium(sim, {1.0}, 3);
  RecordingListener listener;
  medium.add_listener(&listener);
  sim.schedule_in(Duration{}, [&] {
    medium.start_transmission(0, Duration::microseconds(50), PacketKind::kData,
                              [&](TxOutcome) {
                                medium.start_transmission(0, Duration::microseconds(50),
                                                          PacketKind::kData, nullptr);
                              });
  });
  sim.run();
  // One continuous busy period: exactly one B and one I.
  ASSERT_EQ(listener.events.size(), 2u);
  EXPECT_EQ(listener.events[0].first, 'B');
  EXPECT_EQ(listener.events[1].first, 'I');
  EXPECT_EQ(listener.events[1].second, 100'000);
}

TEST(MediumTest, EmptyPacketsAreNotSubjectToPayloadLoss) {
  sim::Simulator sim;
  Medium medium = test::static_medium(sim, {0.01}, 5);  // nearly-dead channel
  int delivered = 0;
  for (int i = 0; i < 200; ++i) {
    sim.schedule_in(Duration::microseconds(100 * i), [&] {
      medium.start_transmission(0, Duration::microseconds(70), PacketKind::kEmpty,
                                [&](TxOutcome o) {
                                  if (o == TxOutcome::kDelivered) ++delivered;
                                });
    });
  }
  sim.run();
  EXPECT_EQ(delivered, 200);  // clean empty packets always "succeed"
  EXPECT_EQ(medium.counters().empty_tx, 200u);
  EXPECT_EQ(medium.counters().data_tx, 0u);
}

TEST(MediumTest, CountersTrackBusyAndCollidedTime) {
  sim::Simulator sim;
  Medium medium = test::static_medium(sim, {1.0, 1.0}, 3);
  sim.schedule_in(Duration{}, [&] {
    medium.start_transmission(0, Duration::microseconds(100), PacketKind::kData, nullptr);
  });
  sim.schedule_in(Duration::microseconds(10), [&] {
    medium.start_transmission(1, Duration::microseconds(100), PacketKind::kData, nullptr);
  });
  sim.run();
  EXPECT_EQ(medium.counters().busy_time, Duration::microseconds(200));
  EXPECT_EQ(medium.counters().collided_time, Duration::microseconds(200));
}

TEST(MediumTest, PerLinkCountersTrackAttribution) {
  sim::Simulator sim;
  Medium medium = test::static_medium(sim, {1.0, 1.0}, 3);
  // Link 0 transmits twice (data), link 1 once (empty); no overlap.
  sim.schedule_in(Duration{}, [&] {
    medium.start_transmission(0, Duration::microseconds(100), PacketKind::kData, nullptr);
  });
  sim.schedule_in(Duration::microseconds(200), [&] {
    medium.start_transmission(0, Duration::microseconds(100), PacketKind::kData, nullptr);
  });
  sim.schedule_in(Duration::microseconds(400), [&] {
    medium.start_transmission(1, Duration::microseconds(70), PacketKind::kEmpty, nullptr);
  });
  sim.run();
  EXPECT_EQ(medium.link_counters(0).data_tx, 2u);
  EXPECT_EQ(medium.link_counters(0).delivered, 2u);
  EXPECT_EQ(medium.link_counters(0).airtime, Duration::microseconds(200));
  EXPECT_EQ(medium.link_counters(0).empty_tx, 0u);
  EXPECT_EQ(medium.link_counters(1).empty_tx, 1u);
  EXPECT_EQ(medium.link_counters(1).data_tx, 0u);
  EXPECT_EQ(medium.link_counters(1).airtime, Duration::microseconds(70));
}

TEST(MediumTest, PerLinkCollisionCounters) {
  sim::Simulator sim;
  Medium medium = test::static_medium(sim, {1.0, 1.0}, 3);
  sim.schedule_in(Duration{}, [&] {
    medium.start_transmission(0, Duration::microseconds(100), PacketKind::kData, nullptr);
  });
  sim.schedule_in(Duration::microseconds(10), [&] {
    medium.start_transmission(1, Duration::microseconds(100), PacketKind::kData, nullptr);
  });
  sim.run();
  EXPECT_EQ(medium.link_counters(0).collisions, 1u);
  EXPECT_EQ(medium.link_counters(1).collisions, 1u);
  EXPECT_EQ(medium.link_counters(0).delivered, 0u);
}

TEST(MediumTest, ThreeWayCollision) {
  sim::Simulator sim;
  Medium medium = test::static_medium(sim, {1.0, 1.0, 1.0}, 3);
  int collisions = 0;
  for (LinkId n = 0; n < 3; ++n) {
    sim.schedule_in(Duration::microseconds(n), [&, n] {
      medium.start_transmission(n, Duration::microseconds(50), PacketKind::kData,
                                [&](TxOutcome o) {
                                  if (o == TxOutcome::kCollision) ++collisions;
                                });
    });
  }
  sim.run();
  EXPECT_EQ(collisions, 3);
}

// ---- Interference topology --------------------------------------------------

/// 3 links where only 0 and 1 conflict (and sense each other); link 2 is
/// spatially independent of both.
InterferenceGraph pair_plus_independent() {
  return InterferenceGraph{SparseTopology{3, {{1}, {0}, {}}, {{1}, {0}, {}}}};
}

/// 2 links that conflict but cannot hear each other.
InterferenceGraph hidden_pair() {
  return InterferenceGraph{SparseTopology{2, {{1}, {0}}, {{}, {}}}};
}

TEST(MediumTopologyTest, OnlyConflictingLinksCollide) {
  sim::Simulator sim;
  Medium medium = test::static_medium(sim, {1.0, 1.0, 1.0}, pair_plus_independent(), 3);
  std::vector<TxOutcome> outcomes(3, TxOutcome::kDelivered);
  for (LinkId n = 0; n < 3; ++n) {
    sim.schedule_in(Duration::microseconds(n), [&, n] {
      medium.start_transmission(n, Duration::microseconds(50), PacketKind::kData,
                                [&, n](TxOutcome o) { outcomes[n] = o; });
    });
  }
  sim.run();
  // 0 and 1 overlap and conflict; 2 overlaps both but conflicts with neither.
  EXPECT_EQ(outcomes[0], TxOutcome::kCollision);
  EXPECT_EQ(outcomes[1], TxOutcome::kCollision);
  EXPECT_EQ(outcomes[2], TxOutcome::kDelivered);
  EXPECT_EQ(medium.counters().collisions, 2u);
}

TEST(MediumTopologyTest, HiddenTerminalsCollideDespiteNotSensing) {
  sim::Simulator sim;
  Medium medium = test::static_medium(sim, {1.0, 1.0}, hidden_pair(), 3);
  std::vector<TxOutcome> outcomes;
  sim.schedule_in(Duration{}, [&] {
    medium.start_transmission(0, Duration::microseconds(100), PacketKind::kData,
                              [&](TxOutcome o) { outcomes.push_back(o); });
  });
  sim.schedule_in(Duration::microseconds(50), [&] {
    // Node 1 cannot hear link 0's ongoing transmission...
    EXPECT_FALSE(medium.sense_busy(1));
    // ...but the global view can.
    EXPECT_TRUE(medium.busy());
    medium.start_transmission(1, Duration::microseconds(100), PacketKind::kData,
                              [&](TxOutcome o) { outcomes.push_back(o); });
  });
  sim.run();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0], TxOutcome::kCollision);
  EXPECT_EQ(outcomes[1], TxOutcome::kCollision);
}

TEST(MediumTopologyTest, AdjacentTransmissionsDoNotConflictOnPartialTopology) {
  // The half-open interval rule must hold on every topology: a packet
  // ending at t does not conflict with one starting at t, even between
  // hidden terminals that cannot defer to each other.
  sim::Simulator sim;
  Medium medium = test::static_medium(sim, {1.0, 1.0}, hidden_pair(), 3);
  std::vector<TxOutcome> outcomes;
  sim.schedule_in(Duration{}, [&] {
    medium.start_transmission(0, Duration::microseconds(100), PacketKind::kData,
                              [&](TxOutcome o) { outcomes.push_back(o); });
  });
  sim.schedule_in(Duration::microseconds(100), [&] {
    medium.start_transmission(1, Duration::microseconds(100), PacketKind::kData,
                              [&](TxOutcome o) { outcomes.push_back(o); });
  });
  sim.run();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0], TxOutcome::kDelivered);
  EXPECT_EQ(outcomes[1], TxOutcome::kDelivered);
  EXPECT_EQ(medium.counters().collisions, 0u);
}

TEST(MediumTopologyTest, PerNodeListenersOnlyHearSensedLinks) {
  sim::Simulator sim;
  Medium medium = test::static_medium(sim, {1.0, 1.0, 1.0}, pair_plus_independent(), 3);
  RecordingListener node0;
  RecordingListener node2;
  RecordingListener global;
  medium.add_listener(&node0, 0);
  medium.add_listener(&node2, 2);
  medium.add_listener(&global);
  sim.schedule_in(Duration::microseconds(10), [&] {
    medium.start_transmission(1, Duration::microseconds(100), PacketKind::kData, nullptr);
  });
  sim.run();
  // Node 0 senses link 1; node 2 does not; the global view always does.
  ASSERT_EQ(node0.events.size(), 2u);
  EXPECT_EQ(node0.events[0], std::make_pair('B', std::int64_t{10'000}));
  EXPECT_EQ(node0.events[1], std::make_pair('I', std::int64_t{110'000}));
  EXPECT_TRUE(node2.events.empty());
  ASSERT_EQ(global.events.size(), 2u);
}

TEST(MediumTopologyTest, SenseViewBusyPeriodsMergeAcrossSensedLinks) {
  // Links 0 and 1 transmit with a partial overlap: a node sensing both sees
  // one continuous busy period; a node sensing only link 1 sees a shorter
  // one.
  sim::Simulator sim;
  const InterferenceGraph graph{SparseTopology{3, {{}, {}, {}}, {{1}, {}, {}}}};
  Medium medium = test::static_medium(sim, {1.0, 1.0, 1.0}, graph, 3);
  RecordingListener node0;   // senses links 0 and 1
  RecordingListener node1;   // senses only link 1
  medium.add_listener(&node0, 0);
  medium.add_listener(&node1, 1);
  sim.schedule_in(Duration{}, [&] {
    medium.start_transmission(0, Duration::microseconds(100), PacketKind::kData, nullptr);
  });
  sim.schedule_in(Duration::microseconds(50), [&] {
    medium.start_transmission(1, Duration::microseconds(100), PacketKind::kData, nullptr);
  });
  sim.run();
  ASSERT_EQ(node0.events.size(), 2u);
  EXPECT_EQ(node0.events[0], std::make_pair('B', std::int64_t{0}));
  EXPECT_EQ(node0.events[1], std::make_pair('I', std::int64_t{150'000}));
  ASSERT_EQ(node1.events.size(), 2u);
  EXPECT_EQ(node1.events[0], std::make_pair('B', std::int64_t{50'000}));
  EXPECT_EQ(node1.events[1], std::make_pair('I', std::int64_t{150'000}));
  EXPECT_EQ(medium.sense_busy_time(0), Duration::microseconds(150));
  EXPECT_EQ(medium.sense_busy_time(1), Duration::microseconds(100));
  EXPECT_EQ(medium.sense_busy_time(Medium::kAllNodes), Duration::microseconds(150));
}

TEST(MediumTopologyTest, CollisionPairCountsTrackPartners) {
  sim::Simulator sim;
  Medium medium = test::static_medium(sim, {1.0, 1.0, 1.0}, InterferenceGraph::complete(3), 3);
  // Two separate collision events: (0,1) then (0,2).
  sim.schedule_in(Duration{}, [&] {
    medium.start_transmission(0, Duration::microseconds(50), PacketKind::kData, nullptr);
  });
  sim.schedule_in(Duration::microseconds(10), [&] {
    medium.start_transmission(1, Duration::microseconds(40), PacketKind::kData, nullptr);
  });
  sim.schedule_in(Duration::microseconds(100), [&] {
    medium.start_transmission(0, Duration::microseconds(50), PacketKind::kData, nullptr);
  });
  sim.schedule_in(Duration::microseconds(110), [&] {
    medium.start_transmission(2, Duration::microseconds(40), PacketKind::kData, nullptr);
  });
  sim.run();
  EXPECT_EQ(medium.collision_pair_count(0, 1), 1u);
  EXPECT_EQ(medium.collision_pair_count(1, 0), 1u);
  EXPECT_EQ(medium.collision_pair_count(0, 2), 1u);
  EXPECT_EQ(medium.collision_pair_count(1, 2), 0u);
  EXPECT_EQ(medium.collision_pair_count(0, 0), 0u);
}

TEST(MediumTopologyTest, CompleteTopologyCtorMatchesDefault) {
  // The explicit complete graph is the paper's model: every overlap
  // collides and every node senses every link.
  sim::Simulator sim;
  Medium medium = test::static_medium(sim, {1.0, 1.0}, InterferenceGraph::complete(2), 3);
  EXPECT_TRUE(medium.topology().is_complete());
  std::vector<TxOutcome> outcomes;
  sim.schedule_in(Duration{}, [&] {
    medium.start_transmission(0, Duration::microseconds(100), PacketKind::kData,
                              [&](TxOutcome o) { outcomes.push_back(o); });
  });
  sim.schedule_in(Duration::microseconds(50), [&] {
    EXPECT_TRUE(medium.sense_busy(1));
    medium.start_transmission(1, Duration::microseconds(100), PacketKind::kData,
                              [&](TxOutcome o) { outcomes.push_back(o); });
  });
  sim.run();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0], TxOutcome::kCollision);
  EXPECT_EQ(outcomes[1], TxOutcome::kCollision);
}

// ---- One lifecycle: burst path and remote edges ------------------------------

/// A Medium with every observer attached: a global listener, a tracer and
/// a metrics registry (the busy-period and delivery-latency sketches).
struct ObservedMedium {
  sim::Simulator sim;
  Medium medium = test::static_medium(sim, {0.6, 0.6}, 9);
  RecordingListener listener;
  sim::Tracer tracer;
  obs::MetricsRegistry registry;
  std::vector<TxOutcome> outcomes;

  ObservedMedium() {
    medium.add_listener(&listener);
    medium.set_tracer(&tracer);
    medium.set_metrics(&registry);
    medium.note_interval_start(TimePoint::origin());
  }
  [[nodiscard]] std::string exported() const {
    std::ostringstream out;
    registry.write_jsonl(out);
    return out.str();
  }
};

struct ChainPacket {
  Duration airtime;
  PacketKind kind;
};

/// Long enough that the lossy channel both delivers and loses.
const std::vector<ChainPacket> kChain = {
    {Duration::microseconds(100), PacketKind::kData},
    {Duration::microseconds(100), PacketKind::kData},
    {Duration::microseconds(100), PacketKind::kData},
    {Duration::microseconds(100), PacketKind::kData},
    {Duration::microseconds(100), PacketKind::kData},
    {Duration::microseconds(100), PacketKind::kData},
    {Duration::microseconds(30), PacketKind::kEmpty},
};

/// Sends kChain[i..] back to back on link 0 through per-event completions.
void send_event_chain(ObservedMedium& m, std::size_t i) {
  m.medium.start_transmission(0, kChain[i].airtime, kChain[i].kind, [&m, i](TxOutcome o) {
    m.outcomes.push_back(o);
    if (i + 1 < kChain.size()) send_event_chain(m, i + 1);
  });
}

TEST(MediumTest, BurstMatchesEventChain) {
  ObservedMedium event;
  event.sim.schedule_in(Duration::microseconds(10), [&] { send_event_chain(event, 0); });
  event.sim.run();

  ObservedMedium burst;
  burst.sim.schedule_in(Duration::microseconds(10), [&] {
    ASSERT_TRUE(burst.medium.burst_available());
    burst.medium.begin_burst(0);
    TimePoint t = burst.sim.now();
    for (const ChainPacket& packet : kChain) {
      burst.outcomes.push_back(burst.medium.burst_tx(0, t, packet.airtime, packet.kind));
      t += packet.airtime;
    }
    burst.medium.end_burst(t);
  });
  burst.sim.run();

  EXPECT_EQ(burst.outcomes, event.outcomes);
  EXPECT_NE(std::count(event.outcomes.begin(), event.outcomes.end(), TxOutcome::kChannelLoss),
            0);
  const MediumCounters& b = burst.medium.counters();
  const MediumCounters& e = event.medium.counters();
  EXPECT_EQ(b.data_tx, e.data_tx);
  EXPECT_EQ(b.empty_tx, e.empty_tx);
  EXPECT_EQ(b.delivered, e.delivered);
  EXPECT_EQ(b.channel_losses, e.channel_losses);
  EXPECT_EQ(b.collisions, e.collisions);
  EXPECT_EQ(b.busy_time, e.busy_time);
  EXPECT_EQ(b.collided_time, e.collided_time);
  for (LinkId link = 0; link < 2; ++link) {
    const LinkCounters& bl = burst.medium.link_counters(link);
    const LinkCounters& el = event.medium.link_counters(link);
    EXPECT_EQ(bl.data_tx, el.data_tx);
    EXPECT_EQ(bl.empty_tx, el.empty_tx);
    EXPECT_EQ(bl.delivered, el.delivered);
    EXPECT_EQ(bl.collisions, el.collisions);
    EXPECT_EQ(bl.airtime, el.airtime);
    EXPECT_EQ(burst.medium.sense_busy_time(link), event.medium.sense_busy_time(link));
  }
  EXPECT_EQ(burst.medium.sense_busy_time(Medium::kAllNodes), Duration::microseconds(630));
  EXPECT_EQ(event.medium.sense_busy_time(Medium::kAllNodes), Duration::microseconds(630));
  // One busy period, with the per-event path's edge timestamps.
  ASSERT_EQ(event.listener.events.size(), 2u);
  EXPECT_EQ(event.listener.events[0], std::make_pair('B', std::int64_t{10'000}));
  EXPECT_EQ(event.listener.events[1], std::make_pair('I', std::int64_t{640'000}));
  EXPECT_EQ(burst.listener.events, event.listener.events);
  EXPECT_EQ(burst.tracer.render(), event.tracer.render());
  EXPECT_EQ(event.tracer.count(sim::TraceKind::kTxEnd), kChain.size());
  const std::string exported = event.exported();
  EXPECT_NE(exported.find("\"name\":\"phy.busy_period_us\""), std::string::npos);
  EXPECT_NE(exported.find("\"name\":\"phy.delivery_latency_us\""), std::string::npos);
  EXPECT_EQ(burst.exported(), exported);
}

TEST(MediumTopologyTest, RemoteBusyPeriodMergesWithLocalTransmission) {
  // Shard mode: node 0 also senses the remote link 7 of a neighbour cell.
  // Each phantom busy period overlaps a local transmission node 0 senses;
  // node 0's listener must see one merged period per overlap.
  sim::Simulator sim;
  const InterferenceGraph deaf{SparseTopology{2, {{}, {}}, {{}, {}}}};
  Medium medium = test::static_medium(sim, {1.0, 1.0}, deaf, 3);
  ShardMediumConfig config;
  config.global_ids = {0, 1};
  config.conflict_cut = {0, 0};
  config.exported = {0, 0};
  medium.configure_shard(std::move(config));  // lint-ok: shard-isolation remote-edge unit test
  medium.register_remote_sense(7, {0});       // lint-ok: shard-isolation remote-edge unit test
  RecordingListener node0;
  RecordingListener node1;
  RecordingListener global;
  medium.add_listener(&node0, 0);
  medium.add_listener(&node1, 1);
  medium.add_listener(&global);
  const auto at = [](int us) { return TimePoint::origin() + Duration::microseconds(us); };
  {
    const util::PhantomLock barrier{sim::shard_barrier};
    // Starts inside the local [0, 100) and outlasts it; then covers the
    // local [250, 300) entirely.
    medium.inject_remote_activity(7, at(50), at(150));   // lint-ok: shard-isolation unit test
    medium.inject_remote_activity(7, at(200), at(400));  // lint-ok: shard-isolation unit test
  }
  sim.schedule_in(Duration{}, [&] {
    medium.start_transmission(0, Duration::microseconds(100), PacketKind::kData, nullptr);
  });
  sim.schedule_in(Duration::microseconds(250), [&] {
    medium.start_transmission(0, Duration::microseconds(50), PacketKind::kData, nullptr);
  });
  sim.run();
  using Edge = std::pair<char, std::int64_t>;
  EXPECT_EQ(node0.events,
            (std::vector<Edge>{{'B', 0}, {'I', 150'000}, {'B', 200'000}, {'I', 400'000}}));
  EXPECT_EQ(medium.sense_busy_time(0), Duration::microseconds(350));
  EXPECT_TRUE(node1.events.empty());
  EXPECT_EQ(medium.sense_busy_time(1), Duration{});
  // Remote activity never reaches the global (local-transmission) view.
  EXPECT_EQ(global.events,
            (std::vector<Edge>{{'B', 0}, {'I', 100'000}, {'B', 250'000}, {'I', 300'000}}));
}

// ---- Listener re-entrancy enforcement ---------------------------------------

class TransmitOnBusyListener final : public MediumListener {
 public:
  explicit TransmitOnBusyListener(Medium& medium) : medium_{medium} {}
  void on_medium_busy(TimePoint) override {
    medium_.start_transmission(1, Duration::microseconds(10), PacketKind::kData, nullptr);
  }
  void on_medium_idle(TimePoint) override {}

 private:
  Medium& medium_;
};

void transmit_synchronously_from_listener() {
  sim::Simulator sim;
  Medium medium = test::static_medium(sim, {1.0, 1.0}, 1);
  TransmitOnBusyListener bad{medium};
  medium.add_listener(&bad);
  sim.schedule_in(Duration{}, [&] {
    medium.start_transmission(0, Duration::microseconds(100), PacketKind::kData, nullptr);
  });
  sim.run();
}

TEST(MediumDeathTest, SynchronousTransmitFromListenerAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(transmit_synchronously_from_listener(),
               "called synchronously from a MediumListener callback");
}

}  // namespace
}  // namespace rtmac::phy
