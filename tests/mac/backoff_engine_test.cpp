#include "mac/backoff_engine.hpp"

#include <gtest/gtest.h>

#include "helpers/static_medium.hpp"
#include "phy/medium.hpp"
#include "sim/simulator.hpp"

namespace rtmac::mac {
namespace {

constexpr auto kSlot = Duration::microseconds(9);

struct Fixture {
  sim::Simulator sim;
  phy::Medium medium = test::static_medium(sim, {1.0, 1.0, 1.0}, 99);
};

TEST(BackoffEngineTest, ExpiresAfterCountSlotsOnIdleMedium) {
  Fixture f;
  BackoffEngine engine{f.sim, f.medium, kSlot};
  TimePoint fired_at;
  bool fired = false;
  f.sim.schedule_in(Duration{}, [&] {
    engine.start(5, [&] {
      fired = true;
      fired_at = f.sim.now();
    });
  });
  f.sim.run();
  EXPECT_TRUE(fired);
  EXPECT_TRUE(engine.expired());
  EXPECT_EQ(fired_at, TimePoint::origin() + 5 * kSlot);
}

TEST(BackoffEngineTest, ZeroCountExpiresImmediatelyViaEventHop) {
  Fixture f;
  BackoffEngine engine{f.sim, f.medium, kSlot};
  bool fired = false;
  f.sim.schedule_in(Duration::microseconds(100), [&] {
    engine.start(0, [&] {
      fired = true;
      EXPECT_EQ(f.sim.now().ns(), 100'000);
    });
    EXPECT_FALSE(fired);  // not synchronous
  });
  f.sim.run();
  EXPECT_TRUE(fired);
}

TEST(BackoffEngineTest, FreezesDuringBusyAndResumesAfter) {
  Fixture f;
  BackoffEngine engine{f.sim, f.medium, kSlot};
  TimePoint fired_at;
  f.sim.schedule_in(Duration{}, [&] {
    engine.start(5, [&] { fired_at = f.sim.now(); });
  });
  // Busy period starting after 2 full slots, lasting 100us.
  f.sim.schedule_in(2 * kSlot, [&] {
    f.medium.start_transmission(1, Duration::microseconds(100), phy::PacketKind::kData,
                                nullptr);
  });
  f.sim.run();
  // 2 slots counted, freeze for 100us, then 3 remaining slots.
  EXPECT_EQ(fired_at, TimePoint::origin() + 2 * kSlot + Duration::microseconds(100) + 3 * kSlot);
  EXPECT_TRUE(engine.was_frozen_at(3));
  EXPECT_FALSE(engine.was_frozen_at(2));
}

TEST(BackoffEngineTest, PartialSlotProgressIsDiscarded) {
  Fixture f;
  BackoffEngine engine{f.sim, f.medium, kSlot};
  TimePoint fired_at;
  f.sim.schedule_in(Duration{}, [&] {
    engine.start(4, [&] { fired_at = f.sim.now(); });
  });
  // Busy arrives 2.5 slots in: only 2 full slots count.
  const Duration busy_at = 2 * kSlot + Duration::from_us_f(4.5);
  f.sim.schedule_in(busy_at, [&] {
    f.medium.start_transmission(1, Duration::microseconds(50), phy::PacketKind::kData, nullptr);
  });
  f.sim.run();
  EXPECT_EQ(fired_at,
            TimePoint::origin() + busy_at + Duration::microseconds(50) + 2 * kSlot);
}

TEST(BackoffEngineTest, MultipleFreezesAccumulateRecords) {
  Fixture f;
  BackoffEngine engine{f.sim, f.medium, kSlot};
  f.sim.schedule_in(Duration{}, [&] { engine.start(6, nullptr); });
  f.sim.schedule_in(2 * kSlot, [&] {
    f.medium.start_transmission(1, Duration::microseconds(20), phy::PacketKind::kData, nullptr);
  });
  f.sim.schedule_in(2 * kSlot + Duration::microseconds(20) + 3 * kSlot, [&] {
    f.medium.start_transmission(2, Duration::microseconds(20), phy::PacketKind::kData, nullptr);
  });
  f.sim.run();
  EXPECT_TRUE(engine.was_frozen_at(4));
  EXPECT_TRUE(engine.was_frozen_at(1));
  EXPECT_FALSE(engine.was_frozen_at(3));
}

TEST(BackoffEngineTest, StartWhileBusyWaitsForIdle) {
  Fixture f;
  BackoffEngine engine{f.sim, f.medium, kSlot};
  TimePoint fired_at;
  f.sim.schedule_in(Duration{}, [&] {
    f.medium.start_transmission(1, Duration::microseconds(90), phy::PacketKind::kData, nullptr);
  });
  f.sim.schedule_in(Duration::microseconds(10), [&] {
    engine.start(2, [&] { fired_at = f.sim.now(); });
    EXPECT_EQ(engine.remaining(), 2);
  });
  f.sim.run();
  EXPECT_EQ(fired_at, TimePoint::origin() + Duration::microseconds(90) + 2 * kSlot);
}

TEST(BackoffEngineTest, StopCancelsExpiry) {
  Fixture f;
  BackoffEngine engine{f.sim, f.medium, kSlot};
  bool fired = false;
  f.sim.schedule_in(Duration{}, [&] { engine.start(3, [&] { fired = true; }); });
  f.sim.schedule_in(kSlot, [&] { engine.stop(); });
  f.sim.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(engine.running());
  EXPECT_FALSE(engine.expired());
}

TEST(BackoffEngineTest, RestartResetsFreezeRecords) {
  Fixture f;
  BackoffEngine engine{f.sim, f.medium, kSlot};
  f.sim.schedule_in(Duration{}, [&] { engine.start(3, nullptr); });
  f.sim.schedule_in(kSlot, [&] {
    f.medium.start_transmission(1, Duration::microseconds(10), phy::PacketKind::kData, nullptr);
  });
  f.sim.run();
  EXPECT_TRUE(engine.was_frozen_at(2));
  engine.start(1, nullptr);
  EXPECT_FALSE(engine.was_frozen_at(2));
  engine.stop();
}

TEST(BackoffEngineTest, SimultaneousExpiryBothFire) {
  // Two engines with equal counts reach zero in the same slot: both expire
  // (and in a CSMA MAC would collide) — neither may swallow the other.
  Fixture f;
  BackoffEngine e1{f.sim, f.medium, kSlot};
  BackoffEngine e2{f.sim, f.medium, kSlot};
  int fired = 0;
  f.sim.schedule_in(Duration{}, [&] {
    e1.start(3, [&] {
      ++fired;
      f.medium.start_transmission(0, Duration::microseconds(30), phy::PacketKind::kData,
                                  nullptr);
    });
    e2.start(3, [&] {
      ++fired;
      f.medium.start_transmission(1, Duration::microseconds(30), phy::PacketKind::kData,
                                  nullptr);
    });
  });
  f.sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(f.medium.counters().collisions, 2u);
}

TEST(BackoffEngineTest, StaggeredCountsDoNotCollide) {
  Fixture f;
  BackoffEngine e1{f.sim, f.medium, kSlot};
  BackoffEngine e2{f.sim, f.medium, kSlot};
  f.sim.schedule_in(Duration{}, [&] {
    e1.start(1, [&] {
      f.medium.start_transmission(0, Duration::microseconds(30), phy::PacketKind::kData,
                                  nullptr);
    });
    e2.start(2, [&] {
      f.medium.start_transmission(1, Duration::microseconds(30), phy::PacketKind::kData,
                                  nullptr);
    });
  });
  f.sim.run();
  EXPECT_EQ(f.medium.counters().collisions, 0u);
  EXPECT_EQ(f.medium.counters().data_tx, 2u);
  // e2 froze while waiting for e1's transmission with one slot left.
  EXPECT_TRUE(e2.was_frozen_at(1));
}

TEST(BackoffEngineTest, RemainingReportsLiveCountdown) {
  Fixture f;
  BackoffEngine engine{f.sim, f.medium, kSlot};
  f.sim.schedule_in(Duration{}, [&] { engine.start(5, nullptr); });
  f.sim.schedule_in(2 * kSlot, [&] { EXPECT_EQ(engine.remaining(), 3); });
  f.sim.run();
}

TEST(BackoffEngineTest, PerNodeViewIgnoresUnsensedTransmissions) {
  // Hidden pair: node 1 cannot hear link 0. An engine observing node 1's
  // sense view counts straight through link 0's transmission, while an
  // engine on the global view freezes for its whole duration.
  sim::Simulator sim;
  phy::Medium medium = test::static_medium(
      sim, {1.0, 1.0}, phy::InterferenceGraph{phy::SparseTopology{2, {{1}, {0}}, {{}, {}}}}, 99);
  BackoffEngine deaf{sim, medium, kSlot, /*sense_node=*/1};
  BackoffEngine global{sim, medium, kSlot};
  TimePoint deaf_fired;
  TimePoint global_fired;
  sim.schedule_in(Duration{}, [&] {
    deaf.start(5, [&] { deaf_fired = sim.now(); });
    global.start(5, [&] { global_fired = sim.now(); });
    medium.start_transmission(0, Duration::microseconds(100), phy::PacketKind::kData,
                              nullptr);
  });
  sim.run();
  EXPECT_EQ(deaf_fired, TimePoint::origin() + 5 * kSlot);
  EXPECT_EQ(global_fired, TimePoint::origin() + Duration::microseconds(100) + 5 * kSlot);
  EXPECT_EQ(deaf.total_frozen_time(), Duration{});
  EXPECT_EQ(global.total_frozen_time(), Duration::microseconds(100));
}

TEST(BackoffEngineTest, PerNodeViewFreezesOnSensedTransmissions) {
  // The same engine does freeze for a transmission its node senses.
  sim::Simulator sim;
  phy::Medium medium = test::static_medium(
      sim, {1.0, 1.0}, phy::InterferenceGraph{phy::SparseTopology{2, {{}, {}}, {{1}, {0}}}}, 99);
  BackoffEngine engine{sim, medium, kSlot, /*sense_node=*/1};
  TimePoint fired;
  sim.schedule_in(Duration{}, [&] {
    engine.start(5, [&] { fired = sim.now(); });
    medium.start_transmission(0, Duration::microseconds(100), phy::PacketKind::kData,
                              nullptr);
  });
  sim.run();
  EXPECT_EQ(fired, TimePoint::origin() + Duration::microseconds(100) + 5 * kSlot);
  EXPECT_TRUE(engine.was_frozen_at(5));
}

}  // namespace
}  // namespace rtmac::mac
