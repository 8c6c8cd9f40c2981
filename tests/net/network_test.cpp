#include "net/network.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "expfw/scenarios.hpp"
#include "net/network_config.hpp"
#include "traffic/arrival_process.hpp"
#include "util/thread_pool.hpp"

namespace rtmac::net {
namespace {

NetworkConfig small_config(double p = 1.0, std::uint64_t seed = 1) {
  return symmetric_network(4, Duration::milliseconds(20), phy::PhyParams::video_80211a(), p,
                           traffic::ConstantArrivals{1}, 0.9, seed);
}

TEST(NetworkConfigTest, ValidatesGoodConfig) {
  std::string error;
  EXPECT_TRUE(small_config().validate(&error)) << error;
}

TEST(NetworkConfigTest, RejectsSizeMismatch) {
  auto cfg = small_config();
  cfg.success_prob.push_back(0.5);
  std::string error;
  EXPECT_FALSE(cfg.validate(&error));
  EXPECT_FALSE(error.empty());
}

TEST(NetworkConfigTest, RejectsShardJobsAboveCeiling) {
  auto cfg = small_config();
  cfg.shard_jobs = ThreadPool::kMaxThreads;
  std::string error;
  EXPECT_TRUE(cfg.validate(&error)) << error;
  cfg.shard_jobs = ThreadPool::kMaxThreads + 1;
  EXPECT_FALSE(cfg.validate(&error));
  EXPECT_NE(error.find("kMaxThreads"), std::string::npos) << error;
}

TEST(NetworkConfigTest, RejectsLambdaMismatch) {
  auto cfg = small_config();
  cfg.requirements.lambda[0] = 99.0;
  EXPECT_FALSE(cfg.validate());
}

TEST(NetworkConfigTest, RejectsBadProbability) {
  auto cfg = small_config();
  cfg.success_prob[2] = 0.0;
  EXPECT_FALSE(cfg.validate());
  cfg.success_prob[2] = 1.5;
  EXPECT_FALSE(cfg.validate());
}

// NaN fails every ordered comparison, so each range check must ask for the
// valid range rather than test for the invalid one.
TEST(NetworkConfigTest, RejectsNanProbability) {
  auto cfg = small_config();
  cfg.success_prob[1] = std::numeric_limits<double>::quiet_NaN();
  std::string error;
  EXPECT_FALSE(cfg.validate(&error));
  EXPECT_EQ(error, "success probabilities must lie in (0, 1]");
}

TEST(NetworkConfigTest, RejectsNanDeliveryRatio) {
  auto cfg = small_config();
  cfg.requirements.rho[1] = std::numeric_limits<double>::quiet_NaN();
  std::string error;
  EXPECT_FALSE(cfg.validate(&error));
  EXPECT_EQ(error, "delivery ratios must lie in [0, 1]");
}

TEST(NetworkConfigTest, RejectsNanLambda) {
  auto cfg = small_config();
  cfg.requirements.lambda[1] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(cfg.validate());
}

TEST(NetworkConfigTest, RejectsTooShortInterval) {
  auto cfg = small_config();
  cfg.interval_length = Duration::microseconds(100);  // < one airtime
  EXPECT_FALSE(cfg.validate());
}

TEST(NetworkConfigTest, CloneIsDeepAndEquivalent) {
  const auto cfg = small_config();
  const auto copy = cfg.clone();
  EXPECT_EQ(copy.success_prob, cfg.success_prob);
  EXPECT_EQ(copy.seed, cfg.seed);
  ASSERT_NE(copy.uniform_arrivals, nullptr);  // symmetric builder emits the uniform form
  EXPECT_NE(copy.uniform_arrivals.get(), cfg.uniform_arrivals.get());
  EXPECT_EQ(copy.uniform_arrivals->pmf(), cfg.uniform_arrivals->pmf());
  EXPECT_TRUE(copy.validate());
}

TEST(NetworkTest, InvalidConfigThrowsWithTheValidationMessage) {
  auto cfg = small_config();
  cfg.success_prob[2] = 1.5;
  std::string expected;
  ASSERT_FALSE(cfg.validate(&expected));
  EXPECT_THROW((Network{std::move(cfg), expfw::ldf_factory()}), std::invalid_argument);
  auto again = small_config();
  again.success_prob[2] = 1.5;
  try {
    Network net{std::move(again), expfw::ldf_factory()};
    ADD_FAILURE() << "constructor accepted an invalid config";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find(expected), std::string::npos) << e.what();
  }
}

TEST(NetworkTest, RunsIntervalsAndCollectsStats) {
  Network net{small_config(), expfw::ldf_factory()};
  net.run(50);
  EXPECT_EQ(net.stats().intervals(), 50u);
  for (LinkId n = 0; n < 4; ++n) {
    EXPECT_EQ(net.stats().total_arrivals(n), 50u);
    EXPECT_EQ(net.stats().total_delivered(n), 50u);  // p=1, light load
  }
  EXPECT_DOUBLE_EQ(net.total_deficiency(), 0.0);
}

TEST(NetworkTest, DebtsTrackRequirementMinusDeliveries) {
  Network net{small_config(), expfw::ldf_factory()};
  net.run(10);
  // Every packet delivered: debt = 10*(0.9 - 1) = -1 per link.
  for (LinkId n = 0; n < 4; ++n) EXPECT_NEAR(net.debts().debt(n), -1.0, 1e-9);
}

TEST(NetworkTest, RunIsResumable) {
  Network net{small_config(), expfw::ldf_factory()};
  net.run(5);
  net.run(5);
  EXPECT_EQ(net.stats().intervals(), 10u);
  EXPECT_EQ(net.simulator().now(), TimePoint::origin() + 10 * Duration::milliseconds(20));
}

TEST(NetworkTest, ObserverSeesEveryInterval) {
  Network net{small_config(), expfw::ldf_factory()};
  int calls = 0;
  net.add_observer([&](IntervalIndex k, std::span<const int> arrivals,
                       std::span<const int> delivered) {
    EXPECT_EQ(k, static_cast<IntervalIndex>(calls));
    EXPECT_EQ(arrivals.size(), 4u);
    EXPECT_EQ(delivered.size(), 4u);
    ++calls;
  });
  net.run(7);
  EXPECT_EQ(calls, 7);
}

TEST(NetworkTest, DeterministicReplayUnderSameSeed) {
  Network a{small_config(0.7, 123), expfw::dbdp_factory()};
  Network b{small_config(0.7, 123), expfw::dbdp_factory()};
  a.run(100);
  b.run(100);
  for (LinkId n = 0; n < 4; ++n) {
    EXPECT_EQ(a.stats().total_delivered(n), b.stats().total_delivered(n));
  }
  EXPECT_EQ(a.medium().counters().data_tx, b.medium().counters().data_tx);
}

TEST(NetworkTest, DifferentSeedsDiverge) {
  Network a{small_config(0.7, 1), expfw::dbdp_factory()};
  Network b{small_config(0.7, 2), expfw::dbdp_factory()};
  a.run(100);
  b.run(100);
  EXPECT_NE(a.medium().counters().channel_losses, b.medium().counters().channel_losses);
}

TEST(NetworkTest, OverloadedNetworkAccumulatesDeficiency) {
  // 4 links x 1 packet but interval fits only 2 packets: deficiency stays
  // bounded away from zero.
  auto cfg = symmetric_network(4, Duration::microseconds(700),
                               phy::PhyParams::video_80211a(), 1.0,
                               traffic::ConstantArrivals{1}, 0.9, 3);
  Network net{std::move(cfg), expfw::ldf_factory()};
  net.run(200);
  // Capacity 2 of 3.6 required => total deficiency ~ 1.6.
  EXPECT_NEAR(net.total_deficiency(), 1.6, 0.1);
}

TEST(NetworkTest, SchemeNameExposed) {
  Network net{small_config(), expfw::dbdp_factory()};
  EXPECT_EQ(net.scheme().name(), "DB-DP");
}

}  // namespace
}  // namespace rtmac::net
