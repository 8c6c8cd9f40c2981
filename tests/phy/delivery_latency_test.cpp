// The Medium's live `phy.delivery_latency_us` sketch: one sample per
// delivered data packet, measured from the enclosing interval's start.
#include <gtest/gtest.h>

#include "expfw/scenarios.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "traffic/arrival_process.hpp"

namespace rtmac {
namespace {

/// Runs `cfg` under `factory` for `intervals` and returns the network's
/// delivery-latency sketch (microseconds) through `registry`.
const obs::QuantileSketch& run_latencies(net::NetworkConfig cfg,
                                         const mac::SchemeFactory& factory,
                                         IntervalIndex intervals,
                                         obs::MetricsRegistry& registry) {
  net::Network net{std::move(cfg), factory};
  net.attach_metrics(&registry);
  net.run(intervals);
  return registry.sketch("phy.delivery_latency_us");
}

TEST(DeliveryLatencyTest, SingleLinkBackToBack) {
  // p = 1, one link, 2 packets per interval: deliveries complete at 330us
  // and 660us into every interval.
  obs::MetricsRegistry registry;
  const auto& latencies = run_latencies(
      net::symmetric_network(1, Duration::milliseconds(20), phy::PhyParams::video_80211a(), 1.0,
                             traffic::ConstantArrivals{2}, 0.9, 71),
      expfw::ldf_factory(), 5, registry);
  ASSERT_EQ(latencies.count(), 10u);
  EXPECT_EQ(latencies.quantile(0.0), 330.0);
  EXPECT_EQ(latencies.quantile(0.5), 330.0);
  EXPECT_EQ(latencies.max(), 660.0);
}

TEST(DeliveryLatencyTest, AllWithinDeadline) {
  // Hard invariant of the model: every delivered packet's latency is <= T.
  for (const auto& factory :
       {expfw::dbdp_factory(), expfw::ldf_factory(), expfw::fcsma_factory()}) {
    obs::MetricsRegistry registry;
    const auto& latencies =
        run_latencies(expfw::video_symmetric(0.5, 0.9, 72), factory, 50, registry);
    ASSERT_GT(latencies.count(), 0u);
    EXPECT_LE(latencies.max(), 20'000.0);
  }
}

TEST(DeliveryLatencyTest, EmptyPacketsExcluded) {
  // Candidates with no traffic send claims; those must not count as
  // deliveries.
  auto cfg = net::symmetric_network(2, Duration::milliseconds(20),
                                    phy::PhyParams::video_80211a(), 1.0,
                                    traffic::ConstantArrivals{0}, 0.0, 73);
  net::Network net{std::move(cfg), expfw::dbdp_factory()};
  obs::MetricsRegistry registry;
  net.attach_metrics(&registry);
  net.run(20);
  EXPECT_GT(net.medium().counters().empty_tx, 0u);  // claims happened
  EXPECT_EQ(registry.sketch("phy.delivery_latency_us").count(), 0u);
}

TEST(DeliveryLatencyTest, CentralizedFasterThanContention) {
  // LDF starts serving at t = 0 with no backoff: its median latency must
  // beat FCSMA's under identical load.
  auto median_latency = [](const mac::SchemeFactory& f) {
    obs::MetricsRegistry registry;
    return run_latencies(expfw::video_symmetric(0.5, 0.9, 74), f, 100, registry)
        .quantile(0.5);
  };
  EXPECT_LT(median_latency(expfw::ldf_factory()), median_latency(expfw::fcsma_factory()));
}

}  // namespace
}  // namespace rtmac
