#include "mac/dcf_mac.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "helpers/scheme_harness.hpp"

namespace rtmac::mac {
namespace {

using test::SchemeHarness;

SchemeHarness video_harness(std::size_t n, double p = 1.0) {
  return SchemeHarness{ProbabilityVector(n, p), phy::PhyParams::video_80211a(),
                       Duration::milliseconds(20), RateVector(n, 0.9)};
}

TEST(DcfTest, SingleLinkDelivers) {
  auto h = video_harness(1);
  const auto ctx = h.context();
  DcfScheme dcf{ctx, DcfParams{}, "DCF"};
  const auto delivered = h.run_interval(dcf, {4});
  EXPECT_EQ(delivered, (std::vector<int>{4}));
}

TEST(DcfTest, WindowDoublesOnFailureAndResetsOnSuccess) {
  SchemeHarness h{{1.0, 1.0}, phy::PhyParams::video_80211a(), Duration::milliseconds(20),
                  {0.9, 0.9}};
  DcfParams params;
  params.cw_min = 2;  // force frequent collisions
  params.cw_max = 64;
  DcfScheme dcf{h.context(), params, "DCF"};
  // Two saturated links with CWmin=2: some collisions are certain. A link's
  // window doubles on every failure and drops back to CWmin on every
  // success, so sampled through the interval it always sits on the ladder
  // {2, 4, ..., 64}, climbs above CWmin and falls back to it.
  const TimePoint end = h.simulator().now() + Duration::milliseconds(20);
  const std::vector<int> arrivals{10, 10};
  dcf.begin_interval(0, arrivals, end);
  int widest = 0;
  bool reset = false;
  std::vector<int> last{params.cw_min, params.cw_min};
  while (h.simulator().now() < end) {
    h.simulator().run_until(h.simulator().now() + Duration::microseconds(50));
    for (LinkId n = 0; n < 2; ++n) {
      const int cw = dcf.current_window(n);
      EXPECT_GE(cw, params.cw_min);
      EXPECT_LE(cw, params.cw_max);
      EXPECT_EQ(cw & (cw - 1), 0) << "window off the doubling ladder: " << cw;
      widest = std::max(widest, cw);
      reset = reset || (last[n] > params.cw_min && cw == params.cw_min);
      last[n] = cw;
    }
  }
  std::vector<int> delivered(2, 0);
  dcf.end_interval(delivered);
  EXPECT_GT(h.medium().counters().collisions, 0u);
  EXPECT_GT(widest, params.cw_min) << "no failure ever doubled a window";
  EXPECT_TRUE(reset) << "no success ever reset a doubled window";
  // The exponential backoff must still let most packets through eventually.
  EXPECT_GT(delivered[0] + delivered[1], 0);
}

TEST(DcfTest, SaturatedNetworkLosesCapacityToCollisions) {
  auto h = video_harness(20);
  const auto ctx = h.context();
  DcfScheme dcf{ctx, DcfParams{}, "DCF"};
  int total = 0;
  for (int k = 0; k < 20; ++k) {
    const auto d = h.run_interval(dcf, std::vector<int>(20, 4));
    total += std::accumulate(d.begin(), d.end(), 0);
  }
  EXPECT_LT(total, 20 * 60);
  EXPECT_GT(h.medium().counters().collisions, 0u);
}

TEST(DcfTest, RejectsWindowsThatCouldFallBelowOne) {
  SchemeHarness h{{1.0}, phy::PhyParams::video_80211a(), Duration::milliseconds(20), {0.9}};
  const auto make = [&h](int cw_min, int cw_max) {
    return DcfScheme{h.context(), DcfParams{.cw_min = cw_min, .cw_max = cw_max}, "DCF"};
  };
  EXPECT_THROW(make(0, 1024), std::invalid_argument);
  EXPECT_THROW(make(-4, 1024), std::invalid_argument);
  EXPECT_THROW(make(32, 16), std::invalid_argument);
  // The narrowest legal window always draws 0 and still delivers.
  auto dcf = make(1, 1);
  EXPECT_EQ(h.run_interval(dcf, {3}), (std::vector<int>{3}));
}

TEST(DcfTest, CurrentWindowStartsAtMin) {
  SchemeHarness h{{1.0}, phy::PhyParams::video_80211a(), Duration::milliseconds(20), {0.9}};
  DcfParams params;
  DcfScheme dcf{h.context(), params, "DCF"};
  EXPECT_EQ(dcf.current_window(0), params.cw_min);
}

}  // namespace
}  // namespace rtmac::mac
