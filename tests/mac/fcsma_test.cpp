#include "mac/fcsma_mac.hpp"

#include <gtest/gtest.h>

#include <limits>
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

TEST(FcsmaWindowTest, HigherWeightShrinksWindow) {
  const FcsmaParams params;
  int prev = fcsma_window_for_weight(0.0, params);
  for (double w = 0.0; w < 10.0; w += 0.5) {
    const int cw = fcsma_window_for_weight(w, params);
    EXPECT_LE(cw, prev);
    EXPECT_GE(cw, 1);
    prev = cw;
  }
}

TEST(FcsmaWindowTest, SectionBoundaries) {
  const FcsmaParams params;  // width 1.0, windows {128,96,64,48,32}
  EXPECT_EQ(fcsma_window_for_weight(0.0, params), 128);
  EXPECT_EQ(fcsma_window_for_weight(0.99, params), 128);
  EXPECT_EQ(fcsma_window_for_weight(1.0, params), 96);
  EXPECT_EQ(fcsma_window_for_weight(3.5, params), 48);
  EXPECT_EQ(fcsma_window_for_weight(4.5, params), 32);
  EXPECT_EQ(fcsma_window_for_weight(5.0, params), 32);
}

TEST(FcsmaWindowTest, SaturatesAboveTopSection) {
  // The paper's criticism: "the size of contention window is the same for
  // any delivery debt above a certain threshold" — FCSMA becomes oblivious.
  const FcsmaParams params;
  EXPECT_EQ(fcsma_window_for_weight(5.0, params),
            fcsma_window_for_weight(500.0, params));
  EXPECT_EQ(fcsma_window_for_weight(5.0, params),
            fcsma_window_for_weight(5e9, params));
}

TEST(FcsmaWindowTest, CustomSections) {
  FcsmaParams params;
  params.window_sizes = {10, 5};
  params.section_width = 2.0;
  EXPECT_EQ(fcsma_window_for_weight(1.9, params), 10);
  EXPECT_EQ(fcsma_window_for_weight(2.0, params), 5);
  EXPECT_EQ(fcsma_window_for_weight(100.0, params), 5);
}

TEST(FcsmaSchemeTest, RejectsLaddersThatCouldDrawFromAnEmptyWindow) {
  SchemeHarness h{{1.0}, phy::PhyParams::video_80211a(), Duration::milliseconds(20), {0.9}};
  const auto make = [&h](std::vector<int> windows, double width) {
    FcsmaParams params;
    params.window_sizes = std::move(windows);
    params.section_width = width;
    return FcsmaScheme{h.context(), params, "FCSMA"};
  };
  EXPECT_THROW(make({}, 1.0), std::invalid_argument);
  EXPECT_THROW(make({0}, 1.0), std::invalid_argument);
  EXPECT_THROW(make({128, 64, -1}, 1.0), std::invalid_argument);
  EXPECT_THROW(make({128, 64}, 0.0), std::invalid_argument);
  EXPECT_THROW(make({128, 64}, -1.0), std::invalid_argument);
  EXPECT_THROW(make({128, 64}, std::numeric_limits<double>::quiet_NaN()), std::invalid_argument);
  // The narrowest legal ladder always draws 0 and still delivers.
  auto fcsma = make({1}, 1.0);
  EXPECT_EQ(h.run_interval(fcsma, {3}), (std::vector<int>{3}));
}

TEST(FcsmaSchemeTest, SingleLinkDeliversWithoutContention) {
  auto h = video_harness(1);
  const auto ctx = h.context();
  FcsmaScheme fcsma{ctx, FcsmaParams{}, "FCSMA"};
  const auto delivered = h.run_interval(fcsma, {3});
  EXPECT_EQ(delivered, (std::vector<int>{3}));
  EXPECT_EQ(h.medium().counters().collisions, 0u);
}

TEST(FcsmaSchemeTest, ContendingLinksCollide) {
  // Many links with small windows: collisions must occur — the structural
  // weakness the paper contrasts against the DP protocol.
  auto h = video_harness(12);
  const auto ctx = h.context();
  FcsmaParams params;
  params.window_sizes = {4};  // aggressively small windows
  FcsmaScheme fcsma{ctx, params, "FCSMA"};
  for (int k = 0; k < 20; ++k) h.run_interval(fcsma, std::vector<int>(12, 2));
  EXPECT_GT(h.medium().counters().collisions, 0u);
}

TEST(FcsmaSchemeTest, DeliversLessThanCapacityUnderContention) {
  // Saturated demand: FCSMA wastes airtime on collisions + backoff and must
  // deliver strictly less than the 60-packet interval capacity.
  auto h = video_harness(20);
  const auto ctx = h.context();
  FcsmaScheme fcsma{ctx, FcsmaParams{}, "FCSMA"};
  int total = 0;
  for (int k = 0; k < 20; ++k) {
    const auto d = h.run_interval(fcsma, std::vector<int>(20, 4));
    total += std::accumulate(d.begin(), d.end(), 0);
  }
  EXPECT_LT(total, 20 * 60);
  EXPECT_GT(total, 0);
}

TEST(FcsmaSchemeTest, RespectsDeadlineGapRule) {
  auto h = video_harness(5);
  const auto ctx = h.context();
  FcsmaScheme fcsma{ctx, FcsmaParams{}, "FCSMA"};
  for (int k = 0; k < 50; ++k) {
    h.run_interval(fcsma, std::vector<int>(5, 6));
    // run_interval asserts the medium is idle at each boundary.
  }
  SUCCEED();
}

TEST(FcsmaSchemeTest, WindowReactsToDebt) {
  SchemeHarness h{{0.7}, phy::PhyParams::video_80211a(), Duration::milliseconds(20), {0.9}};
  FcsmaParams params;
  params.influence = core::Influence::identity();
  params.section_width = 1.0;
  FcsmaScheme fcsma{h.context(), params, "FCSMA"};
  // Zero debt: weight 0 -> largest window.
  h.run_interval(fcsma, {1});
  EXPECT_EQ(fcsma.current_window(0), 128);
  // Large debt: weight saturates -> smallest window.
  for (int i = 0; i < 12; ++i) h.debts().on_interval_end({0});
  h.run_interval(fcsma, {1});
  EXPECT_EQ(fcsma.current_window(0), 32);
}

}  // namespace
}  // namespace rtmac::mac
