// Layout tests for the SharedBackoffClock of the DCF and FCSMA baselines.
//
// On a complete-sensing collision domain both schemes replace N per-link
// BackoffEngines with ONE shared slot clock; any other topology keeps one
// engine per link on its own sense view. Bit-identity of the shared clock
// with per-link engines (same RNG streams in the same order, same tie order)
// is pinned by the recorded digests in mac_digest_test.cpp; these tests
// check which clock a topology selects and what it declares.
#include "mac/shared_backoff_clock.hpp"

#include <gtest/gtest.h>

#include "expfw/scenarios.hpp"
#include "helpers/ring_topology.hpp"
#include "mac/dcf_mac.hpp"
#include "net/network.hpp"

namespace rtmac::mac {
namespace {

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
