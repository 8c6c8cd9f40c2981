// Kernel and regression tests for the SoA DP layout.
//
//   1. kernel math vs the per-link formulas (dp_backoff_count & friends);
//   2. clock selection: only complete sensing gets the shared clock (the
//      whole-network behaviour of both clocks is pinned by the recorded
//      digests in mac_digest_test.cpp);
//   3. allocation regression: the steady-state interval hot path of the
//      shared-clock DP scheme (and of centralized LDF) performs zero heap
//      allocations, counted with interposed global new/delete.
#include "mac/dp_batch_kernel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <set>
#include <vector>

#include "expfw/scenarios.hpp"
#include "helpers/ring_topology.hpp"
#include "mac/dp_link_mac.hpp"
#include "mac/priority_provider.hpp"
#include "net/network.hpp"

// ---- allocation counting ----------------------------------------------------
// Interposed global new/delete: counts every heap allocation made by this
// binary. Tests read the counter around a measurement window; gtest's own
// allocations outside the window are irrelevant.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
}  // namespace

// gcc -O2 cannot see that the replaced operator new forwards to malloc, so
// inlined delete sites trip -Wmismatched-new-delete; the pairing is correct.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t) { return counted_alloc(size); }
void* operator new[](std::size_t size, std::align_val_t) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace rtmac::mac {
namespace {

// ---- 1. kernel math vs per-link formulas ------------------------------------

TEST(DpBatchKernelTest, PlanIntervalMatchesPerLinkFormulas) {
  constexpr std::size_t kN = 8;
  const SharedSeed shared{77};
  const FixedMuProvider provider{std::vector<double>(kN, 0.5)};
  std::vector<PriorityIndex> initial(kN);
  for (LinkId n = 0; n < kN; ++n) initial[n] = static_cast<PriorityIndex>(n + 1);
  DpBatchKernel kernel{kN, shared, provider, /*reordering=*/true, /*max_pairs=*/1,
                       initial,  /*seed=*/123};

  for (IntervalIndex k = 0; k < 200; ++k) {
    kernel.plan_interval(k);
    const auto pairs = kernel.candidate_pairs();
    ASSERT_EQ(pairs.size(), 1u);
    EXPECT_EQ(pairs[0], shared.candidate(k, kN));
    for (LinkId n = 0; n < kN; ++n) {
      bool is_lower = false;
      const bool candidate = dp_is_candidate(kernel.priority(n), pairs, &is_lower);
      EXPECT_EQ(kernel.is_candidate(n), candidate);
      if (candidate) {
        EXPECT_EQ(kernel.role(n),
                  is_lower ? DpBatchKernel::Role::kLower : DpBatchKernel::Role::kUpper);
        EXPECT_TRUE(kernel.coin(n) == 1 || kernel.coin(n) == -1);
      } else {
        EXPECT_EQ(kernel.role(n), DpBatchKernel::Role::kBystander);
        EXPECT_EQ(kernel.coin(n), 0);
      }
      EXPECT_EQ(kernel.backoff_count(n),
                dp_backoff_count(kernel.priority(n), pairs, kernel.coin(n)));
    }
    // Collision freedom: windows are pairwise distinct whatever the coins.
    std::set<int> betas(kernel.backoff_counts().begin(), kernel.backoff_counts().end());
    EXPECT_EQ(betas.size(), kN);
  }
}

TEST(DpBatchKernelTest, MultiPairWindowsStayUnique) {
  constexpr std::size_t kN = 12;
  const SharedSeed shared{5};
  const FixedMuProvider provider{std::vector<double>(kN, 0.5)};
  std::vector<PriorityIndex> initial(kN);
  for (LinkId n = 0; n < kN; ++n) initial[n] = static_cast<PriorityIndex>(n + 1);
  DpBatchKernel kernel{kN, shared, provider, /*reordering=*/true, /*max_pairs=*/3,
                       initial,  /*seed=*/9};
  for (IntervalIndex k = 0; k < 300; ++k) {
    kernel.plan_interval(k);
    std::set<int> betas(kernel.backoff_counts().begin(), kernel.backoff_counts().end());
    EXPECT_EQ(betas.size(), kN) << "duplicate window at interval " << k;
  }
}

// ---- 2. clock selection -----------------------------------------------------
// Bit-identity of the shared clock with per-link engines is pinned by the
// recorded digests in mac_digest_test.cpp.

TEST(DpBatchEquivalenceTest, PartialSensingFallsBackToScalar) {
  // A ring interference graph is not a complete collision domain: the shared
  // clock must refuse it and every link counts down on its own engine.
  net::Network net{test::with_ring(expfw::video_symmetric(0.55, 0.9, 3)),
                   expfw::dbdp_factory()};
  net.run(20);
  const auto* dp = dynamic_cast<const DpScheme*>(&net.scheme());
  ASSERT_NE(dp, nullptr);
  EXPECT_FALSE(dp->batch_path());
}

// ---- 3. allocation regression ----------------------------------------------

/// Allocations across `measure` intervals after `warmup` intervals of
/// warm-up (buffers at working-set capacity, RNG and pools primed).
std::uint64_t steady_state_allocs(const mac::SchemeFactory& factory, IntervalIndex warmup,
                                  IntervalIndex measure) {
  net::Network net{expfw::video_symmetric(0.55, 0.9, 1), factory};
  net.run(warmup);
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  net.run(measure);
  return g_alloc_count.load(std::memory_order_relaxed) - before;
}

TEST(DpBatchAllocTest, SteadyStateIntervalPathIsAllocationFree) {
  EXPECT_EQ(steady_state_allocs(expfw::dbdp_factory(), 8, 32), 0u);
}

TEST(DpBatchAllocTest, LdfSteadyStateIntervalPathIsAllocationFree) {
  EXPECT_EQ(steady_state_allocs(expfw::ldf_factory(), 8, 32), 0u);
}

}  // namespace
}  // namespace rtmac::mac
