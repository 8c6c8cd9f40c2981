// Stress tests for ThreadPool::parallel_for. This is the suite the TSan CI
// lane runs hot: every test hammers the fork-join loop from multiple threads
// at once, with pools created and destroyed in a cycle, so data races in the
// job slot, the index counter, the helper count or the shutdown path surface
// as sanitizer reports rather than rare flakes.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "expfw/runner.hpp"
#include "util/rng.hpp"

namespace rtmac {
namespace {

// Deterministic stand-in for a sweep cell: hash-mix the slot index a few
// thousand times. Heavy enough to overlap tasks, cheap enough to run
// thousands of them under TSan.
std::uint64_t burn(std::uint64_t slot) {
  std::uint64_t h = mix64(slot, slot + 1);
  for (int i = 0; i < 2000; ++i) h = mix64(h, slot);
  return h;
}

TEST(ThreadPoolStress, ManyPoolsManyTasksMatchSerialReference) {
  // Pool construction/destruction itself races against worker startup if the
  // shutdown path is wrong, so cycle whole pools, not just tasks.
  constexpr std::size_t kTasks = 256;
  std::vector<std::uint64_t> reference(kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) reference[i] = burn(i);

  for (std::size_t threads : {1u, 2u, 3u, 8u}) {
    for (int round = 0; round < 3; ++round) {
      ThreadPool pool(threads);
      std::vector<std::uint64_t> results(kTasks, 0);
      pool.parallel_for(kTasks, [&results](std::size_t i) { results[i] = burn(i); });
      EXPECT_EQ(results, reference) << "threads=" << threads << " round=" << round;
    }
  }
}

TEST(ThreadPoolStress, SweepSeedsAreScheduleIndependent) {
  // The property the whole parallel sweep engine rests on: per-cell seeds
  // depend only on (base, scheme, x, rep), never on which worker ran the cell
  // or in what order. Compute the full seed grid serially, then in parallel
  // with results written to pre-assigned slots, and require equality.
  constexpr std::uint64_t kBase = 0x9e3779b97f4a7c15ull;
  const std::vector<std::string> schemes = {"dp", "db-dp", "fcsma", "dcf"};
  constexpr std::size_t kXs = 16;
  constexpr std::size_t kReps = 8;

  std::vector<std::uint64_t> serial;
  serial.reserve(schemes.size() * kXs * kReps);
  for (const auto& scheme : schemes) {
    for (std::size_t x = 0; x < kXs; ++x) {
      for (std::size_t rep = 0; rep < kReps; ++rep) {
        serial.push_back(expfw::sweep_seed(kBase, scheme, x, rep));
      }
    }
  }

  // The sweep engine's decoding: slot = (scheme * kXs + x) * kReps + rep.
  ThreadPool pool(4);
  std::vector<std::uint64_t> parallel(serial.size(), 0);
  pool.parallel_for(parallel.size(), [&](std::size_t slot) {
    const std::size_t rep = slot % kReps;
    const std::size_t x = slot / kReps % kXs;
    const std::string& scheme = schemes[slot / kReps / kXs];
    parallel[slot] = expfw::sweep_seed(kBase, scheme, x, rep);
  });
  EXPECT_EQ(parallel, serial);
}

TEST(ThreadPoolStress, ExceptionsPropagateUnderContention) {
  // The sweep engine's error pattern: each body catches into its own slot,
  // so every index runs and every failure is kept, whatever the schedule.
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 200;
  std::vector<std::uint64_t> results(kTasks, 0);
  std::vector<std::exception_ptr> errors(kTasks);
  pool.parallel_for(kTasks, [&](std::size_t i) {
    try {
      if (i % 7 == 3) throw std::runtime_error("task " + std::to_string(i));
      results[i] = burn(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });
  for (std::size_t i = 0; i < kTasks; ++i) {
    if (i % 7 == 3) {
      ASSERT_TRUE(errors[i]) << i;
      EXPECT_THROW(std::rethrow_exception(errors[i]), std::runtime_error) << i;
    } else {
      EXPECT_FALSE(errors[i]) << i;
      EXPECT_EQ(results[i], burn(i)) << i;
    }
  }
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  for (const std::size_t workers : {1UL, 3UL}) {
    ThreadPool pool{workers};
    for (const std::size_t n : {0UL, 1UL, workers - 1, workers, workers + 1, 1000UL}) {
      std::vector<std::atomic<int>> runs(n);
      pool.parallel_for(n, [&runs](std::size_t i) {
        burn(i);
        runs[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(runs[i].load(), 1) << "workers=" << workers << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForRethrowsTheFirstExceptionAfterEveryHelperReturns) {
  ThreadPool pool{3};
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> inside{0};
    std::atomic<int> started{0};
    bool caught = false;
    try {
      pool.parallel_for(8, [&](std::size_t i) {
        inside.fetch_add(1);
        started.fetch_add(1);
        struct Leave {
          std::atomic<int>& inside;
          ~Leave() { inside.fetch_sub(1); }
        } leave{inside};
        if (i == 0) throw std::runtime_error{"index 0"};
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      });
    } catch (const std::runtime_error& e) {
      caught = true;
      EXPECT_STREQ(e.what(), "index 0");
      // Every call that started has returned before the rethrow.
      EXPECT_EQ(inside.load(), 0) << "round=" << round;
    }
    EXPECT_TRUE(caught) << "round=" << round;
    EXPECT_GE(started.load(), 1);
    EXPECT_LE(started.load(), 8);
  }
  // The pool survives a throwing loop.
  std::atomic<int> sum{0};
  pool.parallel_for(10, [&sum](std::size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTest, ParallelForFromInsideATaskOnOneWorkerDoesNotDeadlock) {
  // Every thread of the pool is inside the outer loop, so each nested loop
  // finds a loop open and runs every index on its own caller.
  ThreadPool pool{1};
  std::vector<std::uint64_t> out(64, 0);
  pool.parallel_for(8, [&pool, &out](std::size_t o) {
    pool.parallel_for(8, [&out, o](std::size_t i) { out[o * 8 + i] = burn(o * 8 + i); });
  });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], burn(i)) << i;
}

TEST(ThreadPoolTest, ParallelForPoolStaysReusableAcrossManyCalls) {
  // The sharded network's shape: one short fork-join per interval or
  // coordinator round, back to back, with workers + 1 chunks.
  ThreadPool pool{3};
  std::vector<std::uint64_t> slots(4, 0);
  for (std::uint64_t call = 0; call < 10000; ++call) {
    pool.parallel_for(slots.size(), [&slots, call](std::size_t i) { slots[i] += call + i; });
  }
  const std::uint64_t base = 10000ULL * 9999ULL / 2;
  for (std::size_t i = 0; i < slots.size(); ++i) EXPECT_EQ(slots[i], base + 10000ULL * i) << i;
}

TEST(ThreadPoolTest, ParallelForFromManyThreadsAtOnce) {
  // Several external callers share one pool: one loop is open at a time,
  // and a caller that finds another loop open runs its own serially.
  ThreadPool pool{2};
  std::vector<std::thread> callers;
  std::vector<std::uint64_t> sums(4, 0);
  for (std::size_t c = 0; c < sums.size(); ++c) {
    callers.emplace_back([&pool, &sums, c] {
      for (int round = 0; round < 200; ++round) {
        std::vector<std::uint64_t> parts(6, 0);
        pool.parallel_for(parts.size(), [&parts](std::size_t i) { parts[i] = i + 1; });
        sums[c] += std::accumulate(parts.begin(), parts.end(), std::uint64_t{0});
      }
    });
  }
  for (auto& t : callers) t.join();
  for (const std::uint64_t s : sums) EXPECT_EQ(s, 200U * 21U);
}

}  // namespace
}  // namespace rtmac
