// Stress tests for the help-executing ThreadPool. This is the suite the TSan
// CI lane runs hot: every test hammers the submit/wait and parallel_for
// paths from multiple threads at once so data races in the queue, the
// nested-wait help loop, the fork-join job slot, or the shutdown path
// surface as sanitizer reports rather than rare flakes.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
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
      std::vector<std::future<void>> futures;
      futures.reserve(kTasks);
      for (std::size_t i = 0; i < kTasks; ++i) {
        futures.push_back(pool.submit([i, &results] { results[i] = burn(i); }));
      }
      pool.wait_all(futures);
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

  ThreadPool pool(4);
  std::vector<std::uint64_t> parallel(serial.size(), 0);
  std::vector<std::future<void>> futures;
  futures.reserve(serial.size());
  std::size_t slot = 0;
  for (const auto& scheme : schemes) {
    for (std::size_t x = 0; x < kXs; ++x) {
      for (std::size_t rep = 0; rep < kReps; ++rep) {
        futures.push_back(pool.submit([&parallel, slot, &scheme, x, rep] {
          parallel[slot] = expfw::sweep_seed(kBase, scheme, x, rep);
        }));
        ++slot;
      }
    }
  }
  pool.wait_all(futures);
  EXPECT_EQ(parallel, serial);
}

TEST(ThreadPoolStress, NestedSubmitAndWaitFromPoolThreadsDoesNotDeadlock) {
  // Tasks that themselves fan out and wait — the shape the figure sweeps use
  // (scheme task -> per-rep subtasks). With help-execution this must complete
  // even when every worker is blocked inside a nested wait_all.
  for (std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    constexpr std::size_t kOuter = 12;
    constexpr std::size_t kInner = 24;
    std::vector<std::future<std::uint64_t>> outer;
    outer.reserve(kOuter);
    for (std::size_t o = 0; o < kOuter; ++o) {
      outer.push_back(pool.submit([o, &pool] {
        std::vector<std::future<std::uint64_t>> inner;
        inner.reserve(kInner);
        for (std::size_t i = 0; i < kInner; ++i) {
          inner.push_back(pool.submit([o, i] { return burn(o * 1000 + i); }));
        }
        pool.wait_all(inner);
        std::uint64_t acc = 0;
        for (auto& f : inner) acc ^= f.get();
        return acc;
      }));
    }
    pool.wait_all(outer);
    for (std::size_t o = 0; o < kOuter; ++o) {
      std::uint64_t expected = 0;
      for (std::size_t i = 0; i < kInner; ++i) expected ^= burn(o * 1000 + i);
      EXPECT_EQ(outer[o].get(), expected) << "threads=" << threads << " o=" << o;
    }
  }
}

TEST(ThreadPoolStress, ExceptionsPropagateUnderContention) {
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 200;
  std::vector<std::future<std::uint64_t>> futures;
  futures.reserve(kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) {
    futures.push_back(pool.submit([i]() -> std::uint64_t {
      if (i % 7 == 3) throw std::runtime_error("task " + std::to_string(i));
      return burn(i);
    }));
  }
  pool.wait_all(futures);
  for (std::size_t i = 0; i < kTasks; ++i) {
    if (i % 7 == 3) {
      EXPECT_THROW(futures[i].get(), std::runtime_error) << i;
    } else {
      EXPECT_EQ(futures[i].get(), burn(i)) << i;
    }
  }
}

TEST(ThreadPoolStress, DestructorDrainsEverySubmittedTask) {
  // The destructor contract: every task already submitted runs before join.
  // Submit from several external threads racing the pool's destruction.
  constexpr std::size_t kSubmitters = 4;
  constexpr std::size_t kPerSubmitter = 64;
  std::atomic<std::uint64_t> executed{0};
  {
    ThreadPool pool(2);
    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (std::size_t s = 0; s < kSubmitters; ++s) {
      submitters.emplace_back([&pool, &executed] {
        for (std::size_t i = 0; i < kPerSubmitter; ++i) {
          pool.submit([&executed, i] {
            burn(i);
            executed.fetch_add(1, std::memory_order_relaxed);
          });
        }
      });
    }
    for (auto& t : submitters) t.join();
    // Pool destructor runs here and must drain the queue.
  }
  EXPECT_EQ(executed.load(), kSubmitters * kPerSubmitter);
}

TEST(ThreadPoolStress, WaitUntilHelpsFromManyThreadsAtOnce) {
  // Several external threads all help-execute against one pool while it is
  // also running its own workers — the maximum-contention shape for run_one().
  ThreadPool pool(2);
  constexpr std::size_t kTasks = 512;
  std::atomic<std::size_t> done{0};
  for (std::size_t i = 0; i < kTasks; ++i) {
    pool.submit([&done, i] {
      burn(i);
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }
  std::vector<std::thread> helpers;
  for (std::size_t h = 0; h < 3; ++h) {
    helpers.emplace_back(
        [&pool, &done] { pool.wait_until([&done] { return done.load() == kTasks; }); });
  }
  pool.wait_until([&done] { return done.load() == kTasks; });
  for (auto& t : helpers) t.join();
  EXPECT_EQ(done.load(), kTasks);
}

// ---- parallel_for -----------------------------------------------------------

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
  // The only worker is busy running the task that calls parallel_for, so
  // the calling task must run every index itself, nested loop included.
  ThreadPool pool{1};
  auto result = pool.submit([&pool] {
    std::vector<std::uint64_t> out(64, 0);
    pool.parallel_for(8, [&pool, &out](std::size_t o) {
      pool.parallel_for(8, [&out, o](std::size_t i) { out[o * 8 + i] = burn(o * 8 + i); });
    });
    return out;
  });
  std::vector<std::future<std::vector<std::uint64_t>>> futures;
  futures.push_back(std::move(result));
  pool.wait_all(futures);
  const std::vector<std::uint64_t> out = futures.front().get();
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
