#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

namespace rtmac {
namespace {

TEST(ThreadPoolTest, ZeroThreadsThrows) {
  EXPECT_THROW(ThreadPool{0}, std::invalid_argument);
}

TEST(ThreadPoolTest, MoreThreadsThanTheCeilingThrowsBeforeSpawning) {
  // The size check comes first, so this starts no thread.
  EXPECT_THROW(ThreadPool{ThreadPool::kMaxThreads + 1}, std::invalid_argument);
}

TEST(ThreadPoolTest, ReportsSizeAndHardwareFloor) {
  ThreadPool pool{3};
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_GE(ThreadPool::hardware_threads(), 1u);
  EXPECT_LE(ThreadPool::hardware_threads(), ThreadPool::kMaxThreads);
}

TEST(ThreadPoolTest, ParallelForRunsOnEveryWorkerAndTheCaller) {
  // A pool of w workers runs w + 1 bodies at once: the caller takes indices
  // beside the workers. Each body waits until all w + 1 have started, which
  // only w + 1 distinct threads can bring about.
  for (const std::size_t workers : {1UL, 3UL}) {
    ThreadPool pool{workers};
    const std::size_t n = workers + 1;
    std::mutex mutex;
    std::condition_variable all_in;
    std::set<std::thread::id> threads;
    bool timed_out = false;
    pool.parallel_for(n, [&](std::size_t) {
      std::unique_lock lock{mutex};
      threads.insert(std::this_thread::get_id());
      all_in.notify_all();
      if (!all_in.wait_for(lock, std::chrono::seconds(30),
                           [&] { return threads.size() == n; })) {
        timed_out = true;
      }
    });
    EXPECT_FALSE(timed_out) << "workers=" << workers;
    EXPECT_EQ(threads.size(), n) << "workers=" << workers;
    EXPECT_EQ(threads.count(std::this_thread::get_id()), 1U) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace rtmac
