#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>

namespace rtmac {

/// One parallel_for call, on its caller's stack. `next` is the only field
/// touched without the pool mutex; `helpers` keeps the caller from
/// returning (and destroying the job) while a worker is still inside it.
struct ThreadPool::ForJob {
  void (*call)(const void*, std::size_t);
  const void* ctx;
  std::size_t n;
  std::atomic<std::size_t> next;  ///< next index to claim
  std::size_t helpers;            ///< workers inside work_on; guarded by mutex_
  std::exception_ptr error;       ///< first exception thrown; guarded by mutex_
};

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0 || num_threads > kMaxThreads) {
    throw std::invalid_argument{"ThreadPool: num_threads must be in [1, kMaxThreads]"};
  }
  workers_.reserve(num_threads);
  try {
    for (std::size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // Destroying a joinable std::thread would terminate.
    stop_and_join();
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() {
  {
    const util::LockGuard lock{mutex_};
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::size_t ThreadPool::hardware_threads() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, kMaxThreads);
}

void ThreadPool::worker_loop() {
  // Explicit while-loop rather than the predicate form of wait(): the
  // thread-safety analysis cannot see held capabilities inside a predicate
  // lambda, so the guarded reads of stopping_/job_ live in this scope.
  util::LockGuard lock{mutex_};
  for (;;) {
    while (!stopping_ && job_ == nullptr) work_available_.wait(lock);
    if (job_ == nullptr) return;  // stopping_
    ForJob& job = *job_;
    ++job.helpers;
    lock.unlock();
    work_on(job);
    lock.lock();
    if (job_ == &job) job_ = nullptr;  // exhausted: nothing left to claim
    if (--job.helpers == 0) job_left_.notify_all();
  }
}

void ThreadPool::run_for(std::size_t n, void (*call)(const void*, std::size_t),
                         const void* ctx) {
  ForJob job{call, ctx, n, {0}, 0, nullptr};
  std::size_t wakes = 0;
  {
    const util::LockGuard lock{mutex_};
    // One open job at a time; a nested or concurrent call runs serially.
    if (job_ == nullptr) {
      job_ = &job;
      wakes = std::min(n, workers_.size() + 1);  // the caller takes one index
    }
  }
  for (; wakes > 1; --wakes) work_available_.notify_one();
  work_on(job);
  util::LockGuard lock{mutex_};
  if (job_ == &job) job_ = nullptr;
  while (job.helpers != 0) job_left_.wait(lock);
  if (job.error) std::rethrow_exception(job.error);
}

void ThreadPool::work_on(ForJob& job) {
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) return;
    try {
      job.call(job.ctx, i);
    } catch (...) {
      job.next.store(job.n, std::memory_order_relaxed);  // skip unstarted indices
      const util::LockGuard lock{mutex_};
      if (!job.error) job.error = std::current_exception();
    }
  }
}

}  // namespace rtmac
