// Fixed-size thread pool with two ways in.
//
//  * submit() + wait_all()/wait_until(): one shared FIFO queue of opaque
//    tasks, no work stealing. The sweep engine uses it; its tasks are
//    multi-millisecond simulations, so a packaged_task, a locked queue push
//    and a sleep-polling wait are all invisible. Results go to pre-assigned
//    slots, so the outcome is independent of scheduling order. Nested
//    waiting is safe: a task that submits subtasks and then calls
//    wait_all()/wait_until() lends its thread to the queue while it waits,
//    so a pool of any size (including 1) cannot deadlock on task
//    dependencies expressed through those calls.
//  * parallel_for(): a fork-join loop for the sharded network, which runs
//    it once per interval or coordinator round with a few microseconds of
//    work per index. It allocates nothing: the job lives on the caller's
//    stack, workers claim indices from one atomic counter, and the caller
//    sleeps on a condition variable until the last helper leaves.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/thread_annotations.hpp"

namespace rtmac {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers. Throws std::invalid_argument on 0.
  explicit ThreadPool(std::size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains the queue (runs every task already submitted), then joins.
  ~ThreadPool();

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Number of hardware threads, with a sane floor of 1.
  [[nodiscard]] static std::size_t hardware_threads();

  /// Enqueues `fn` and returns a future for its result. An exception thrown
  /// by the task is captured and rethrown from future::get().
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    enqueue([task] { (*task)(); });
    return result;
  }

  /// Blocks until every future is ready, executing queued tasks on the
  /// calling thread while it waits (deadlock-free nested wait). Does NOT
  /// call get(): exceptions stay in the futures for the caller to surface.
  template <typename R>
  void wait_all(std::vector<std::future<R>>& futures) {
    for (auto& f : futures) {
      wait_until([&f] {
        return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
      });
    }
  }

  /// Runs queued tasks on the calling thread until `ready()` returns true.
  void wait_until(const std::function<bool()>& ready) RTMAC_EXCLUDES(mutex_);

  /// Calls `body(i)` once for every i in [0, n), on idle workers and on the
  /// calling thread, and returns when every call has returned. Indices are
  /// claimed in ascending order but may run in any order and on any thread.
  /// Allocates nothing and takes no queue slot: `body` is borrowed, not
  /// copied. If a call throws, indices not yet started are skipped, and the
  /// first exception is rethrown once every helper has left the loop. One
  /// loop is open at a time: a call made while another is open (from a
  /// task, a loop body or a second thread) runs serially on its caller, so
  /// it cannot deadlock.
  template <typename F>
  void parallel_for(std::size_t n, F&& body) {
    using Body = std::remove_reference_t<F>;
    const auto call = [](const void* ctx, std::size_t i) {
      (*static_cast<Body*>(const_cast<void*>(ctx)))(i);
    };
    run_for(n, call, std::addressof(body));
  }

 private:
  using Task = std::function<void()>;
  struct ForJob;

  void enqueue(Task task) RTMAC_EXCLUDES(mutex_);
  void worker_loop() RTMAC_EXCLUDES(mutex_);
  /// Pops one task if available; returns false when the queue is empty.
  bool run_one() RTMAC_EXCLUDES(mutex_);
  void run_for(std::size_t n, void (*call)(const void*, std::size_t), const void* ctx)
      RTMAC_EXCLUDES(mutex_);
  /// Claims and runs `job`'s indices until none is left.
  void work_on(ForJob& job) RTMAC_EXCLUDES(mutex_);

  mutable util::Mutex mutex_;
  util::CondVar work_available_;
  util::CondVar job_left_;  ///< a helper left a parallel_for job
  std::deque<Task> queue_ RTMAC_GUARDED_BY(mutex_);
  ForJob* job_ RTMAC_GUARDED_BY(mutex_) = nullptr;  ///< the open parallel_for
  bool stopping_ RTMAC_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace rtmac
