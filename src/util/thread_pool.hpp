// Fixed-size thread pool with one entry point: parallel_for(), a fork-join
// loop. The sweep engine runs one loop over all of its (scheme, point, rep)
// tasks; the sharded network runs one per interval or coordinator round,
// with a few microseconds of work per index. It allocates nothing: the job
// lives on the caller's stack, workers claim indices from one atomic
// counter, and the caller takes indices beside them, then sleeps on a
// condition variable until the last helper leaves. Results go to slots
// chosen by index, so the outcome is independent of scheduling order.
#pragma once

#include <cstddef>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/thread_annotations.hpp"

namespace rtmac {

class ThreadPool {
 public:
  /// Ceiling on the workers of one pool; the worker-count flags and
  /// NetworkConfig::validate check against it too.
  static constexpr std::size_t kMaxThreads = 1024;

  /// Spawns `num_threads` workers. Throws std::invalid_argument on 0 or
  /// above kMaxThreads, before any thread starts. A failed spawn joins the
  /// workers already started and rethrows.
  explicit ThreadPool(std::size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins the workers. Must not run while a parallel_for is open.
  ~ThreadPool();

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Number of hardware threads, clamped to [1, kMaxThreads].
  [[nodiscard]] static std::size_t hardware_threads();

  /// Calls `body(i)` once for every i in [0, n), on idle workers and on the
  /// calling thread, and returns when every call has returned. Indices are
  /// claimed in ascending order but may run in any order and on any thread.
  /// Allocates nothing: `body` is borrowed, not copied. If a call throws,
  /// indices not yet started are skipped, and the first exception in time
  /// is rethrown once every helper has left the loop. One loop is open at a
  /// time: a call made while another is open (from a loop body or a second
  /// thread) runs serially on its caller, so it cannot deadlock.
  template <typename F>
  void parallel_for(std::size_t n, F&& body) {
    using Body = std::remove_reference_t<F>;
    const auto call = [](const void* ctx, std::size_t i) {
      (*static_cast<Body*>(const_cast<void*>(ctx)))(i);
    };
    run_for(n, call, std::addressof(body));
  }

 private:
  struct ForJob;

  void worker_loop() RTMAC_EXCLUDES(mutex_);
  void stop_and_join() RTMAC_EXCLUDES(mutex_);
  void run_for(std::size_t n, void (*call)(const void*, std::size_t), const void* ctx)
      RTMAC_EXCLUDES(mutex_);
  /// Claims and runs `job`'s indices until none is left.
  void work_on(ForJob& job) RTMAC_EXCLUDES(mutex_);

  mutable util::Mutex mutex_;
  util::CondVar work_available_;
  util::CondVar job_left_;  ///< a helper left a parallel_for job
  ForJob* job_ RTMAC_GUARDED_BY(mutex_) = nullptr;  ///< the open parallel_for
  bool stopping_ RTMAC_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace rtmac
