#ifndef SETREC_CORE_THREAD_POOL_H_
#define SETREC_CORE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace setrec {

/// A fixed-size pool of worker threads for the data-parallel kernels
/// (partitioned hash-join probes).
///
/// Design constraints, in order:
///   1. *Deterministic results.* The pool never decides in which order
///      results are combined — ParallelFor hands out task indices and the
///      caller merges per-index outputs in index order, so the observable
///      outcome of a parallel computation is independent of scheduling.
///   2. *No surprise threads.* Exactly `num_workers` threads are created at
///      construction and joined at destruction; ParallelFor(1, f) and a
///      1-worker pool degrade to strictly sequential execution.
///   3. *Status, not exceptions.* Tasks must not throw; governed kernels
///      communicate failure by writing a Status into their per-index slot
///      (see ParallelApply), keeping the pool oblivious to error policy.
///
/// A pool is reusable and thread-compatible: concurrent ParallelFor calls
/// from different threads are safe (each call tracks its own completion),
/// though the intended pattern is one orchestrating thread per pool.
class ThreadPool {
 public:
  /// Spawns exactly max(1, num_workers) worker threads.
  explicit ThreadPool(std::size_t num_workers);

  /// Drains pending work and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_workers() const { return workers_.size(); }

  /// Runs fn(i) for every i in [0, num_tasks), distributing indices across
  /// the workers in increasing claim order, and blocks until all complete.
  /// `fn` must not throw; distinct indices may run concurrently, so fn must
  /// only touch per-index state (or properly synchronized shared state).
  void ParallelFor(std::size_t num_tasks,
                   const std::function<void(std::size_t)>& fn);

  /// Enqueues a fire-and-forget task on the pool (the network server posts
  /// its session loops this way). Unlike ParallelFor there is no completion
  /// barrier: the caller is responsible for its own lifecycle signalling
  /// (the server counts active sessions under a condition variable). Tasks
  /// posted before destruction are drained: the destructor lets workers
  /// finish the queue before joining, so a posted task always runs.
  void Post(std::function<void()> task);

  /// std::thread::hardware_concurrency clamped to [1, 64] (0 on exotic
  /// platforms means "unknown", which we treat as 1).
  static std::size_t DefaultWorkerCount();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace setrec

#endif  // SETREC_CORE_THREAD_POOL_H_
