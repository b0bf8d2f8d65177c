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

/// A fixed-size pool of worker threads: the network server's session
/// runner. A governed computation (an evaluation, a method application, a
/// decision) runs on its caller's thread; concurrency lives between server
/// sessions, each a task posted here.
///
/// Exactly max(1, num_workers) threads are created at construction and
/// joined at destruction. Tasks must not throw; a task communicates failure
/// through its own state, keeping the pool oblivious to error policy.
class ThreadPool {
 public:
  /// Spawns exactly max(1, num_workers) worker threads.
  explicit ThreadPool(std::size_t num_workers);

  /// Drains pending work and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_workers() const { return workers_.size(); }

  /// Enqueues a fire-and-forget task on the pool (the network server posts
  /// its session loops this way). There is no completion barrier: the
  /// caller is responsible for its own lifecycle signalling (the server
  /// counts active sessions under a condition variable). Tasks posted
  /// before destruction are drained: the destructor lets workers finish the
  /// queue before joining, so a posted task always runs.
  void Post(std::function<void()> task);

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
