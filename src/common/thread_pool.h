// Fixed-size worker pool. Through ParallelFor it runs the elbow's k-means
// fits and trains the k cluster autoencoders in parallel (Algorithm 1,
// lines 2-5); it also runs BatchScorer's scoring workers.

#ifndef TARGAD_COMMON_THREAD_POOL_H_
#define TARGAD_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/lock_rank.h"
#include "common/thread_annotations.h"

namespace targad {

/// A minimal fixed-size thread pool with an unbounded queue. Tasks are
/// void() callables; exceptions must not escape tasks (the library is
/// exception-free at its boundaries).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>=1; 0 means hardware_concurrency).
  explicit ThreadPool(size_t num_threads = 0);

  /// Drains every task already accepted, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution. Returns true if the task
  /// was accepted; false only when the pool is shutting down (a task that
  /// submits more work while the destructor drains), in which case the
  /// task is destroyed without running.
  bool Submit(std::function<void()> task) TARGAD_EXCLUDES(mu_);

  /// Blocks until every submitted task has finished.
  void Wait() TARGAD_EXCLUDES(mu_);

  size_t num_threads() const { return workers_.size(); }

  /// Runs fn(i) for i in [0, n) across the pool and waits for completion.
  /// fn must be safe to invoke concurrently for distinct i. With one thread
  /// or one task no pool is started: fn runs inline on the calling thread,
  /// in index order (callers pass num_threads = 1 to run serially).
  static void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                          size_t num_threads = 0);

 private:
  void WorkerLoop() TARGAD_EXCLUDES(mu_);

  // Written in the constructor and joined in the destructor only; the
  // workers themselves never touch it. Declared ABOVE the mutex (the
  // project convention: everything below a mutex is guarded by it).
  std::vector<std::thread> workers_;

  RankedMutex mu_{LockRank::kThreadPool};
  std::condition_variable_any task_available_;
  std::condition_variable_any all_done_;
  std::deque<std::function<void()>> queue_ TARGAD_GUARDED_BY(mu_);
  size_t in_flight_ TARGAD_GUARDED_BY(mu_) = 0;
  bool shutting_down_ TARGAD_GUARDED_BY(mu_) = false;
};

}  // namespace targad

#endif  // TARGAD_COMMON_THREAD_POOL_H_
