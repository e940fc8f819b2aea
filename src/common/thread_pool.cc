#include "common/thread_pool.h"

#include <algorithm>

namespace targad {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(&mu_);
    // A task enqueued after shutdown began could outlive every worker
    // (each exits once the queue is empty): it would wait in the queue
    // forever and strand in_flight_ above zero. Reject instead.
    if (shutting_down_) return false;
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
  return true;
}

void ThreadPool::Wait() {
  MutexLock lock(&mu_);
  while (in_flight_ != 0) all_done_.wait(lock);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!shutting_down_ && queue_.empty()) task_available_.wait(lock);
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      MutexLock lock(&mu_);
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                             size_t num_threads) {
  if (n == 0) return;
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  if (num_threads == 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  ThreadPool pool(std::min(num_threads, n));
  for (size_t i = 0; i < n; ++i) {
    pool.Submit([&fn, i] { fn(i); });
  }
  pool.Wait();
}

}  // namespace targad
