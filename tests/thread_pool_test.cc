#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace targad {
namespace {

TEST(ThreadPoolTest, ExecutesAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsIdempotent) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, WorksWithSingleThread) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  for (int i = 0; i < 10; ++i) pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.Submit([&counter] { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, TasksCanSubmitMoreTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&pool, &counter] {
    counter.fetch_add(1);
    pool.Submit([&counter] { counter.fetch_add(10); });
  });
  pool.Wait();
  EXPECT_EQ(counter.load(), 11);
}

// Parks the pool's single worker until Release() is called, so a test can
// queue work behind it deterministically.
class WorkerGate {
 public:
  void Block() {
    std::unique_lock<std::mutex> lock(mu_);
    entered_ = true;
    entered_cv_.notify_all();
    release_cv_.wait(lock, [this] { return released_; });
  }
  void WaitUntilBlocked() {
    std::unique_lock<std::mutex> lock(mu_);
    entered_cv_.wait(lock, [this] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    release_cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable entered_cv_;
  std::condition_variable release_cv_;
  bool entered_ = false;
  bool released_ = false;
};

// Work that is queued but not yet started when the destructor begins must
// still run: the destructor drains the queue before it joins the workers.
TEST(ThreadPoolTest, DestructorDrainsQueuedButUnstartedWork) {
  std::atomic<int> ran{0};
  WorkerGate gate;
  std::thread releaser;
  {
    ThreadPool pool(1);
    pool.Submit([&gate, &ran] {
      gate.Block();
      ran.fetch_add(1);
    });
    gate.WaitUntilBlocked();
    // Eight tasks sit queued-but-unstarted behind the parked worker.
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }));
    }
    // Open the gate only after the destructor has begun, so destruction
    // genuinely races a queue of unstarted work.
    releaser = std::thread([&gate] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      gate.Release();
    });
  }  // Destructor must run all nine accepted tasks before joining.
  releaser.join();
  EXPECT_EQ(ran.load(), 9);
}

// A task that submits more work after the destructor has begun is refused:
// once the queue drains every worker exits, so a task queued then could
// never run. Whatever the pool accepted before that still runs, and the
// destructor returns.
TEST(ThreadPoolTest, SubmitDuringShutdownIsRefused) {
  std::atomic<int> probes_ran{0};
  int probes_accepted = 0;
  bool refused = false;
  WorkerGate gate;
  std::thread releaser;
  {
    ThreadPool pool(1);
    pool.Submit([&] {
      gate.Block();
      // The gate opens 50 ms into the destructor, so the first Submit is
      // normally refused. Should the destructor start later, each probe
      // accepted before it does queues behind this task and still runs;
      // the bound turns a Submit that never refuses into a failure rather
      // than a hang.
      for (int attempt = 0; attempt < 5000 && !refused; ++attempt) {
        if (pool.Submit([&probes_ran] { probes_ran.fetch_add(1); })) {
          ++probes_accepted;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        } else {
          refused = true;
        }
      }
    });
    gate.WaitUntilBlocked();
    releaser = std::thread([&gate] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      gate.Release();
    });
  }  // ~ThreadPool: refuses the task's Submit, drains the probes, joins.
  releaser.join();
  EXPECT_TRUE(refused);
  EXPECT_EQ(probes_ran.load(), probes_accepted);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(64);
  ThreadPool::ParallelFor(64, [&hits](size_t i) { hits[i].fetch_add(1); }, 4);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, ZeroIterationsIsNoop) {
  ThreadPool::ParallelFor(0, [](size_t) { FAIL() << "must not run"; }, 4);
}

TEST(ParallelForTest, SingleThreadFallbackPreservesOrder) {
  std::vector<size_t> order;
  ThreadPool::ParallelFor(5, [&order](size_t i) { order.push_back(i); }, 1);
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, ComputesCorrectAggregate) {
  std::vector<double> out(1000, 0.0);
  ThreadPool::ParallelFor(out.size(), [&out](size_t i) {
    out[i] = static_cast<double>(i) * 2.0;
  });
  double sum = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_DOUBLE_EQ(sum, 999.0 * 1000.0);
}

}  // namespace
}  // namespace targad
