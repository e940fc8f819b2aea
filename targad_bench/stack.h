// The serving stack under test, assembled from the library's public APIs
// the way `targad serve` assembles it, plus the trace run's instrumentation
// of the scoring layer.

#ifndef TARGAD_BENCH_HARNESS_STACK_H_
#define TARGAD_BENCH_HARNESS_STACK_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/scorer.h"
#include "net/metrics.h"
#include "net/server.h"
#include "serve/batch_scorer.h"
#include "serve/metrics.h"
#include "serve/model_registry.h"
#include "trace.h"

namespace targad {
namespace harness {

class ProbedScorer;

/// Times the scoring layer from outside the library in traced runs. The
/// snapshot provider times ModelRegistry::GetScorer and hands BatchScorer
/// a RowScorer decorator that times each vectorized Score call. Both run
/// on the same scoring worker, one after the other, so a thread-local
/// carries the batch's start from the first to the second. Every 32nd batch
/// becomes a "batch" span (GetScorer start to Score end) with children
/// "registry.get" and "core.score"; the totals count every batch.
class ScoreProbe {
 public:
  explicit ScoreProbe(Tracer* tracer) : tracer_(tracer) {}

  ScoreProbe(const ScoreProbe&) = delete;
  ScoreProbe& operator=(const ScoreProbe&) = delete;

  /// Span that new batch spans are parented to (the current phase).
  void set_parent(uint64_t span) {
    parent_.store(span, std::memory_order_relaxed);
  }
  /// While inactive the provider hands out bare snapshots (the untraced
  /// half of the overhead comparison).
  void set_active(bool active) {
    active_.store(active, std::memory_order_relaxed);
  }
  bool active() const { return active_.load(std::memory_order_relaxed); }

  /// Wraps the snapshot GetScorer returned for `model`. The decorator is
  /// reused while the snapshot stays the same, so BatchScorer's swap
  /// counter sees real swaps only.
  std::shared_ptr<const core::RowScorer> Wrap(
      const std::string& model, std::shared_ptr<const core::RowScorer> inner,
      Clock::time_point get_start, Clock::time_point get_end);

  struct Totals {
    uint64_t rows = 0;
    uint64_t score_ns = 0;
  };
  Totals totals() const;

  /// GetScorer latency of every probed batch, in nanoseconds.
  std::vector<uint64_t> get_ns() const;

 private:
  friend class ProbedScorer;
  void OnScore(Clock::time_point start, Clock::time_point end, size_t rows);

  Tracer* const tracer_;
  std::atomic<uint64_t> parent_{0};
  std::atomic<bool> active_{true};
  std::atomic<uint64_t> calls_{0};
  std::atomic<uint64_t> rows_{0};
  std::atomic<uint64_t> score_ns_{0};
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const ProbedScorer>> wrappers_;
  std::vector<uint64_t> get_ns_;  // Guarded by mu_, like wrappers_.
};

/// ModelRegistry -> BatchScorer (2 workers, batch 64, 200 us delay, queue
/// 4096: the `targad serve` defaults) -> optionally a TcpServer on an
/// ephemeral loopback port. Load models into `registry` before Start.
class Stack {
 public:
  /// `probe` may be null (untraced runs); it must outlive the stack.
  explicit Stack(ScoreProbe* probe);

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  [[nodiscard]] Status Start(bool tcp);

  serve::BatchScorer* scorer() { return scorer_.get(); }
  uint16_t port() const { return server_ ? server_->port() : 0; }

  // Declared before the scorer and server, which use them, so they are
  // destroyed after both.
  serve::ServeMetrics serve_metrics;
  serve::ModelRegistry registry;
  net::NetMetrics net_metrics;

  static constexpr size_t kWorkers = 2;

 private:
  std::shared_ptr<const core::RowScorer> Snapshot(const std::string& model);

  ScoreProbe* const probe_;
  std::unique_ptr<serve::BatchScorer> scorer_;
  std::unique_ptr<net::TcpServer> server_;
};

/// The serve.batch.* and serve.registry.* per-layer metrics: the stack's
/// ServeMetrics counters plus the probe's GetScorer timings.
void AddServeMetrics(const Stack& stack, const ScoreProbe& probe,
                     std::map<std::string, double>* metrics);

/// Sends one request line to a started TCP stack and checks the reply.
[[nodiscard]] Status FirstReply(uint16_t port, const std::string& line,
                                const std::string& expected);

}  // namespace harness
}  // namespace targad

#endif  // TARGAD_BENCH_HARNESS_STACK_H_
