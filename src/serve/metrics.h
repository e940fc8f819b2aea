// ServeMetrics: lock-cheap counters and fixed-bucket histograms for the
// scoring service. Writers touch only relaxed atomics, so recording from
// the request and batch paths costs a handful of nanoseconds; readers take
// a consistent-enough snapshot (each counter is individually atomic) and
// derive percentiles from the histograms.

#ifndef TARGAD_SERVE_METRICS_H_
#define TARGAD_SERVE_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/hot_path.h"
#include "common/lock_rank.h"
#include "common/thread_annotations.h"

namespace targad {
namespace serve {

/// Microseconds elapsed since `since`, clamped at 0: the unit every serve
/// and net latency histogram records.
TARGAD_HOT_PATH inline uint64_t ElapsedUs(
    std::chrono::steady_clock::time_point since) {
  const auto d = std::chrono::steady_clock::now() - since;
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(d);
  return us.count() < 0 ? 0 : static_cast<uint64_t>(us.count());
}

/// Power-of-two-bucket histogram of non-negative integer samples: bucket i
/// counts samples in [2^(i-1), 2^i) (bucket 0 counts {0}), saturating in
/// the last bucket. With kNumBuckets = 32 the covered range is [0, 2^31),
/// enough for latencies in microseconds (~36 minutes) and batch sizes.
class Pow2Histogram {
 public:
  static constexpr size_t kNumBuckets = 32;

  void Record(uint64_t value);

  /// Total recorded samples.
  uint64_t Count() const;

  /// Upper bound (exclusive) of the bucket holding the p-quantile sample,
  /// the one at the nearest rank ceil(p * Count()), i.e. a value such that
  /// >= p of samples are below it. p in [0, 1], rounded to millionths.
  /// Returns 0 when empty.
  uint64_t PercentileUpperBound(double p) const;

  /// Bucket counts, for dumps and tests.
  std::array<uint64_t, kNumBuckets> Buckets() const;

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
};

/// Per-model row outcomes (multi-model routing).
struct ModelRowCounters {
  uint64_t rows_scored = 0;
  uint64_t rows_failed = 0;
};

/// Point-in-time copy of every metric, with derived percentiles.
struct MetricsSnapshot {
  uint64_t requests_submitted = 0;   ///< Accepted into the queue.
  uint64_t requests_rejected = 0;    ///< Bounced with ResourceExhausted.
  uint64_t requests_completed = 0;   ///< Promise fulfilled with a score.
  uint64_t requests_failed = 0;      ///< Promise fulfilled with an error.
  uint64_t batches = 0;              ///< Vectorized Score calls.
  uint64_t rows_scored = 0;          ///< Rows across all batches.
  uint64_t model_swaps = 0;          ///< Registry publishes observed.
  double mean_batch_size = 0.0;
  uint64_t latency_p50_us = 0;
  uint64_t latency_p95_us = 0;
  uint64_t latency_p99_us = 0;
  /// Model-registry tiering counters (zero when no registry is attached):
  /// warm-tier lookups, cold-tier promotions (each one a disk load),
  /// demotions, models RefreshIfChanged republished, and the latency
  /// distribution of the loads themselves.
  uint64_t registry_hits = 0;
  uint64_t registry_misses = 0;
  uint64_t registry_evictions = 0;
  uint64_t registry_refreshes = 0;
  uint64_t registry_loads = 0;
  uint64_t registry_load_p50_us = 0;
  uint64_t registry_load_p99_us = 0;
  std::array<uint64_t, Pow2Histogram::kNumBuckets> batch_size_buckets{};
  std::array<uint64_t, Pow2Histogram::kNumBuckets> latency_buckets{};
  std::array<uint64_t, Pow2Histogram::kNumBuckets> registry_load_buckets{};
  /// Row outcomes per routed model name (sorted by name).
  std::map<std::string, ModelRowCounters> per_model;

  /// Multi-line human-readable report (the CLI prints this on exit).
  std::string ToText() const;
};

/// Shared metrics sink for one scoring service. All methods are thread-safe;
/// recording on the per-request path never blocks. The per-model counters
/// are the one exception: they take a mutex, so they are recorded once per
/// batch group (amortized), never per row.
class ServeMetrics {
 public:
  void RecordSubmitted() { Add(&requests_submitted_); }
  void RecordRejected() { Add(&requests_rejected_); }
  void RecordModelSwap() { Add(&model_swaps_); }

  /// One vectorized Score call over `rows` rows.
  void RecordBatch(uint64_t rows);

  /// Row outcomes of one batch group routed to `model`. Called once per
  /// group, so the mutex cost is amortized over the batch.
  void RecordModelRows(const std::string& model, uint64_t scored,
                       uint64_t failed) TARGAD_EXCLUDES(model_mu_);

  /// End-to-end latency (submit -> promise fulfilled) of one request.
  void RecordCompleted(uint64_t latency_us);
  void RecordFailed(uint64_t latency_us);

  /// Model-registry tiering events. Hit = served from the warm tier; miss =
  /// the model was cold and had to be promoted; eviction = a demotion of
  /// the least-frequently-used warm model to the cold tier. Atomic-only, so the registry may record them while
  /// holding its own mutex.
  void RecordRegistryHit() { Add(&registry_hits_); }
  void RecordRegistryMiss() { Add(&registry_misses_); }
  void RecordRegistryEviction() { Add(&registry_evictions_); }
  /// One model republished by RefreshIfChanged, counted even when another
  /// model in the same pass fails to load.
  void RecordRegistryRefresh() { Add(&registry_refreshes_); }

  /// One disk load of a model (cold promotion, publish, or refresh) and its
  /// wall time — for a ".tgz1" artifact a read, a checksum and a pointer
  /// fixup; for a text model a parse and a freeze.
  void RecordRegistryLoad(uint64_t load_us);

  MetricsSnapshot Snapshot() const;

  /// Snapshot().ToText().
  std::string Report() const { return Snapshot().ToText(); }

 private:
  static void Add(std::atomic<uint64_t>* c) {
    c->fetch_add(1, std::memory_order_relaxed);
  }

  std::atomic<uint64_t> requests_submitted_{0};
  std::atomic<uint64_t> requests_rejected_{0};
  std::atomic<uint64_t> requests_completed_{0};
  std::atomic<uint64_t> requests_failed_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> rows_scored_{0};
  std::atomic<uint64_t> model_swaps_{0};
  std::atomic<uint64_t> registry_hits_{0};
  std::atomic<uint64_t> registry_misses_{0};
  std::atomic<uint64_t> registry_evictions_{0};
  std::atomic<uint64_t> registry_refreshes_{0};
  std::atomic<uint64_t> registry_loads_{0};
  Pow2Histogram batch_sizes_;
  Pow2Histogram latencies_us_;
  Pow2Histogram registry_load_us_;

  mutable RankedMutex model_mu_{LockRank::kServeMetrics};
  std::map<std::string, ModelRowCounters> model_rows_
      TARGAD_GUARDED_BY(model_mu_);
};

}  // namespace serve
}  // namespace targad

#endif  // TARGAD_SERVE_METRICS_H_
