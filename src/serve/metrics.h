// ServeMetrics: lock-cheap counters and fixed-bucket histograms for the
// scoring service. Writers touch only relaxed atomics, so recording from
// the request and batch paths costs a handful of nanoseconds; readers take
// a consistent-enough snapshot (each counter is individually atomic) and
// derive percentiles from the histograms. Every metric is one row of a
// metrics table (TARGAD_SERVE_METRICS below, TARGAD_NET_METRICS in
// net/metrics.h); DESIGN.md §8 "Metrics schema" says what each row counts.

#ifndef TARGAD_SERVE_METRICS_H_
#define TARGAD_SERVE_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>

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

  /// Bucket counts, for snapshots and tests.
  std::array<uint64_t, kNumBuckets> Buckets() const;

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
};

using HistogramBuckets = std::array<uint64_t, Pow2Histogram::kNumBuckets>;

/// Upper bound (exclusive) of the bucket holding the p-quantile sample,
/// the one at the nearest rank ceil(p * total), i.e. a value such that
/// >= p of samples are below it. p in [0, 1], rounded to millionths.
/// Returns 0 when empty.
uint64_t PercentileUpperBound(const HistogramBuckets& buckets, double p);

// A metrics table is an X-macro over four kinds of row, each naming the
// snapshot field, its key in STATS and the exit report, and its unit:
//   C(field, key, unit)            a counter: one relaxed atomic slot;
//   H(field, key, unit)            the bucket counts of the sink's
//                                  Pow2Histogram `field_`, declared by hand
//                                  so targad-lint resolves its Record calls;
//   P(field, key, unit, hist, q)   the q-quantile of histogram `hist`;
//   M(field, key, unit, num, den)  the mean num / den of two counters.
// The appliers below expand a whole table into one piece each, so a new
// counter is one row plus its record call.
#define TARGAD_METRIC_SKIP(...)
#define TARGAD_METRIC_SLOT(field, ...) std::atomic<uint64_t> field{0};
#define TARGAD_METRIC_COUNT(field, ...) uint64_t field = 0;
#define TARGAD_METRIC_BUCKETS(field, ...) \
  ::targad::serve::HistogramBuckets field{};
#define TARGAD_METRIC_RATIO(field, ...) double field = 0.0;
#define TARGAD_METRIC_LOAD(field, ...) \
  s.field = counters_.field.load(std::memory_order_relaxed);
#define TARGAD_METRIC_LOAD_BUCKETS(field, ...) s.field = field##_.Buckets();
#define TARGAD_METRIC_PERCENTILE(field, key, unit, hist, q) \
  s.field = ::targad::serve::PercentileUpperBound(s.hist, q);
#define TARGAD_METRIC_MEAN(field, key, unit, num, den) \
  s.field = s.den == 0 ? 0.0 : static_cast<double>(s.num) / s.den;
#define TARGAD_METRIC_VISIT(field, key, unit, ...) visit(key, unit, field);

/// The sink's counter slots, as the members of a struct.
#define TARGAD_METRICS_SLOTS(TABLE) \
  TABLE(TARGAD_METRIC_SLOT, TARGAD_METRIC_SKIP, TARGAD_METRIC_SKIP, \
        TARGAD_METRIC_SKIP)
/// The snapshot's fields, one per row.
#define TARGAD_METRICS_FIELDS(TABLE)                                  \
  TABLE(TARGAD_METRIC_COUNT, TARGAD_METRIC_BUCKETS, TARGAD_METRIC_COUNT, \
        TARGAD_METRIC_RATIO)
/// The body of a sink's Snapshot(): loads its `counters_` and histograms
/// into the local snapshot `s`, then derives the percentiles and means in
/// a second pass, so a derived row may come before the rows it reads.
#define TARGAD_METRICS_LOADS(TABLE)                                      \
  TABLE(TARGAD_METRIC_LOAD, TARGAD_METRIC_LOAD_BUCKETS, TARGAD_METRIC_SKIP, \
        TARGAD_METRIC_SKIP)                                              \
  TABLE(TARGAD_METRIC_SKIP, TARGAD_METRIC_SKIP, TARGAD_METRIC_PERCENTILE,   \
        TARGAD_METRIC_MEAN)
/// The body of a snapshot's ForEach: visit(key, unit, value) per row.
#define TARGAD_METRICS_VISITS(TABLE)                                     \
  TABLE(TARGAD_METRIC_VISIT, TARGAD_METRIC_VISIT, TARGAD_METRIC_VISIT,   \
        TARGAD_METRIC_VISIT)

/// Renders table rows as text, one ForEach visit at a time. kLine joins
/// "key=value" with single spaces: the STATS payload and a per-model row.
/// kReport writes one "  key=value unit" line per row: the exit report.
/// Every percentile is an exclusive bucket upper bound: p99_us=512 says at
/// least 99% of samples were below 512 us. A histogram renders as
/// "upper:count" for each non-empty bucket, comma-joined, with the same
/// exclusive upper bounds, or as "-" when it is empty.
class MetricsText {
 public:
  enum class Layout { kLine, kReport };

  explicit MetricsText(Layout layout) : layout_(layout) {}

  void operator()(const char* key, const char* unit, uint64_t value);
  void operator()(const char* key, const char* unit, double value);
  void operator()(const char* key, const char* unit,
                  const HistogramBuckets& buckets);

  const std::string& str() const { return text_; }

 private:
  void Append(const char* key, const char* unit, const std::string& value);

  const Layout layout_;
  std::string text_;
};

// Row outcomes of one registered model: rows that got a score, rows that
// got an error. Printed only in the exit report, since model names are
// file stems and may hold spaces or '='.
#define TARGAD_MODEL_ROW_METRICS(C, H, P, M) \
  C(rows_scored, "scored", "rows")           \
  C(rows_failed, "failed", "rows")

struct ModelRowCounters {
  template <typename Visit>
  void ForEach(Visit&& visit) const {
    TARGAD_METRICS_VISITS(TARGAD_MODEL_ROW_METRICS)
  }

  TARGAD_METRICS_FIELDS(TARGAD_MODEL_ROW_METRICS)
};

// The serve metrics table, in rendering order. Registry rows keep STATS's
// `reg_` keys; every other key is its field name. latency_* times a row
// from Submit to its fulfilment; reg_load_* times each model load.
#define TARGAD_SERVE_METRICS(C, H, P, M)                                \
  C(requests_submitted, "requests_submitted", "requests")              \
  C(requests_completed, "requests_completed", "requests")              \
  C(requests_failed, "requests_failed", "requests")                    \
  C(requests_rejected, "requests_rejected", "requests")                \
  C(unknown_model_rows, "unknown_model_rows", "rows")                  \
  C(batches, "batches", "batches")                                     \
  C(rows_scored, "rows_scored", "rows")                                \
  M(mean_batch_size, "mean_batch_size", "rows", rows_scored, batches)  \
  H(batch_size_buckets, "batch_size_buckets", "rows")                  \
  C(model_swaps, "model_swaps", "swaps")                               \
  P(latency_p50_us, "latency_p50_us", "us", latency_buckets, 0.50)     \
  P(latency_p95_us, "latency_p95_us", "us", latency_buckets, 0.95)     \
  P(latency_p99_us, "latency_p99_us", "us", latency_buckets, 0.99)     \
  H(latency_buckets, "latency_buckets", "us")                          \
  C(registry_hits, "reg_hits", "lookups")                              \
  C(registry_misses, "reg_misses", "lookups")                          \
  C(registry_evictions, "reg_evictions", "models")                     \
  C(registry_refreshes, "reg_refreshes", "models")                     \
  C(registry_refresh_polls, "reg_refresh_polls", "polls")              \
  C(registry_refresh_errors, "reg_refresh_errors", "polls")            \
  C(registry_loads, "reg_loads", "loads")                              \
  P(registry_load_p50_us, "reg_load_p50_us", "us", registry_load_buckets, \
    0.50)                                                              \
  P(registry_load_p99_us, "reg_load_p99_us", "us", registry_load_buckets, \
    0.99)                                                              \
  H(registry_load_buckets, "reg_load_buckets", "us")

/// Point-in-time copy of the serve table: one field per table row.
struct MetricsTable {
  TARGAD_METRICS_FIELDS(TARGAD_SERVE_METRICS)

  /// Calls visit(key, unit, value) once per table row, in table order.
  template <typename Visit>
  void ForEach(Visit&& visit) const {
    TARGAD_METRICS_VISITS(TARGAD_SERVE_METRICS)
  }
};

/// The serve table plus the exit report's per-model rows.
struct MetricsSnapshot : MetricsTable {
  /// Row outcomes per registered model name (sorted by name).
  std::map<std::string, ModelRowCounters> per_model;
};

/// Shared metrics sink for one scoring service. All methods are thread-safe;
/// recording on the per-request path never blocks. The per-model counters
/// are the one exception: they take a mutex, so they are recorded once per
/// batch group (amortized), never per row.
class ServeMetrics {
 public:
  void RecordSubmitted(uint64_t rows = 1) {
    Add(&counters_.requests_submitted, rows);
  }
  void RecordRejected(uint64_t rows = 1) {
    Add(&counters_.requests_rejected, rows);
  }
  void RecordModelSwap() { Add(&counters_.model_swaps); }

  /// Rows of one batch group routed to a name the provider does not know.
  /// They count in one counter, not per name: over TCP the name is the
  /// client's token, and a map keyed by it would grow without bound.
  void RecordUnknownModelRows(uint64_t rows) {
    Add(&counters_.unknown_model_rows, rows);
  }

  /// One vectorized Score call over `rows` rows.
  void RecordBatch(uint64_t rows);

  /// Row outcomes of one batch group routed to the registered `model`.
  /// Called once per group, so the mutex cost is amortized over the batch.
  void RecordModelRows(const std::string& model, uint64_t scored,
                       uint64_t failed) TARGAD_EXCLUDES(model_mu_);

  /// End-to-end latency (submit -> promise fulfilled) of one request.
  void RecordCompleted(uint64_t latency_us);
  void RecordFailed(uint64_t latency_us);

  /// Model-registry tiering events. Hit = served from the warm tier; miss =
  /// the model was cold and had to be promoted; eviction = a demotion of
  /// the least-frequently-used warm model to the cold tier. Atomic-only, so the registry may record them while
  /// holding its own mutex.
  void RecordRegistryHit() { Add(&counters_.registry_hits); }
  void RecordRegistryMiss() { Add(&counters_.registry_misses); }
  void RecordRegistryEviction() { Add(&counters_.registry_evictions); }
  /// One model republished by RefreshIfChanged, counted even when another
  /// model in the same pass fails to load.
  void RecordRegistryRefresh() { Add(&counters_.registry_refreshes); }
  /// One RefreshIfChanged pass, and whether it returned an error.
  void RecordRegistryPoll(bool failed) {
    Add(&counters_.registry_refresh_polls);
    if (failed) Add(&counters_.registry_refresh_errors);
  }

  /// One disk load of a model (cold promotion, publish, or refresh) and its
  /// wall time — for a ".tgz1" artifact a read, a checksum and a pointer
  /// fixup; for a text model a parse and a freeze.
  void RecordRegistryLoad(uint64_t load_us);

  /// Every table row, loaded from the atomics alone: no lock and no copy
  /// of the per-model map, so the TCP poll thread may render it for STATS.
  MetricsTable Table() const;

  /// Table() plus the per-model rows, copied under model_mu_.
  MetricsSnapshot Snapshot() const;

  /// The exit report: "serve metrics", every table row as
  /// "  key=value unit", then "  model <name>: scored=N failed=M" per
  /// registered model.
  std::string Report() const;

 private:
  static void Add(std::atomic<uint64_t>* c, uint64_t n = 1) {
    c->fetch_add(n, std::memory_order_relaxed);
  }

  struct Counters {
    TARGAD_METRICS_SLOTS(TARGAD_SERVE_METRICS)
  };
  Counters counters_;
  Pow2Histogram batch_size_buckets_;
  Pow2Histogram latency_buckets_;
  Pow2Histogram registry_load_buckets_;

  mutable RankedMutex model_mu_{LockRank::kServeMetrics};
  std::map<std::string, ModelRowCounters> model_rows_
      TARGAD_GUARDED_BY(model_mu_);
};

}  // namespace serve
}  // namespace targad

#endif  // TARGAD_SERVE_METRICS_H_
