// BatchScorer: the micro-batching engine of the scoring service. Callers
// submit single CSV records and get a std::future<Result<double>> back;
// background workers (on a dedicated targad::ThreadPool) coalesce queued
// requests up to max_batch_size / max_queue_delay_us and run ONE vectorized
// RowScorer::ScoreRecords call per batch group, so per-request overhead is
// amortized while tail latency stays bounded by the coalescing delay. The
// worker, not the submitting front-end, splits and encodes each record.
//
// Rows are routed by model name: Submit(model, record) tags the row, the
// plain Submit(record) overload targets kDefaultModel. Workers group each
// micro-batch by model and fetch one snapshot per group, so a batch mixing
// models still runs one vectorized call per model.
//
// Guarantees:
//  - Scores are bit-identical to a serial RowScorer::Score of the same
//    row: every pipeline stage (one-hot, min-max, inference) is
//    row-independent with identical per-row arithmetic at any batch size.
//  - Admission is bounded: past max_queue_rows pending requests, Submit
//    fails fast with Status::ResourceExhausted instead of queueing.
//  - Hot-swap safe: each batch group fetches the current registry snapshot;
//    a concurrent Publish affects only later batches, and the old snapshot
//    stays valid until its last batch completes.
//  - One malformed row fails only its own future, not its batch neighbors;
//    a row naming an unknown model fails with NotFound, and a model the
//    provider cannot serve fails with the provider's status — each only
//    its own group, not the batch.
//
// Wake rule: a worker waits either idle, for a non-empty queue, or
// coalescing, for a full batch or its deadline. So a Submit notifies one
// worker only when its push takes the queue from empty to one row or to a
// multiple of max_batch_size, and a worker that pops a batch and leaves
// rows behind wakes one peer; every other push changes nothing a waiting
// worker acts on. Shutdown wakes them all. A coalescing worker therefore
// sleeps until its deadline, so workers run with a 1 ns timer slack: the
// kernel's default 50 us would be added to every batch that times out.
//
// The callback Submit builds no promise: a std::promise allocates its
// shared state whether or not anyone ever takes its future, so only the
// future overloads build one.

#ifndef TARGAD_SERVE_BATCH_SCORER_H_
#define TARGAD_SERVE_BATCH_SCORER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/lock_rank.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/scorer.h"
#include "serve/metrics.h"

namespace targad {
namespace serve {

struct BatchScorerOptions {
  /// Rows coalesced into one vectorized Score call.
  size_t max_batch_size = 64;
  /// How long a queued request may wait for its batch to fill before the
  /// batch is dispatched anyway.
  int64_t max_queue_delay_us = 200;
  /// Admission bound: pending (unscored) rows past this are rejected with
  /// ResourceExhausted.
  size_t max_queue_rows = 4096;
  /// Concurrent scoring workers; each scores whole batches independently
  /// (the inference path is const and thread-safe).
  size_t num_workers = 1;
};

/// Micro-batched concurrent scoring over immutable scorer snapshots.
class BatchScorer {
 public:
  /// Model name used by the Submit overload without a name.
  static constexpr const char kDefaultModel[] = "default";

  /// Fetches the scorer snapshot for one model; called once per batch
  /// group. Returning nullptr fails that group's rows: FailedPrecondition
  /// for kDefaultModel (no model available), NotFound for any other name
  /// (unknown model). Returning an error status fails them with that
  /// status — e.g. a registered model whose cold promotion cannot load.
  /// Typically ModelRegistry::GetScorer in a lambda, which hands out
  /// core::FrozenScorer snapshots; a lambda returning a plain shared_ptr
  /// converts.
  using NamedSnapshotProvider =
      std::function<Result<std::shared_ptr<const core::RowScorer>>(
          const std::string& model)>;

  /// Names the unknown-model NotFound message can offer as alternatives
  /// ("available: a, b, ..."). Called on the failure path only — once per
  /// failed batch group, never per row. Typically ModelRegistry::ListNames
  /// in a lambda; both the stdio and TCP ERR paths share the message.
  using ModelLister = std::function<std::vector<std::string>()>;

  BatchScorer(NamedSnapshotProvider provider, BatchScorerOptions options,
              ServeMetrics* metrics = nullptr, ModelLister lister = nullptr);

  /// Shuts down (drains pending requests, joins workers).
  ~BatchScorer();

  BatchScorer(const BatchScorer&) = delete;
  BatchScorer& operator=(const BatchScorer&) = delete;

  /// Completion hook of the callback Submit overload. Invoked exactly once
  /// per submitted row with the row's score or failing Status — from a
  /// scoring worker on the normal path, or synchronously on the submitting
  /// thread when admission rejects the row (ResourceExhausted /
  /// FailedPrecondition-after-shutdown). The callback runs with no scorer
  /// locks held; it must not block for long (it stalls a whole batch) and
  /// must not re-enter Submit recursively on the rejection path.
  using RowCallback = std::function<void(Result<double>)>;

  /// Submits one CSV record routed to `model`: its fields are the row's
  /// cells in the model's feature_columns() order, plus a label field at
  /// index `label_col` (-1: none) that is dropped (see
  /// core::RowScorer::Record). The future resolves to the row's S^tar
  /// score, or to a failing Status: ResourceExhausted when the admission
  /// queue is full, FailedPrecondition after Shutdown or when no default
  /// model is available, NotFound for an unknown model name,
  /// InvalidArgument for a malformed row.
  std::future<Result<double>> Submit(std::string model, std::string record,
                                     int label_col = -1) TARGAD_EXCLUDES(mu_);

  /// Submit(kDefaultModel, record).
  std::future<Result<double>> Submit(std::string record);

  /// Callback flavour of Submit, for event-driven front-ends (the TCP
  /// responder stage): instead of parking a thread on a future, `done` is
  /// invoked with the row's result. Same admission/ordering semantics as
  /// the future overload; rejections invoke `done` before returning.
  void Submit(std::string model, std::string record, int label_col,
              RowCallback done) TARGAD_EXCLUDES(mu_);

  /// Blocks until every admitted request has been fulfilled.
  void Drain() TARGAD_EXCLUDES(mu_);

  /// Stops admission, drains, and joins the workers. Idempotent.
  void Shutdown() TARGAD_EXCLUDES(mu_);

  const BatchScorerOptions& options() const { return options_; }

 private:
  struct Pending {
    std::string model;
    std::string record;
    int label_col = -1;
    /// Exactly one of the two delivery channels is armed: the promise for
    /// the future overloads, `callback` for the callback overload.
    std::optional<std::promise<Result<double>>> promise;
    RowCallback callback;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// Shared admission path: enqueues `request` or fulfils it inline with
  /// the rejection status (queue full / shut down).
  void SubmitPending(Pending request) TARGAD_EXCLUDES(mu_);

  /// The failure of a group whose provider returned nullptr: no default
  /// model, or an unknown name with the registered alternatives.
  Status MissingModel(const std::string& model) const;

  void WorkerLoop() TARGAD_EXCLUDES(mu_);
  /// Waits until outstanding_ hits zero; `lock` must hold mu_.
  void DrainLocked(MutexLock& lock) TARGAD_REQUIRES(mu_);
  void ScoreBatch(std::vector<Pending>* batch) TARGAD_EXCLUDES(mu_);
  void ScoreGroup(const std::string& model, std::vector<Pending*>* rows)
      TARGAD_EXCLUDES(mu_, swap_mu_);
  void Fulfill(Pending* request, Result<double> result);

  NamedSnapshotProvider provider_;
  BatchScorerOptions options_;
  ServeMetrics* metrics_;
  /// Set at construction, before the workers start; read-only afterwards.
  ModelLister lister_;

  /// Lock order (rank-enforced): mu_ (kBatchScorerQueue) before swap_mu_
  /// (kBatchScorerSwap); in practice the two are never nested — workers
  /// release mu_ before scoring, and swap detection runs lock-free of mu_.
  RankedMutex mu_{LockRank::kBatchScorerQueue};
  std::condition_variable_any queue_cv_;    // Work available / batch filling.
  std::condition_variable_any drained_cv_;  // outstanding_ hit zero.
  std::deque<Pending> queue_ TARGAD_GUARDED_BY(mu_);
  /// Admitted but not yet fulfilled.
  size_t outstanding_ TARGAD_GUARDED_BY(mu_) = 0;
  bool stop_ TARGAD_GUARDED_BY(mu_) = false;

  /// Raw pointer of the previously scored snapshot per model, for swap
  /// detection. Touched once per batch group.
  RankedMutex swap_mu_{LockRank::kBatchScorerSwap};
  std::map<std::string, const void*> last_snapshot_
      TARGAD_GUARDED_BY(swap_mu_);

  /// Declared last so workers join before the state above is destroyed;
  /// written only from the constructor and the first Shutdown to cross the
  /// stop_ edge, which the drain serializes.
  std::unique_ptr<ThreadPool> pool_;  // targad-lint: allow(mutex-guarded-by)
};

}  // namespace serve
}  // namespace targad

#endif  // TARGAD_SERVE_BATCH_SCORER_H_
