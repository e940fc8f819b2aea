#include "serve/batch_scorer.h"

#include <algorithm>
#include <utility>

#include "common/hot_path.h"

namespace targad {
namespace serve {

namespace {

uint64_t ElapsedUs(std::chrono::steady_clock::time_point since) {
  const auto d = std::chrono::steady_clock::now() - since;
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(d);
  return us.count() < 0 ? 0 : static_cast<uint64_t>(us.count());
}

}  // namespace

constexpr const char BatchScorer::kDefaultModel[];

BatchScorer::BatchScorer(NamedSnapshotProvider provider,
                         BatchScorerOptions options, ServeMetrics* metrics,
                         ModelLister lister)
    : provider_(std::move(provider)),
      options_(options),
      metrics_(metrics),
      lister_(std::move(lister)) {
  if (options_.max_batch_size == 0) options_.max_batch_size = 1;
  if (options_.max_queue_rows == 0) options_.max_queue_rows = 1;
  if (options_.num_workers == 0) options_.num_workers = 1;
  pool_ = std::make_unique<ThreadPool>(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    pool_->Submit([this] { WorkerLoop(); });
  }
}

BatchScorer::BatchScorer(SnapshotProvider provider, BatchScorerOptions options,
                         ServeMetrics* metrics)
    : BatchScorer(
          [provider = std::move(provider)](const std::string& model)
              -> std::shared_ptr<const core::RowScorer> {
            if (model != kDefaultModel) return nullptr;
            return provider();
          },
          options, metrics) {}

BatchScorer::BatchScorer(std::shared_ptr<const core::TargAdPipeline> pipeline,
                         BatchScorerOptions options, ServeMetrics* metrics)
    : BatchScorer(
          SnapshotProvider([pipeline = std::move(pipeline)] { return pipeline; }),
          options, metrics) {}

BatchScorer::~BatchScorer() { Shutdown(); }

std::future<Result<double>> BatchScorer::Submit(
    std::vector<std::string> cells) {
  return Submit(kDefaultModel, std::move(cells));
}

std::future<Result<double>> BatchScorer::Submit(
    std::string model, std::vector<std::string> cells) {
  Pending request;
  request.model = std::move(model);
  request.cells = std::move(cells);
  std::future<Result<double>> future = request.promise.get_future();
  SubmitPending(std::move(request));
  return future;
}

void BatchScorer::Submit(std::string model, std::vector<std::string> cells,
                         RowCallback done) {
  Pending request;
  request.model = std::move(model);
  request.cells = std::move(cells);
  request.callback = std::move(done);
  SubmitPending(std::move(request));
}

void BatchScorer::SubmitPending(Pending request) {
  request.enqueued = std::chrono::steady_clock::now();
  // Rejections deliver the status directly (promise or callback) without
  // the completed/failed latency metrics — the row never entered a batch.
  auto deliver = [](Pending* rejected, Status status) {
    if (rejected->callback) {
      rejected->callback(std::move(status));
    } else {
      rejected->promise.set_value(std::move(status));
    }
  };
  {
    // Bounded admission critical section: a cap check, a push_back, and a
    // counter bump. No blocking work runs under mu_ on this path (the
    // scorer thread holds it only to swap batches out), so the poll thread
    // cannot stall here.  targad-lint: allow(poll-thread-lock)
    MutexLock lock(&mu_);
    if (stop_) {
      lock.unlock();
      deliver(&request, Status::FailedPrecondition("batch scorer: shut down"));
      return;
    }
    if (queue_.size() >= options_.max_queue_rows) {
      lock.unlock();
      if (metrics_ != nullptr) metrics_->RecordRejected();
      deliver(&request, Status::ResourceExhausted(
                            "batch scorer: admission queue full (",
                            options_.max_queue_rows, " pending rows)"));
      return;
    }
    queue_.push_back(std::move(request));
    ++outstanding_;
  }
  if (metrics_ != nullptr) metrics_->RecordSubmitted();
  queue_cv_.notify_one();
}

void BatchScorer::Drain() {
  MutexLock lock(&mu_);
  DrainLocked(lock);
}

void BatchScorer::DrainLocked(MutexLock& lock) {
  while (outstanding_ != 0) drained_cv_.wait(lock);
}

void BatchScorer::Shutdown() {
  {
    MutexLock lock(&mu_);
    if (stop_) {
      // Already shut down (or shutting down); just wait for the drain.
      DrainLocked(lock);
      return;
    }
    stop_ = true;
  }
  queue_cv_.notify_all();
  Drain();
  pool_.reset();  // Joins the workers.
}

void BatchScorer::WorkerLoop() {
  MutexLock lock(&mu_);
  for (;;) {
    while (!stop_ && queue_.empty()) queue_cv_.wait(lock);
    if (queue_.empty()) {
      if (stop_) return;
      continue;
    }
    // Micro-batch coalescing: give the queue until the oldest request's
    // deadline to fill up to max_batch_size. Skipped when stopping — a
    // shutdown drains as fast as possible.
    if (!stop_ && queue_.size() < options_.max_batch_size) {
      const auto deadline =
          queue_.front().enqueued +
          std::chrono::microseconds(options_.max_queue_delay_us);
      while (!stop_ && queue_.size() < options_.max_batch_size) {
        if (queue_cv_.wait_until(lock, deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
    }
    if (queue_.empty()) continue;  // Another worker took the rows.

    const size_t n = std::min(queue_.size(), options_.max_batch_size);
    std::vector<Pending> batch;
    batch.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    lock.unlock();
    ScoreBatch(&batch);
    // Destroy the fulfilled rows before relocking: a callback's captures
    // (e.g. a net::Session shared_ptr whose last reference dies here) may
    // take their own locks, which must not nest under the queue mutex.
    const size_t batch_size = batch.size();
    batch.clear();
    lock.lock();
    outstanding_ -= batch_size;
    if (outstanding_ == 0) drained_cv_.notify_all();
  }
}

TARGAD_HOT_PATH void BatchScorer::Fulfill(Pending* request,
                                          Result<double> result) {
  if (metrics_ != nullptr) {
    const uint64_t latency_us = ElapsedUs(request->enqueued);
    if (result.ok()) {
      metrics_->RecordCompleted(latency_us);
    } else {
      metrics_->RecordFailed(latency_us);
    }
  }
  if (request->callback) {
    request->callback(std::move(result));
  } else {
    request->promise.set_value(std::move(result));
  }
}

void BatchScorer::ScoreBatch(std::vector<Pending>* batch) {
  // Group by model, preserving submission order inside each group (the map
  // keeps pointers in batch order). A single-model batch — the common case
  // — forms exactly one group and costs one extra map node.
  std::map<std::string, std::vector<Pending*>> groups;
  for (Pending& request : *batch) {
    groups[request.model].push_back(&request);
  }
  for (auto& [model, rows] : groups) {
    ScoreGroup(model, &rows);
  }
}

void BatchScorer::ScoreGroup(const std::string& model,
                             std::vector<Pending*>* rows) {
  std::shared_ptr<const core::RowScorer> snapshot = provider_(model);
  if (metrics_ != nullptr && snapshot != nullptr) {
    const void* raw = snapshot.get();
    MutexLock lock(&swap_mu_);
    const void*& previous = last_snapshot_[model];
    if (previous != nullptr && previous != raw) metrics_->RecordModelSwap();
    previous = raw;
  }

  uint64_t scored = 0, failed = 0;
  auto fulfill = [&](Pending* request, Result<double> result) {
    result.ok() ? ++scored : ++failed;
    Fulfill(request, std::move(result));
  };
  auto record_model = [&] {
    if (metrics_ != nullptr) metrics_->RecordModelRows(model, scored, failed);
  };

  if (snapshot == nullptr) {
    // No snapshot: the default model missing is a service-not-ready
    // condition; any other name is a routing error of that row alone. The
    // NotFound message names the routed model and offers the registered
    // alternatives — composed once per group, shared by every row in it.
    Status failure = Status::OK();
    if (model == kDefaultModel) {
      failure = Status::FailedPrecondition("batch scorer: no model available");
    } else if (!lister_) {
      failure = Status::NotFound("batch scorer: unknown model '", model, "'");
    } else {
      std::string available;
      for (const std::string& name : lister_()) {
        if (!available.empty()) available += ", ";
        available += name;
      }
      failure = available.empty()
                    ? Status::NotFound("batch scorer: unknown model '", model,
                                       "' (no models registered)")
                    : Status::NotFound("batch scorer: unknown model '", model,
                                       "' (available: ", available, ")");
    }
    for (Pending* request : *rows) fulfill(request, failure);
    record_model();
    return;
  }

  // Rows with the wrong arity fail individually up front — the vectorized
  // table requires every row to carry the training feature columns.
  const std::vector<std::string>& columns = snapshot->feature_columns();
  std::vector<Pending*> scorable;
  scorable.reserve(rows->size());
  for (Pending* request : *rows) {
    if (request->cells.size() != columns.size()) {
      fulfill(request,
              Status::InvalidArgument("batch scorer: row has ",
                                      request->cells.size(),
                                      " cells, model expects ",
                                      columns.size()));
    } else {
      scorable.push_back(request);
    }
  }
  if (scorable.empty()) {
    record_model();
    return;
  }

  data::RawTable table;
  table.column_names = columns;
  table.rows.reserve(scorable.size());
  for (Pending* request : scorable) {
    table.rows.push_back(std::move(request->cells));
  }

  if (metrics_ != nullptr) metrics_->RecordBatch(scorable.size());
  Result<std::vector<double>> scores = snapshot->Score(table);
  if (scores.ok() && scores->size() == scorable.size()) {
    for (size_t i = 0; i < scorable.size(); ++i) {
      fulfill(scorable[i], (*scores)[i]);
    }
    record_model();
    return;
  }
  if (scorable.size() == 1) {
    fulfill(scorable[0], scores.ok()
                             ? Status::Internal("batch scorer: score count "
                                                "mismatch")
                             : scores.status());
    record_model();
    return;
  }
  // The vectorized call failed (e.g. one non-numeric cell poisons the whole
  // encoder transform). Re-score row by row so only the offending rows
  // fail; per-row results are bit-identical to the batched ones. The cells
  // now live in the batch table, so each row moves out of it in turn.
  data::RawTable row_table;
  row_table.column_names = std::move(table.column_names);
  row_table.rows.resize(1);
  for (size_t i = 0; i < scorable.size(); ++i) {
    row_table.rows[0] = std::move(table.rows[i]);
    Result<std::vector<double>> row_score = snapshot->Score(row_table);
    if (row_score.ok() && row_score->size() == 1) {
      fulfill(scorable[i], (*row_score)[0]);
    } else {
      fulfill(scorable[i], row_score.ok()
                               ? Status::Internal("batch scorer: score count "
                                                  "mismatch")
                               : row_score.status());
    }
  }
  record_model();
}

}  // namespace serve
}  // namespace targad
