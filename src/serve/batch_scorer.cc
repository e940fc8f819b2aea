#include "serve/batch_scorer.h"

#include <sys/prctl.h>

#include <algorithm>
#include <utility>

#include "common/hot_path.h"
#include "common/logging.h"

namespace targad {
namespace serve {

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

BatchScorer::~BatchScorer() { Shutdown(); }

std::future<Result<double>> BatchScorer::Submit(std::string record) {
  return Submit(kDefaultModel, std::move(record));
}

std::future<Result<double>> BatchScorer::Submit(std::string model,
                                                std::string record,
                                                int label_col) {
  Row row{std::move(model), std::move(record), label_col, nullptr};
  std::promise<Result<double>> promise;
  std::future<Result<double>> future = promise.get_future();
  Admit(&row, 1, &promise);
  return future;
}

void BatchScorer::Submit(std::vector<Row>* rows) {
  Admit(rows->data(), rows->size(), nullptr);
}

void BatchScorer::Admit(Row* rows, size_t n,
                        std::promise<Result<double>>* promise) {
  // A promise is the channel of one row: a second row would move from it.
  TARGAD_DCHECK(promise == nullptr || n == 1);
  const auto now = std::chrono::steady_clock::now();
  bool stopped = false;
  size_t admitted = 0;
  size_t wakes = 0;
  {
    // Bounded admission critical section: a cap check, one push_back per
    // row, and a counter bump. No blocking work runs under mu_ on this
    // path (the scorer thread holds it only to swap batches out), so the
    // poll thread cannot stall here.  targad-lint: allow(poll-thread-lock)
    MutexLock lock(&mu_);
    stopped = stop_;
    if (!stopped) {
      admitted = std::min(
          n, options_.max_queue_rows -
                 std::min(queue_.size(), options_.max_queue_rows));
      for (size_t i = 0; i < admitted; ++i) {
        Pending& pending = queue_.emplace_back();
        pending.row = std::move(rows[i]);
        if (promise != nullptr) pending.promise.emplace(std::move(*promise));
        pending.enqueued = now;
        // The wake rule (header): only these pushes change what a waiting
        // worker does.
        if (queue_.size() == 1 ||
            queue_.size() % options_.max_batch_size == 0) {
          ++wakes;
        }
      }
      outstanding_ += admitted;
    }
  }
  if (metrics_ != nullptr && admitted != 0) {
    metrics_->RecordSubmitted(admitted);
  }
  for (; wakes > 0; --wakes) queue_cv_.notify_one();
  if (admitted == n) return;
  if (metrics_ != nullptr && !stopped) metrics_->RecordRejected(n - admitted);
  // Rejections deliver the status directly, without the completed/failed
  // latency metrics — the rows never entered a batch.
  const Status rejection =
      stopped ? Status::FailedPrecondition("batch scorer: shut down")
              : Status::ResourceExhausted(
                    "batch scorer: admission queue full (",
                    options_.max_queue_rows, " pending rows)");
  for (size_t i = admitted; i < n; ++i) {
    if (promise != nullptr) {
      promise->set_value(rejection);
    } else {
      rows[i].done(rejection);
    }
  }
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
  // The capped wait ends on its timer (no per-row wakeup cuts it short),
  // and the default 50 us timer slack would add to every capped batch.
  (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const auto delay = std::chrono::microseconds(options_.max_queue_delay_us);
  MutexLock lock(&mu_);
  for (;;) {
    while (!stop_ && queue_.empty()) queue_cv_.wait(lock);
    // Group commit (header): while another worker scores a batch, give the
    // queue until the front row is due to fill up to max_batch_size. With
    // no batch in flight, and when stopping, take the rows at once.
    while (!stop_ && scoring_ != 0 && !queue_.empty() &&
           queue_.size() < options_.max_batch_size) {
      const auto due = queue_.front().enqueued + delay;
      if (std::chrono::steady_clock::now() >= due) break;
      queue_cv_.wait_until(lock, due);
    }
    if (queue_.empty()) {
      if (stop_) return;
      continue;  // Another worker took the rows.
    }

    const size_t n = std::min(queue_.size(), options_.max_batch_size);
    std::vector<Pending> batch;
    batch.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    ++scoring_;
    // Rows left behind may have crossed no wake edge; hand them to a peer,
    // which bounds their wait by the deadline rather than by this batch.
    const bool rows_left = !queue_.empty();
    lock.unlock();
    if (rows_left) queue_cv_.notify_one();
    ScoreBatch(&batch);
    // Destroy the fulfilled rows before relocking: a callback's captures
    // (e.g. a net::Session shared_ptr whose last reference dies here) may
    // take their own locks, which must not nest under the queue mutex.
    const size_t batch_size = batch.size();
    batch.clear();
    lock.lock();
    --scoring_;
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
  if (request->promise) {
    request->promise->set_value(std::move(result));
  } else {
    request->row.done(std::move(result));
  }
}

void BatchScorer::ScoreBatch(std::vector<Pending>* batch) {
  // Group by model, preserving submission order inside each group (the map
  // keeps pointers in batch order). A single-model batch — the common case
  // — forms exactly one group and costs one extra map node.
  std::map<std::string, std::vector<Pending*>> groups;
  for (Pending& request : *batch) {
    groups[request.row.model].push_back(&request);
  }
  for (auto& [model, rows] : groups) {
    ScoreGroup(model, &rows);
  }
}

Status BatchScorer::MissingModel(const std::string& model) const {
  // The default model missing is a service-not-ready condition; any other
  // name is a routing error of that row alone. The NotFound message names
  // the routed model and offers the registered alternatives.
  if (model == kDefaultModel) {
    return Status::FailedPrecondition("batch scorer: no model available");
  }
  if (!lister_) {
    return Status::NotFound("batch scorer: unknown model '", model, "'");
  }
  std::string available;
  for (const std::string& name : lister_()) {
    if (!available.empty()) available += ", ";
    available += name;
  }
  if (available.empty()) {
    return Status::NotFound("batch scorer: unknown model '", model,
                            "' (no models registered)");
  }
  return Status::NotFound("batch scorer: unknown model '", model,
                          "' (available: ", available, ")");
}

void BatchScorer::ScoreGroup(const std::string& model,
                             std::vector<Pending*>* rows) {
  Result<std::shared_ptr<const core::RowScorer>> fetched = provider_(model);

  uint64_t scored = 0, failed = 0;
  auto fulfill = [&](Pending* request, Result<double> result) {
    result.ok() ? ++scored : ++failed;
    Fulfill(request, std::move(result));
  };
  auto record_model = [&] {
    if (metrics_ != nullptr) metrics_->RecordModelRows(model, scored, failed);
  };

  if (!fetched.ok() || *fetched == nullptr) {
    // Composed once per group, shared by every row in it.
    const Status failure =
        fetched.ok() ? MissingModel(model) : fetched.status();
    for (Pending* request : *rows) fulfill(request, failure);
    // A registered model whose promotion failed keeps its per-model row;
    // an unknown name is the client's token and gets none.
    if (!fetched.ok()) {
      record_model();
    } else if (metrics_ != nullptr) {
      metrics_->RecordUnknownModelRows(rows->size());
    }
    return;
  }
  const std::shared_ptr<const core::RowScorer>& snapshot = *fetched;
  if (metrics_ != nullptr) {
    const void* raw = snapshot.get();
    MutexLock lock(&swap_mu_);
    const void*& previous = last_snapshot_[model];
    if (previous != nullptr && previous != raw) metrics_->RecordModelSwap();
    previous = raw;
  }

  std::vector<core::RowScorer::Record> records;
  records.reserve(rows->size());
  for (const Pending* request : *rows) {
    records.push_back({request->row.record, request->row.label_col});
  }
  if (metrics_ != nullptr) metrics_->RecordBatch(rows->size());
  std::vector<Result<double>> results = snapshot->ScoreRecords(records);
  for (size_t i = 0; i < rows->size(); ++i) {
    fulfill((*rows)[i],
            results.size() == rows->size()
                ? std::move(results[i])
                : Status::Internal("batch scorer: score count mismatch"));
  }
  record_model();
}

}  // namespace serve
}  // namespace targad
