#include "stack.h"

#include <algorithm>
#include <utility>

#include "net/client.h"
#include "report.h"

namespace targad {
namespace harness {

namespace {

// Start of the batch the current scoring worker is working on: written by
// ScoreProbe::Wrap inside the snapshot provider, read by the decorator's
// Score on the same thread right after.
struct BatchStart {
  Clock::time_point get_start;
  Clock::time_point get_end;
};
thread_local BatchStart t_batch;

constexpr uint64_t kBatchSample = 32;

uint64_t Ns(Clock::duration d) {
  const int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
  return ns < 0 ? 0 : static_cast<uint64_t>(ns);
}

}  // namespace

class ProbedScorer final : public core::RowScorer {
 public:
  ProbedScorer(std::shared_ptr<const core::RowScorer> inner, ScoreProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  Result<std::vector<double>> Score(
      const data::RawTable& table) const override {
    const Clock::time_point start = Clock::now();
    Result<std::vector<double>> scores = inner_->Score(table);
    probe_->OnScore(start, Clock::now(), table.num_rows());
    return scores;
  }
  const std::vector<std::string>& feature_columns() const override {
    return inner_->feature_columns();
  }
  const std::string& label_column() const override {
    return inner_->label_column();
  }
  const core::RowScorer* inner() const { return inner_.get(); }

 private:
  const std::shared_ptr<const core::RowScorer> inner_;
  ScoreProbe* const probe_;
};

std::shared_ptr<const core::RowScorer> ScoreProbe::Wrap(
    const std::string& model, std::shared_ptr<const core::RowScorer> inner,
    Clock::time_point get_start, Clock::time_point get_end) {
  t_batch = {get_start, get_end};
  std::lock_guard<std::mutex> lock(mu_);
  get_ns_.push_back(Ns(get_end - get_start));
  std::shared_ptr<const ProbedScorer>& wrapper = wrappers_[model];
  if (wrapper == nullptr || wrapper->inner() != inner.get()) {
    wrapper = std::make_shared<const ProbedScorer>(std::move(inner), this);
  }
  return wrapper;
}

void ScoreProbe::OnScore(Clock::time_point start, Clock::time_point end,
                         size_t rows) {
  const uint64_t call = calls_.fetch_add(1, std::memory_order_relaxed);
  rows_.fetch_add(rows, std::memory_order_relaxed);
  score_ns_.fetch_add(Ns(end - start), std::memory_order_relaxed);
  if (!tracer_->enabled() || call % kBatchSample != 0) return;
  const uint64_t batch = tracer_->NewId();
  tracer_->Record("batch", batch, parent_.load(std::memory_order_relaxed),
                  t_batch.get_start, end);
  tracer_->Record("registry.get", tracer_->NewId(), batch, t_batch.get_start,
                  t_batch.get_end);
  tracer_->Record("core.score", tracer_->NewId(), batch, start, end);
}

ScoreProbe::Totals ScoreProbe::totals() const {
  return {rows_.load(), score_ns_.load()};
}

std::vector<uint64_t> ScoreProbe::get_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  return get_ns_;
}

Stack::Stack(ScoreProbe* probe) : probe_(probe) {
  registry.set_metrics(&serve_metrics);
}

Status Stack::Start(bool tcp) {
  serve::BatchScorerOptions options;
  options.max_batch_size = 64;
  options.max_queue_delay_us = 200;
  options.num_workers = kWorkers;
  options.max_queue_rows = 4096;
  scorer_ = std::make_unique<serve::BatchScorer>(
      serve::BatchScorer::NamedSnapshotProvider(
          [this](const std::string& model) { return Snapshot(model); }),
      options, &serve_metrics,
      serve::BatchScorer::ModelLister([this] { return registry.ListNames(); }));
  if (!tcp) return Status::OK();
  net::TcpServerOptions net_options;
  net_options.port = 0;
  net_options.serve_metrics = &serve_metrics;
  server_ = std::make_unique<net::TcpServer>(scorer_.get(), &net_metrics,
                                             net_options);
  return server_->Start();
}

std::shared_ptr<const core::RowScorer> Stack::Snapshot(
    const std::string& model) {
  const bool probed = probe_ != nullptr && probe_->active();
  const Clock::time_point start = probed ? Clock::now() : Clock::time_point{};
  Result<std::shared_ptr<const core::RowScorer>> snapshot =
      registry.GetScorer(model);
  if (!snapshot.ok()) return nullptr;
  if (!probed) return *snapshot;
  return probe_->Wrap(model, *snapshot, start, Clock::now());
}

void AddServeMetrics(const Stack& stack, const ScoreProbe& probe,
                     std::map<std::string, double>* metrics) {
  auto& m = *metrics;
  const serve::MetricsSnapshot s = stack.serve_metrics.Snapshot();
  m["serve.batch.rows_mean"] = s.mean_batch_size;
  m["serve.batch.calls"] = static_cast<double>(s.batches);
  m["serve.batch.latency_p50_us"] = static_cast<double>(s.latency_p50_us);
  m["serve.batch.rejected"] = static_cast<double>(s.requests_rejected);
  m["serve.batch.swaps"] = static_cast<double>(s.model_swaps);
  const uint64_t lookups = s.registry_hits + s.registry_misses;
  m["serve.registry.hit_ratio"] =
      lookups == 0 ? 0.0
                   : static_cast<double>(s.registry_hits) /
                         static_cast<double>(lookups);
  m["serve.registry.loads"] = static_cast<double>(s.registry_loads);
  m["serve.registry.evictions"] = static_cast<double>(s.registry_evictions);
  m["serve.registry.load_p99_us"] = static_cast<double>(s.registry_load_p99_us);
  const std::vector<uint64_t> get_ns = probe.get_ns();
  m["serve.registry.get_us_p50"] = SupportedQuantile(get_ns, 0.5) * 1e-3;
  m["serve.registry.get_us_p99"] = SupportedQuantile(get_ns, 0.99) * 1e-3;
}

Status FirstReply(uint16_t port, const std::string& line,
                  const std::string& expected) {
  net::LineClient client;
  TARGAD_RETURN_NOT_OK(client.Connect("127.0.0.1", port));
  TARGAD_RETURN_NOT_OK(client.SendRaw(line));
  TARGAD_ASSIGN_OR_RETURN(std::string reply, client.RecvLine(5000));
  if (reply != expected) {
    return Status::Internal("first reply '", reply, "', expected '", expected,
                            "'");
  }
  return Status::OK();
}

}  // namespace harness
}  // namespace targad
