#include "serve/batch_scorer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/frozen_scorer.h"
#include "core/pipeline.h"
#include "serve/metrics.h"
#include "serve/model_registry.h"

namespace targad {
namespace serve {
namespace {

// Small mixed numeric/categorical training table (mirrors pipeline_test).
data::RawTable MakeTrainingTable(uint64_t seed) {
  Rng rng(seed);
  data::RawTable table;
  table.column_names = {"amount", "rate", "channel", "label"};
  auto add_row = [&](double amount, double rate, const char* channel,
                     const std::string& label) {
    table.rows.push_back(
        {std::to_string(amount), std::to_string(rate), channel, label});
  };
  for (size_t i = 0; i < 400; ++i) {
    const bool mode = rng.Bernoulli(0.5);
    add_row(rng.Normal(mode ? 20.0 : 60.0, 4.0), rng.Normal(0.3, 0.05),
            mode ? "web" : "pos", "");
  }
  for (size_t i = 0; i < 25; ++i) {
    add_row(rng.Normal(150.0, 5.0), rng.Normal(0.9, 0.03), "web", "fraud");
  }
  return table;
}

std::shared_ptr<const core::TargAdPipeline> TrainPipeline(uint64_t seed) {
  core::PipelineConfig config;
  config.model.seed = seed;
  config.model.selection.k = 2;
  config.model.selection.autoencoder.epochs = 5;
  config.model.epochs = 8;
  auto pipeline = core::TargAdPipeline::Train(MakeTrainingTable(seed), config);
  return std::make_shared<const core::TargAdPipeline>(
      std::move(pipeline).ValueOrDie());
}

// `pipeline` frozen at `dtype`, the form the registry serves. At float64 it
// scores bit-identically to the pipeline's own Score.
std::shared_ptr<const core::FrozenScorer> Frozen(
    const core::TargAdPipeline& pipeline,
    nn::Dtype dtype = nn::Dtype::kFloat64) {
  return std::make_shared<const core::FrozenScorer>(
      pipeline.Freeze(dtype).ValueOrDie());
}

// Serves `scorer` as kDefaultModel; every other name is unknown.
BatchScorer::NamedSnapshotProvider ServeDefault(
    std::shared_ptr<const core::RowScorer> scorer) {
  return [scorer](const std::string& model) {
    return model == BatchScorer::kDefaultModel
               ? scorer
               : std::shared_ptr<const core::RowScorer>();
  };
}

// Feature rows (no label column), the same rows as CSV records, the
// pipeline's serial scores, and the pipeline frozen at float64.
struct ScoringFixture {
  std::shared_ptr<const core::TargAdPipeline> pipeline;
  std::shared_ptr<const core::FrozenScorer> scorer;
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> records;
  std::vector<double> serial_scores;
};

ScoringFixture MakeFixture(uint64_t seed, size_t n_rows) {
  ScoringFixture fx;
  fx.pipeline = TrainPipeline(seed);
  fx.scorer = Frozen(*fx.pipeline);
  Rng rng(seed + 1000);
  data::RawTable table;
  table.column_names = fx.pipeline->feature_columns();
  for (size_t i = 0; i < n_rows; ++i) {
    const char* channel = i % 3 == 0 ? "web" : (i % 3 == 1 ? "pos" : "app");
    fx.rows.push_back({std::to_string(rng.Normal(50.0, 30.0)),
                       std::to_string(rng.Normal(0.5, 0.2)), channel});
    table.rows.push_back(fx.rows.back());
    fx.records.push_back(Join(fx.rows.back(), ","));
  }
  fx.serial_scores = fx.pipeline->Score(table).ValueOrDie();
  return fx;
}

/// Scores every record 1.0 and watches the callers of ScoreRecords: it
/// logs the records it scored, notes when two callers are inside at once
/// (each waits up to `peer_wait` for a second), and Hold() parks callers
/// until Release().
class ProbeScorer : public core::RowScorer {
 public:
  explicit ProbeScorer(std::chrono::milliseconds peer_wait =
                           std::chrono::milliseconds(0))
      : peer_wait_(peer_wait) {}

  Result<std::vector<double>> Score(
      const data::RawTable& table) const override {
    return std::vector<double>(table.rows.size(), 1.0);
  }

  std::vector<Result<double>> ScoreRecords(
      const std::vector<Record>& records) const override {
    std::unique_lock<std::mutex> lock(mu_);
    ++entered_;
    for (const Record& record : records) {
      scored_.emplace_back(record.text);
    }
    if (++inside_ == 2 && !paired_at_) {
      paired_at_ = std::chrono::steady_clock::now();
    }
    cv_.notify_all();
    cv_.wait_for(lock, peer_wait_, [this] { return paired_at_.has_value(); });
    cv_.wait(lock, [this] { return !held_; });
    --inside_;
    return std::vector<Result<double>>(records.size(), 1.0);
  }

  const std::vector<std::string>& feature_columns() const override {
    static const std::vector<std::string> kColumns = {"x", "y"};
    return kColumns;
  }

  const std::string& label_column() const override {
    static const std::string kLabel = "label";
    return kLabel;
  }

  void Hold() {
    std::lock_guard<std::mutex> lock(mu_);
    held_ = true;
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    held_ = false;
    cv_.notify_all();
  }

  void WaitUntilEntered(int calls) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_ >= calls; });
  }

  /// Every record text scored so far, in the order the calls saw them.
  std::vector<std::string> scored() const {
    std::lock_guard<std::mutex> lock(mu_);
    return scored_;
  }

  /// When two callers were first inside ScoreRecords at once, if ever.
  std::optional<std::chrono::steady_clock::time_point> paired_at() const {
    std::lock_guard<std::mutex> lock(mu_);
    return paired_at_;
  }

 private:
  const std::chrono::milliseconds peer_wait_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable int entered_ = 0;
  mutable int inside_ = 0;
  mutable std::vector<std::string> scored_;
  mutable std::optional<std::chrono::steady_clock::time_point> paired_at_;
  bool held_ = false;
};

constexpr std::chrono::seconds kResolveWithin(10);

// Serves `hold` as the model "hold" and every other name through
// `provider`.
BatchScorer::NamedSnapshotProvider WithHold(
    std::shared_ptr<ProbeScorer> hold,
    BatchScorer::NamedSnapshotProvider provider) {
  return [hold, provider](const std::string& model)
             -> Result<std::shared_ptr<const core::RowScorer>> {
    if (model == "hold") return std::shared_ptr<const core::RowScorer>(hold);
    return provider(model);
  };
}

// Parks a worker on one "hold" row (a scorer served WithHold(hold, ...)),
// runs `submit`, then releases the worker. With one worker, or a 30 s
// deadline, the rows `submit` queues form the next batch by construction:
// the held worker takes them at once when it finishes.
template <typename Submit>
void QueueBehindHeldWorker(ProbeScorer* hold, BatchScorer* scorer,
                           Submit&& submit) {
  hold->Hold();
  std::future<Result<double>> held = scorer->Submit("hold", "1,2");
  hold->WaitUntilEntered(1);
  submit();
  hold->Release();
  ASSERT_EQ(held.wait_for(kResolveWithin), std::future_status::ready);
  EXPECT_TRUE(held.get().ok());
}

// The batch-size histogram of one ScoreRecords call per entry of `sizes`.
HistogramBuckets Calls(std::initializer_list<uint64_t> sizes) {
  Pow2Histogram h;
  for (uint64_t rows : sizes) h.Record(rows);
  return h.Buckets();
}

TEST(BatchScorerTest, SingleThreadMatchesSerialBitExact) {
  ScoringFixture fx = MakeFixture(7, 64);
  BatchScorerOptions options;
  options.max_batch_size = 16;
  BatchScorer scorer(ServeDefault(fx.scorer), options);
  std::vector<std::future<Result<double>>> futures;
  for (const auto& record : fx.records) {
    futures.push_back(scorer.Submit(record));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<double> result = futures[i].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // Bit-identical, not approximately equal: the whole pipeline is
    // row-independent, so neither freezing at float64 nor batching may
    // change a single ULP.
    EXPECT_EQ(*result, fx.serial_scores[i]) << "row " << i;
  }
}

TEST(BatchScorerTest, ConcurrentSubmittersMatchSerialBitExact) {
  ScoringFixture fx = MakeFixture(11, 96);
  BatchScorerOptions options;
  options.max_batch_size = 8;
  options.num_workers = 4;
  ServeMetrics metrics;
  BatchScorer scorer(ServeDefault(fx.scorer), options, &metrics);

  constexpr size_t kThreads = 8;
  constexpr int kRounds = 5;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = t; i < fx.rows.size(); i += kThreads) {
          Result<double> result = scorer.Submit(fx.records[i]).get();
          if (!result.ok()) {
            failures.fetch_add(1);
          } else if (*result != fx.serial_scores[i]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  const MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.requests_completed, kThreads * kRounds * (96 / kThreads));
  EXPECT_EQ(snapshot.rows_scored, snapshot.requests_completed);
  EXPECT_GT(snapshot.batches, 0u);
}

TEST(BatchScorerTest, ScoresStayCorrectAcrossHotSwap) {
  // Two models over the same schema; swap while 4 submitter threads hammer
  // the scorer. Every score must match one of the two serial references —
  // no torn reads, no scores from a half-swapped model.
  ScoringFixture fx_a = MakeFixture(21, 48);
  std::shared_ptr<const core::TargAdPipeline> pipeline_b = TrainPipeline(22);
  std::shared_ptr<const core::FrozenScorer> scorer_b = Frozen(*pipeline_b);
  data::RawTable table;
  table.column_names = pipeline_b->feature_columns();
  for (const auto& row : fx_a.rows) table.rows.push_back(row);
  const std::vector<double> serial_b = pipeline_b->Score(table).ValueOrDie();

  ModelRegistry registry;
  registry.Publish("m", fx_a.scorer);
  BatchScorerOptions options;
  options.max_batch_size = 8;
  options.num_workers = 2;
  ServeMetrics metrics;
  BatchScorer scorer(
      BatchScorer::NamedSnapshotProvider([&registry](const std::string&) {
        auto snapshot = registry.GetScorer("m");
        return snapshot.ok() ? *snapshot
                             : std::shared_ptr<const core::RowScorer>();
      }),
      options, &metrics);

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      while (!stop.load()) {
        for (size_t i = 0; i < fx_a.rows.size() && !stop.load(); ++i) {
          Result<double> result = scorer.Submit(fx_a.records[i]).get();
          if (!result.ok()) {
            failures.fetch_add(1);
          } else if (*result != fx_a.serial_scores[i] &&
                     *result != serial_b[i]) {
            bad.fetch_add(1);
          }
        }
      }
    });
  }
  // Swap back and forth while traffic flows.
  for (int swap = 0; swap < 6; ++swap) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    registry.Publish("m", swap % 2 == 0 ? scorer_b : fx_a.scorer);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true);
  for (auto& t : submitters) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GE(metrics.Snapshot().model_swaps, 1u);
}

TEST(BatchScorerTest, OverloadRejectsWithResourceExhausted) {
  // The only worker is held on a row while 64 rows arrive, so the queue
  // backs up deterministically: the first four fill it, the rest bounce.
  ScoringFixture fx = MakeFixture(31, 8);
  auto hold = std::make_shared<ProbeScorer>();
  BatchScorerOptions options;
  options.max_queue_rows = 4;
  ServeMetrics metrics;
  BatchScorer scorer(WithHold(hold, ServeDefault(fx.scorer)), options,
                     &metrics);

  std::vector<std::future<Result<double>>> futures;
  QueueBehindHeldWorker(hold.get(), &scorer, [&] {
    for (int i = 0; i < 64; ++i) {
      std::future<Result<double>> future = scorer.Submit(fx.records[i % 8]);
      // Rejections resolve immediately; admitted rows stay pending.
      if (future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        Result<double> result = future.get();
        ASSERT_FALSE(result.ok()) << "row " << i;
        EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
      } else {
        EXPECT_LT(i, 4) << "admitted past the bound";
        futures.push_back(std::move(future));
      }
    }
  });
  EXPECT_EQ(futures.size(), 4u);
  EXPECT_EQ(metrics.Snapshot().requests_rejected, 60u);
  // Every admitted future must still resolve to a real score.
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<double> result = futures[i].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(*result, fx.serial_scores[i]);
  }
}

TEST(BatchScorerTest, MalformedRowFailsAloneInItsBatch) {
  ScoringFixture fx = MakeFixture(41, 8);
  auto hold = std::make_shared<ProbeScorer>();
  BatchScorerOptions options;
  options.max_batch_size = 8;
  ServeMetrics metrics;
  BatchScorer scorer(WithHold(hold, ServeDefault(fx.scorer)), options,
                     &metrics);

  // The four rows queue behind the held worker: one batch, one call.
  std::vector<std::future<Result<double>>> futures;
  QueueBehindHeldWorker(hold.get(), &scorer, [&] {
    futures.push_back(scorer.Submit(fx.records[0]));
    futures.push_back(scorer.Submit("not-a-number,0.5,web"));
    futures.push_back(scorer.Submit("1.0"));  // Wrong arity.
    futures.push_back(scorer.Submit(fx.records[1]));
  });

  Result<double> good0 = futures[0].get();
  ASSERT_TRUE(good0.ok()) << good0.status().ToString();
  EXPECT_EQ(*good0, fx.serial_scores[0]);

  Result<double> bad_cell = futures[1].get();
  ASSERT_FALSE(bad_cell.ok());
  EXPECT_EQ(bad_cell.status().code(), StatusCode::kInvalidArgument);

  Result<double> bad_arity = futures[2].get();
  ASSERT_FALSE(bad_arity.ok());
  EXPECT_EQ(bad_arity.status().code(), StatusCode::kInvalidArgument);

  Result<double> good1 = futures[3].get();
  ASSERT_TRUE(good1.ok()) << good1.status().ToString();
  EXPECT_EQ(*good1, fx.serial_scores[1]);

  scorer.Drain();
  const MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.batches, 2u);
  EXPECT_EQ(snapshot.batch_size_buckets, Calls({1, 4}));
}

TEST(BatchScorerTest, NoModelFailsWithFailedPrecondition) {
  BatchScorerOptions options;
  BatchScorer scorer(ServeDefault(nullptr), options);
  Result<double> result = scorer.Submit("1,2,web").get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(BatchScorerTest, RoutesRowsToNamedModels) {
  // Two models with the same schema but different parameters; rows tagged
  // with a model name must come back with THAT model's serial score even
  // when both groups share one micro-batch.
  ScoringFixture fx_a = MakeFixture(61, 16);
  std::shared_ptr<const core::TargAdPipeline> pipeline_b = TrainPipeline(62);
  data::RawTable table;
  table.column_names = pipeline_b->feature_columns();
  for (const auto& row : fx_a.rows) table.rows.push_back(row);
  const std::vector<double> serial_b = pipeline_b->Score(table).ValueOrDie();

  ModelRegistry registry;
  registry.Publish("default", fx_a.scorer);
  registry.Publish("candidate", Frozen(*pipeline_b));

  auto hold = std::make_shared<ProbeScorer>();
  BatchScorerOptions options;
  options.max_batch_size = 64;  // Both models fit one batch.
  ServeMetrics metrics;
  BatchScorer scorer(
      WithHold(hold, BatchScorer::NamedSnapshotProvider(
                         [&registry](const std::string& name) {
                           auto snapshot = registry.GetScorer(name);
                           return snapshot.ok()
                                      ? *snapshot
                                      : std::shared_ptr<const core::RowScorer>();
                         })),
      options, &metrics);

  // The rows alternate models and queue behind the held worker, so they
  // form one batch of two groups: split anywhere, they would take more
  // than one call per model.
  std::vector<std::future<Result<double>>> default_futures, routed_futures;
  QueueBehindHeldWorker(hold.get(), &scorer, [&] {
    for (const auto& record : fx_a.records) {
      default_futures.push_back(scorer.Submit(record));
      routed_futures.push_back(scorer.Submit("candidate", record));
    }
  });
  for (size_t i = 0; i < fx_a.rows.size(); ++i) {
    Result<double> from_default = default_futures[i].get();
    ASSERT_TRUE(from_default.ok()) << from_default.status().ToString();
    EXPECT_EQ(*from_default, fx_a.serial_scores[i]) << "row " << i;
    Result<double> from_candidate = routed_futures[i].get();
    ASSERT_TRUE(from_candidate.ok()) << from_candidate.status().ToString();
    EXPECT_EQ(*from_candidate, serial_b[i]) << "row " << i;
  }

  // Futures resolve before the worker records per-model counters; drain so
  // the snapshot below observes the finished batch.
  scorer.Drain();
  const MetricsSnapshot snapshot = metrics.Snapshot();
  ASSERT_EQ(snapshot.per_model.count("default"), 1u);
  ASSERT_EQ(snapshot.per_model.count("candidate"), 1u);
  EXPECT_EQ(snapshot.per_model.at("default").rows_scored, fx_a.rows.size());
  EXPECT_EQ(snapshot.per_model.at("default").rows_failed, 0u);
  EXPECT_EQ(snapshot.per_model.at("candidate").rows_scored, fx_a.rows.size());
  EXPECT_EQ(snapshot.batches, 3u);
  EXPECT_EQ(snapshot.batch_size_buckets, Calls({1, 16, 16}));
}

TEST(BatchScorerTest, UnknownModelFailsItsRowsNotTheBatch) {
  ScoringFixture fx = MakeFixture(71, 8);
  ModelRegistry registry;
  registry.Publish("default", fx.scorer);

  auto hold = std::make_shared<ProbeScorer>();
  BatchScorerOptions options;
  options.max_batch_size = 8;
  ServeMetrics metrics;
  BatchScorer scorer(
      WithHold(hold, BatchScorer::NamedSnapshotProvider(
                         [&registry](const std::string& name) {
                           auto snapshot = registry.GetScorer(name);
                           return snapshot.ok()
                                      ? *snapshot
                                      : std::shared_ptr<const core::RowScorer>();
                         })),
      options, &metrics);

  // One batch mixing both groups: the two good rows share one call.
  std::future<Result<double>> good, missing, good2;
  QueueBehindHeldWorker(hold.get(), &scorer, [&] {
    good = scorer.Submit(fx.records[0]);
    missing = scorer.Submit("no-such", fx.records[1]);
    good2 = scorer.Submit(fx.records[2]);
  });

  Result<double> bad = missing.get();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);

  Result<double> ok0 = good.get();
  ASSERT_TRUE(ok0.ok()) << ok0.status().ToString();
  EXPECT_EQ(*ok0, fx.serial_scores[0]);
  Result<double> ok2 = good2.get();
  ASSERT_TRUE(ok2.ok()) << ok2.status().ToString();
  EXPECT_EQ(*ok2, fx.serial_scores[2]);

  // The unknown name gets no per-model row, only the shared counter.
  scorer.Drain();
  const MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.per_model.count("no-such"), 0u);
  EXPECT_EQ(snapshot.unknown_model_rows, 1u);
  ASSERT_EQ(snapshot.per_model.count("default"), 1u);
  EXPECT_EQ(snapshot.per_model.at("default").rows_scored, 2u);
  EXPECT_EQ(snapshot.batches, 2u);
  EXPECT_EQ(snapshot.batch_size_buckets, Calls({1, 2}));
}

// Routed names are the client's tokens: 1,000 distinct unknown names must
// leave the per-model map empty and count in unknown_model_rows alone.
TEST(BatchScorerTest, UnknownModelNamesDoNotGrowPerModelCounters) {
  ServeMetrics metrics;
  BatchScorer scorer(
      BatchScorer::NamedSnapshotProvider([](const std::string&) {
        return std::shared_ptr<const core::RowScorer>();
      }),
      BatchScorerOptions{}, &metrics);
  constexpr uint64_t kNames = 1000;
  std::vector<std::future<Result<double>>> futures;
  for (uint64_t i = 0; i < kNames; ++i) {
    futures.push_back(scorer.Submit("unknown-" + std::to_string(i), "1,2"));
  }
  for (auto& future : futures) {
    EXPECT_EQ(future.get().status().code(), StatusCode::kNotFound);
  }
  scorer.Drain();
  const MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_TRUE(snapshot.per_model.empty()) << snapshot.per_model.size();
  EXPECT_EQ(snapshot.unknown_model_rows, kNames);
  EXPECT_EQ(snapshot.requests_failed, kNames);
}

// A provider error — e.g. a registered model whose cold promotion cannot
// load — reaches that group's rows with its own code and message, not as
// an unknown model, and leaves the rest of the batch alone.
TEST(BatchScorerTest, ProviderErrorReachesItsRowsWithItsStatus) {
  ScoringFixture fx = MakeFixture(73, 4);
  auto hold = std::make_shared<ProbeScorer>();
  BatchScorerOptions options;
  options.max_batch_size = 4;
  ServeMetrics metrics;
  BatchScorer scorer(
      WithHold(hold,
               BatchScorer::NamedSnapshotProvider(
                   [&fx](const std::string& name)
                       -> Result<std::shared_ptr<const core::RowScorer>> {
                     if (name == "broken") {
                       return Status::FailedPrecondition(
                           "model registry: promoting 'broken': checksum "
                           "mismatch");
                     }
                     return std::shared_ptr<const core::RowScorer>(fx.scorer);
                   })),
      options, &metrics);

  // One batch mixing both groups: the good rows on either side of the
  // broken one share one call.
  std::future<Result<double>> good, broken, good2;
  QueueBehindHeldWorker(hold.get(), &scorer, [&] {
    good = scorer.Submit(fx.records[0]);
    broken = scorer.Submit("broken", fx.records[1]);
    good2 = scorer.Submit(fx.records[2]);
  });

  Result<double> bad = broken.get();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(bad.status().message(),
            "model registry: promoting 'broken': checksum mismatch");
  Result<double> ok = good.get();
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(*ok, fx.serial_scores[0]);
  Result<double> ok2 = good2.get();
  ASSERT_TRUE(ok2.ok()) << ok2.status().ToString();
  EXPECT_EQ(*ok2, fx.serial_scores[2]);

  scorer.Drain();
  const MetricsSnapshot snapshot = metrics.Snapshot();
  ASSERT_EQ(snapshot.per_model.count("broken"), 1u);
  EXPECT_EQ(snapshot.per_model.at("broken").rows_failed, 1u);
  EXPECT_EQ(snapshot.batches, 2u);
  EXPECT_EQ(snapshot.batch_size_buckets, Calls({1, 2}));
}

TEST(BatchScorerTest, Float32SnapshotsServeWithinTolerance) {
  ScoringFixture fx = MakeFixture(81, 32);
  BatchScorerOptions options;
  options.max_batch_size = 8;
  options.num_workers = 2;
  BatchScorer scorer(ServeDefault(Frozen(*fx.pipeline, nn::Dtype::kFloat32)),
                     options);
  std::vector<std::future<Result<double>>> futures;
  for (const auto& record : fx.records) {
    futures.push_back(scorer.Submit(record));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<double> result = futures[i].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_NEAR(*result, fx.serial_scores[i], 1e-4) << "row " << i;
  }
}

TEST(BatchScorerTest, SubmitAfterShutdownFails) {
  ScoringFixture fx = MakeFixture(51, 4);
  BatchScorer scorer(ServeDefault(fx.scorer), BatchScorerOptions{});
  scorer.Shutdown();
  Result<double> result = scorer.Submit(fx.records[0]).get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Dispatch and wake protocol: a worker takes queued rows at once unless
// another batch is being scored, and only then waits for a full batch or
// the front row's deadline. A worker is woken only when a push takes the
// queue from empty to one row or to a multiple of max_batch_size, or when
// a worker leaves rows behind. An idle worker waits with no timeout, so a
// lost wakeup hangs a row for good; each test bounds its waits instead.

TEST(BatchScorerWakeTest, IdleScorerDispatchesALoneRowAtOnce) {
  // No batch is in flight, so the row does not wait out the 30 s deadline.
  auto probe = std::make_shared<ProbeScorer>();
  BatchScorerOptions options;
  options.max_queue_delay_us = 30'000'000;
  BatchScorer scorer(ServeDefault(probe), options);
  std::future<Result<double>> future = scorer.Submit("1,2");
  ASSERT_EQ(future.wait_for(std::chrono::seconds(1)),
            std::future_status::ready);
  EXPECT_TRUE(future.get().ok());
}

TEST(BatchScorerWakeTest, RowsQueuedBehindABusyWorkerShareOneBatch) {
  // One worker is held on row 1 while five rows queue. The other worker
  // coalesces, because a batch is in flight, until the 30 s deadline; the
  // held worker takes all five at once when it is released.
  auto probe = std::make_shared<ProbeScorer>();
  BatchScorerOptions options;
  options.max_batch_size = 64;
  options.max_queue_delay_us = 30'000'000;
  options.num_workers = 2;
  ServeMetrics metrics;
  BatchScorer scorer(ServeDefault(probe), options, &metrics);
  probe->Hold();
  std::vector<std::future<Result<double>>> futures;
  futures.push_back(scorer.Submit("1,2"));
  probe->WaitUntilEntered(1);
  for (int i = 0; i < 5; ++i) futures.push_back(scorer.Submit("1,2"));
  probe->Release();
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(kResolveWithin), std::future_status::ready);
    EXPECT_TRUE(future.get().ok());
  }
  scorer.Drain();
  const MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.batches, 2u);
  EXPECT_EQ(snapshot.batch_size_buckets, Calls({1, 5}));
}

TEST(BatchScorerWakeTest, TrickleOfSingleRowsNeverStalls) {
  // Each row is submitted only after the previous one resolved, so every
  // push is an empty-to-one edge.
  auto probe = std::make_shared<ProbeScorer>();
  BatchScorerOptions options;
  options.num_workers = 2;
  BatchScorer scorer(ServeDefault(probe), options);
  for (int i = 0; i < 200; ++i) {
    std::future<Result<double>> future = scorer.Submit("1,2");
    ASSERT_EQ(future.wait_for(kResolveWithin), std::future_status::ready)
        << "row " << i;
    EXPECT_TRUE(future.get().ok()) << "row " << i;
  }
}

TEST(BatchScorerWakeTest, BurstKeepsBothWorkersScoringBeforeTheDeadline) {
  // Three batches arrive at once and the coalescing deadline is a second
  // away: full-batch pushes and the peer wake must put both workers to
  // work long before the deadline would. The first row is scored at once
  // and held by the probe, waiting for a peer; the other worker coalesces
  // the burst because a batch is in flight, and only those wakeups can
  // rouse it before its deadline.
  auto probe = std::make_shared<ProbeScorer>(std::chrono::seconds(5));
  BatchScorerOptions options;
  options.max_batch_size = 4;
  options.max_queue_delay_us = 1'000'000;
  options.num_workers = 2;
  BatchScorer scorer(ServeDefault(probe), options);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::future<Result<double>>> futures;
  futures.push_back(scorer.Submit("1,2"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  while (futures.size() < 3 * options.max_batch_size) {
    futures.push_back(scorer.Submit("1,2"));
  }
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(kResolveWithin), std::future_status::ready);
    EXPECT_TRUE(future.get().ok());
  }
  const auto paired_at = probe->paired_at();
  ASSERT_TRUE(paired_at.has_value());
  EXPECT_LT(*paired_at - start, std::chrono::milliseconds(500));
}

TEST(BatchScorerWakeTest, RowsLeftBehindResolveWithoutAnotherSubmit) {
  // The only worker is held inside ScoreRecords while six rows queue up;
  // once released it takes a batch of four and must come back for the two
  // left behind without any further push to wake it.
  auto probe = std::make_shared<ProbeScorer>();
  BatchScorerOptions options;
  options.max_batch_size = 4;
  options.num_workers = 1;
  BatchScorer scorer(ServeDefault(probe), options);
  probe->Hold();
  std::vector<std::future<Result<double>>> futures;
  futures.push_back(scorer.Submit("1,2"));
  probe->WaitUntilEntered(1);
  for (int i = 0; i < 6; ++i) futures.push_back(scorer.Submit("1,2"));
  probe->Release();
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(kResolveWithin), std::future_status::ready);
    EXPECT_TRUE(future.get().ok());
  }
}

TEST(BatchScorerWakeTest, ShutdownReleasesACoalescingWorker) {
  // Worker A is held on a "hold" row, so worker B coalesces the three rows
  // queued behind it until their 30 s deadline. Shutdown must hand them to
  // B at once, while A is still held, and then wait for A's row. Nothing
  // here asserts before the release: a held row would hang the drain.
  auto hold = std::make_shared<ProbeScorer>();
  auto probe = std::make_shared<ProbeScorer>();
  BatchScorerOptions options;
  options.max_queue_delay_us = 30'000'000;
  options.num_workers = 2;
  ServeMetrics metrics;
  BatchScorer scorer(WithHold(hold, ServeDefault(probe)), options, &metrics);
  hold->Hold();
  std::future<Result<double>> held = scorer.Submit("hold", "1,2");
  hold->WaitUntilEntered(1);
  std::vector<std::future<Result<double>>> futures;
  for (int i = 0; i < 3; ++i) futures.push_back(scorer.Submit("1,2"));
  EXPECT_EQ(futures.front().wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout)
      << "a row did not wait while a batch was in flight";

  std::atomic<bool> shut_down{false};
  std::thread shutdown([&] {
    scorer.Shutdown();
    shut_down.store(true);
  });
  bool resolved = true;
  for (auto& future : futures) {
    resolved = resolved &&
               future.wait_for(kResolveWithin) == std::future_status::ready;
  }
  EXPECT_TRUE(resolved) << "Shutdown left the queue to the 30 s deadline";
  EXPECT_FALSE(shut_down.load()) << "Shutdown returned before A's row";
  hold->Release();
  shutdown.join();
  for (auto& future : futures) EXPECT_TRUE(future.get().ok());
  EXPECT_TRUE(held.get().ok());
  const MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.batch_size_buckets, Calls({1, 3}));
}

// ---------------------------------------------------------------------------
// The batched Submit: one admission call for many rows, each with its own
// completion hook.

/// The hooks' view of a batched Submit: which rows completed, in what
/// order, with what result.
class Completions {
 public:
  BatchScorer::RowCallback Hook(size_t row) {
    return [this, row](Result<double> result) {
      std::lock_guard<std::mutex> lock(mu_);
      order_.push_back(row);
      results_.emplace(row, std::move(result));
    };
  }

  std::vector<size_t> order() const {
    std::lock_guard<std::mutex> lock(mu_);
    return order_;
  }

  Result<double> result(size_t row) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = results_.find(row);
    return it == results_.end() ? Status::Internal("no result")
                                : it->second;
  }

 private:
  mutable std::mutex mu_;
  std::vector<size_t> order_;
  std::multimap<size_t, Result<double>> results_;
};

std::vector<BatchScorer::Row> Rows(Completions* done, size_t first,
                                   size_t n) {
  std::vector<BatchScorer::Row> rows;
  for (size_t i = first; i < first + n; ++i) {
    rows.push_back({BatchScorer::kDefaultModel, std::to_string(i) + ",0",
                    -1, done->Hook(i)});
  }
  return rows;
}

TEST(BatchScorerBatchedTest, AdmitsRowsInOrder) {
  auto probe = std::make_shared<ProbeScorer>();
  BatchScorer scorer(WithHold(probe, ServeDefault(probe)),
                     BatchScorerOptions{});
  Completions done;
  std::vector<BatchScorer::Row> rows = Rows(&done, 0, 6);
  QueueBehindHeldWorker(probe.get(), &scorer, [&] { scorer.Submit(&rows); });
  scorer.Drain();
  const std::vector<std::string> scored = probe->scored();
  ASSERT_EQ(scored.size(), 7u);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(scored[i + 1], std::to_string(i) + ",0");
    EXPECT_TRUE(done.result(i).ok()) << "row " << i;
  }
}

TEST(BatchScorerBatchedTest, RowsPastTheCapFailInOrder) {
  // The worker is held, so three rows fill the queue; the other three fail
  // in row order before Submit returns, while the admitted rows wait.
  auto probe = std::make_shared<ProbeScorer>();
  BatchScorerOptions options;
  options.max_queue_rows = 3;
  ServeMetrics metrics;
  BatchScorer scorer(WithHold(probe, ServeDefault(probe)), options, &metrics);
  Completions done;
  std::vector<BatchScorer::Row> rows = Rows(&done, 0, 6);
  QueueBehindHeldWorker(probe.get(), &scorer, [&] {
    scorer.Submit(&rows);
    EXPECT_EQ(done.order(), (std::vector<size_t>{3, 4, 5}));
  });
  scorer.Drain();
  for (size_t i = 0; i < 6; ++i) {
    const Result<double> result = done.result(i);
    if (i < 3) {
      EXPECT_TRUE(result.ok()) << "row " << i;
    } else {
      ASSERT_FALSE(result.ok()) << "row " << i;
      EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
    }
  }
  const MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.requests_rejected, 3u);
  EXPECT_EQ(snapshot.requests_submitted, 4u);  // The held row and three.
}

TEST(BatchScorerBatchedTest, RowsAfterShutdownFailWithFailedPrecondition) {
  auto probe = std::make_shared<ProbeScorer>();
  ServeMetrics metrics;
  BatchScorer scorer(ServeDefault(probe), BatchScorerOptions{}, &metrics);
  scorer.Shutdown();
  Completions done;
  std::vector<BatchScorer::Row> rows = Rows(&done, 0, 3);
  scorer.Submit(&rows);
  EXPECT_EQ(done.order(), (std::vector<size_t>{0, 1, 2}));
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(done.result(i).status().code(), StatusCode::kFailedPrecondition)
        << "row " << i;
  }
  EXPECT_EQ(metrics.Snapshot().requests_rejected, 0u);
}

TEST(BatchScorerBatchedTest, EveryRowGetsExactlyOneCallback) {
  // Passes larger than a batch, from two threads, against a queue bound
  // some of them overflow: however the rows split between batches and
  // rejections, each hook runs once.
  auto probe = std::make_shared<ProbeScorer>();
  BatchScorerOptions options;
  options.max_batch_size = 4;
  options.max_queue_rows = 16;
  options.num_workers = 2;
  ServeMetrics metrics;
  BatchScorer scorer(ServeDefault(probe), options, &metrics);
  constexpr size_t kPasses = 50;
  constexpr size_t kPassRows = 10;
  Completions done;
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < 2; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t pass = t; pass < kPasses; pass += 2) {
        std::vector<BatchScorer::Row> rows =
            Rows(&done, pass * kPassRows, kPassRows);
        scorer.Submit(&rows);
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  scorer.Drain();
  std::vector<size_t> order = done.order();
  std::sort(order.begin(), order.end());
  ASSERT_EQ(order.size(), kPasses * kPassRows);
  size_t rejected = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    ASSERT_EQ(order[i], i);
    if (!done.result(i).ok()) {
      EXPECT_EQ(done.result(i).status().code(),
                StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  const MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.requests_rejected, rejected);
  EXPECT_EQ(snapshot.requests_submitted + rejected, kPasses * kPassRows);
}

}  // namespace
}  // namespace serve
}  // namespace targad
