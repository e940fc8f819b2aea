// serve/stream.cc: the stdio stream driver. The happy path rides along in
// the CLI round trip; this file covers the admission-retry path, which only
// runs when the scorer's queue is full, the stop at a row whose score
// fails, and a failed read.

#include "serve/stream.h"

#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "serve/metrics.h"

namespace targad {
namespace serve {
namespace {

/// Scores a row as its first cell; schema f0, f1 with label column "label".
class FirstCellScorer : public core::RowScorer {
 public:
  Result<std::vector<double>> Score(const data::RawTable& table) const override {
    std::vector<double> scores;
    for (const auto& row : table.rows) {
      double v = 0.0;
      if (!ParseDouble(row[0], &v)) return Status::InvalidArgument("bad cell");
      scores.push_back(v);
    }
    return scores;
  }
  const std::vector<std::string>& feature_columns() const override {
    return features_;
  }
  const std::string& label_column() const override { return label_; }

 private:
  std::vector<std::string> features_ = {"f0", "f1"};
  std::string label_ = "label";
};

/// Holds every caller until opened; counts the callers it has held.
class Gate {
 public:
  void Pass() {
    std::unique_lock<std::mutex> lock(mu_);
    ++entered_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }
  void WaitUntilEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_ > 0; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool open_ = false;
};

TEST(ScoreCsvStreamTest, AdmissionRejectionsRetryInInputOrder) {
  auto model = std::make_shared<const FirstCellScorer>();
  Gate gate;
  BatchScorerOptions options;
  options.num_workers = 1;
  options.max_batch_size = 1;
  options.max_queue_rows = 2;
  options.max_queue_delay_us = 0;
  ServeMetrics metrics;
  BatchScorer scorer(
      BatchScorer::NamedSnapshotProvider(
          [&](const std::string&) -> std::shared_ptr<const core::RowScorer> {
            gate.Pass();
            return model;
          }),
      options, &metrics);

  // A second producer parks the only worker in the gated provider with one
  // row, then fills the two-row queue behind it.
  std::vector<std::future<Result<double>>> fillers;
  fillers.push_back(scorer.Submit("100,0"));
  gate.WaitUntilEntered();
  fillers.push_back(scorer.Submit("101,0"));
  fillers.push_back(scorer.Submit("102,0"));
  ASSERT_EQ(metrics.Snapshot().requests_rejected, 0u);

  std::istringstream in("f0,label,f1\n1.5,a,0\n-2,b,0\n3.25,c,0\n4,d,0\n");
  std::ostringstream out;
  StreamOptions stream_options;
  stream_options.admission_retries = 1'000'000;
  stream_options.retry_delay_us = 50;
  std::future<Result<StreamStats>> stream = std::async(
      std::launch::async, [&] {
        return ScoreCsvStream(*model, &scorer, in, out, stream_options);
      });

  // The stream's first submissions bounce; wait until it is retrying (more
  // rejections than its two-row window), then let the workers drain.
  while (metrics.Snapshot().requests_rejected < 4) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  gate.Open();

  Result<StreamStats> stats = stream.get();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows_in, 4u);
  EXPECT_EQ(stats->rows_scored, stats->rows_in);
  EXPECT_EQ(out.str(), "s_tar\n1.500000\n-2.000000\n3.250000\n4.000000\n");
  for (size_t i = 0; i < fillers.size(); ++i) {
    Result<double> result = fillers[i].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(*result, 100.0 + static_cast<double>(i));
  }
}

// A row routed to a model the provider does not know fails with NotFound.
// The stream returns that row's status; the output keeps the header and the
// earlier rows' scores in order, and nothing from the row after it, which
// was already submitted.
TEST(ScoreCsvStreamTest, FailedRowEndsStreamAfterEarlierScores) {
  auto model = std::make_shared<const FirstCellScorer>();
  BatchScorer scorer(
      BatchScorer::NamedSnapshotProvider(
          [model](const std::string& name)
              -> std::shared_ptr<const core::RowScorer> {
            return name == BatchScorer::kDefaultModel ? model : nullptr;
          }),
      BatchScorerOptions{});
  ASSERT_GE(scorer.options().max_queue_rows, 4u);

  std::istringstream in(
      "f0,label,f1\n1.5,a,0\n-2,b,0\nmodel=missing,3.25,c,0\n4,d,0\n");
  std::ostringstream out;
  Result<StreamStats> stats = ScoreCsvStream(*model, &scorer, in, out);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kNotFound)
      << stats.status().ToString();
  EXPECT_NE(stats.status().ToString().find("missing"), std::string::npos)
      << stats.status().ToString();
  EXPECT_EQ(out.str(), "s_tar\n1.500000\n-2.000000\n");
}

/// Serves `text`, then fails the next read by throwing from underflow, as
/// libstdc++'s filebuf does when read(2) fails. istream turns the throw into
/// badbit, and getline then ends as it does at the end of the input.
class FailingReadBuf : public std::streambuf {
 public:
  explicit FailingReadBuf(std::string text) : text_(std::move(text)) {
    setg(text_.data(), text_.data(), text_.data() + text_.size());
  }

 protected:
  int_type underflow() override { throw std::runtime_error("read failed"); }

 private:
  std::string text_;
};

// A read that fails after two rows fails the stream with IOError once the
// two rows are scored, instead of passing for a two-row input.
TEST(ScoreCsvStreamTest, ReadErrorFailsTheStream) {
  auto model = std::make_shared<const FirstCellScorer>();
  BatchScorer scorer(
      BatchScorer::NamedSnapshotProvider(
          [model](const std::string&)
              -> std::shared_ptr<const core::RowScorer> { return model; }),
      BatchScorerOptions{});
  FailingReadBuf buf("f0,label,f1\n1.5,a,0\n-2,b,0\n");
  std::istream in(&buf);
  std::ostringstream out;
  Result<StreamStats> stats = ScoreCsvStream(*model, &scorer, in, out);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kIOError)
      << stats.status().ToString();
  EXPECT_EQ(out.str(), "s_tar\n1.500000\n-2.000000\n");
}

}  // namespace
}  // namespace serve
}  // namespace targad
