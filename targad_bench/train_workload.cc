// train_unsw: TargAdPipeline::Train with the paper's configuration on an
// UNSW-NB15-like training split read from CSV. No serving layer runs: the
// GEMM kernels, k-means and the SAD autoencoders own the time.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <optional>

#include "cluster/elbow.h"
#include "cluster/kmeans.h"
#include "common/string_util.h"
#include "core/candidate_selection.h"
#include "core/pipeline.h"
#include "core/targad.h"
#include "eval/metrics.h"
#include "fixtures.h"
#include "replay.h"
#include "workloads.h"

namespace targad {
namespace harness {

namespace {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

template <typename F>
double TimeSeconds(F&& body) {
  const Clock::time_point start = Clock::now();
  body();
  return SecondsSince(start);
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// The paper's setting (Section IV-C): alpha 5%, eta 1, elbow-chosen k,
/// 30 classifier epochs, Adam. The library's default of 100 epochs is its
/// documented deviation for scaled-down pools; the benchmark keeps 30.
core::PipelineConfig PaperConfig(const Options& options) {
  core::PipelineConfig config;
  config.model.seed = options.seed;
  config.model.epochs = options.smoke ? 2 : 30;
  if (options.smoke) config.model.selection.autoencoder.epochs = 2;
  return config;
}

/// TargAdPipeline::Train's steps, called one by one through the public
/// APIs of each layer and traced; checked below to produce the same
/// scores as the pipeline. Fills the train-phase per-layer metrics.
Status TracedTrain(const RunContext& ctx, const data::RawTable& table,
                   const data::RawTable& test,
                   const std::vector<double>& reference, double untraced_s,
                   Report* report) {
  const core::PipelineConfig config = PaperConfig(ctx.options);
  Tracer* tracer = ctx.tracer;
  auto& m = report->metrics;
  // Closed once Fit returns: the checks and replays below are not training.
  std::optional<ScopedSpan> train_span;
  train_span.emplace(tracer, "train", ctx.root_span);
  const Clock::time_point train_start = Clock::now();

  nn::Matrix normalized;
  Result<Featurizer> featurizer = Status::Internal("not fitted");
  m["data.preprocess_fit_s"] = TimeSeconds([&] {
    ScopedSpan span(tracer, "data.preprocess_fit", train_span->id());
    featurizer = Featurizer::Fit(WithoutColumn(table, config.label_column),
                                 &normalized);
  });
  TARGAD_RETURN_NOT_OK(featurizer.status());

  const auto label_it = std::find(table.column_names.begin(),
                                  table.column_names.end(),
                                  config.label_column);
  const size_t label_col =
      static_cast<size_t>(label_it - table.column_names.begin());
  std::vector<std::string> classes;
  std::vector<size_t> labeled_rows, unlabeled_rows;
  data::TrainingSet train;
  for (size_t i = 0; i < table.num_rows(); ++i) {
    const std::string label(Trim(table.rows[i][label_col]));
    if (label.empty() || label == config.unlabeled_value) {
      unlabeled_rows.push_back(i);
      continue;
    }
    auto it = std::find(classes.begin(), classes.end(), label);
    if (it == classes.end()) it = classes.insert(classes.end(), label);
    train.labeled_class.push_back(static_cast<int>(it - classes.begin()));
    labeled_rows.push_back(i);
  }
  train.num_target_classes = static_cast<int>(classes.size());
  train.labeled_x = normalized.SelectRows(labeled_rows);
  train.unlabeled_x = normalized.SelectRows(unlabeled_rows);

  // Epoch boundaries come from the EpochHook, which fires after each
  // epoch; epoch 1 starts inside Fit, after candidate selection.
  TARGAD_ASSIGN_OR_RETURN(core::TargAD model, core::TargAD::Make(config.model));
  std::vector<Clock::time_point> epoch_end;
  {
    ScopedSpan fit_span(tracer, "core.fit", train_span->id());
    const core::TargAD::EpochHook hook = [&](int, core::TargAD&) {
      const Clock::time_point now = Clock::now();
      if (!epoch_end.empty() && tracer->enabled()) {
        tracer->Record("core.epoch", tracer->NewId(), fit_span.id(),
                       epoch_end.back(), now);
      }
      epoch_end.push_back(now);
    };
    TARGAD_RETURN_NOT_OK(model.Fit(train, hook));
  }
  const double traced_s = SecondsSince(train_start);
  train_span.reset();

  TARGAD_ASSIGN_OR_RETURN(nn::Matrix test_x, featurizer->Apply(test));
  report->Check(SameBits(model.Score(test_x), reference),
                "traced layer-by-layer training diverged from the pipeline");

  std::vector<double> epoch_ms;
  for (size_t e = 1; e < epoch_end.size(); ++e) {
    epoch_ms.push_back(std::chrono::duration<double, std::milli>(
                           epoch_end[e] - epoch_end[e - 1])
                           .count());
  }
  const double epoch_p50_ms = Median(epoch_ms);
  m["core.classifier_epoch_ms_p50"] = epoch_p50_ms;
  if (!epoch_end.empty()) {
    // Epoch 1's own start is not visible; it is counted at the median.
    m["core.classifier_s"] =
        std::chrono::duration<double>(epoch_end.back() - epoch_end.front())
            .count() +
        epoch_p50_ms * 1e-3;
  }
  m["trace.overhead_frac"] = traced_s / untraced_s - 1.0;

  // Replays of the candidate-selection phase and of its clustering.
  core::CandidateSelectionConfig selection = config.model.selection;
  selection.seed = config.model.seed;
  Status replay_status = Status::OK();
  m["core.select_candidates_s"] = TimeSeconds([&] {
    ScopedSpan span(tracer, "replay.select_candidates", ctx.root_span);
    replay_status = core::SelectCandidates(train.unlabeled_x, train.labeled_x,
                                           selection)
                        .status();
  });
  TARGAD_RETURN_NOT_OK(replay_status);
  m["cluster.kmeans_s"] = TimeSeconds([&] {
    ScopedSpan span(tracer, "replay.cluster", ctx.root_span);
    cluster::KMeansConfig kmeans;
    kmeans.k = selection.k;
    kmeans.seed = selection.seed;
    if (kmeans.k == 0) {
      Result<cluster::ElbowResult> elbow = cluster::SelectKByElbow(
          train.unlabeled_x, selection.elbow_k_min, selection.elbow_k_max,
          selection.seed);
      if (!elbow.ok()) {
        replay_status = elbow.status();
        return;
      }
      kmeans.k = elbow->k;
    }
    replay_status = cluster::KMeans(train.unlabeled_x, kmeans).status();
  });
  return replay_status;
}

}  // namespace

Report RunTrainUnsw(const RunContext& ctx) {
  const Options& options = ctx.options;
  Tracer* tracer = ctx.tracer;
  Report report;
  const UnswSizes sizes = options.smoke ? UnswSizes{300, 200, 20, 30}
                                        : UnswSizes{1500, 3000, 300, 400};
  const std::string path = ctx.dir + "/train.csv";
  Result<UnswData> data = [&]() -> Result<UnswData> {
    ScopedSpan span(tracer, "fixture", ctx.root_span);
    TARGAD_ASSIGN_OR_RETURN(UnswData made, MakeUnswData(options.seed, sizes));
    TARGAD_RETURN_NOT_OK(data::WriteCsvRows(path, made.train.column_names,
                                            made.train.rows));
    return made;
  }();
  if (!data.ok()) {
    report.Check(false, "fixture: " + data.status().ToString());
    return report;
  }
  const data::RawTable test = data->test.Table();

  // Set-up: the training CSV on disk to a RawTable in memory.
  std::vector<double> setup_s;
  data::RawTable table;
  for (int i = 0; i < SetupRepeats(options); ++i) {
    ScopedSpan span(tracer, "setup", ctx.root_span);
    const Clock::time_point start = Clock::now();
    Result<data::RawTable> read = data::ReadCsv(path);
    setup_s.push_back(SecondsSince(start));
    ++report.attempted;
    if (!read.ok() || read->rows != data->train.rows) {
      ++report.failed;
      report.Check(false, "set-up: training CSV did not read back");
      return report;
    }
    table = std::move(*read);
  }

  // Untraced trainings until the time is up, at least three (one in a
  // traced run). Training is bit-exact per seed, so every repeat must
  // reproduce the first model's scores exactly.
  const core::PipelineConfig config = PaperConfig(options);
  const size_t min_trainings = options.trace ? 1 : 3;
  std::vector<double> train_s;
  std::vector<double> reference;
  double auroc = 0.0;
  const Clock::time_point begin = Clock::now();
  for (;;) {
    ScopedSpan span(tracer, "train_untraced", ctx.root_span);
    const Clock::time_point start = Clock::now();
    Result<core::TargAdPipeline> pipeline =
        core::TargAdPipeline::Train(table, config);
    const double seconds = SecondsSince(start);
    ++report.attempted;
    Result<std::vector<double>> scores =
        pipeline.ok() ? pipeline->Score(test)
                      : Result<std::vector<double>>(pipeline.status());
    if (!scores.ok()) {
      ++report.failed;
      report.Check(false, "training: " + scores.status().ToString());
      break;
    }
    train_s.push_back(seconds);
    if (reference.empty()) {
      reference = *scores;
      Result<double> a = eval::Auroc(reference, data->test.target);
      auroc = a.ok() ? *a : 0.0;
      // Smoke runs train for 2 epochs; only real runs must rank well.
      report.Check(options.smoke || auroc > 0.8,
                   "target AUROC " + FormatDouble(auroc, 4) +
                       " is below the 0.8 sanity floor");
      Result<core::FrozenScorer> frozen = pipeline->Freeze(nn::Dtype::kFloat64);
      Result<std::vector<double>> frozen_scores =
          frozen.ok() ? frozen->Score(test)
                      : Result<std::vector<double>>(frozen.status());
      report.Check(frozen_scores.ok() && SameBits(*frozen_scores, reference),
                   "Freeze(float64) does not score bit-identically");
    } else if (!SameBits(*scores, reference)) {
      ++report.failed;
      report.Check(false, "a repeated training gave different scores");
    }
    if (train_s.size() < min_trainings) continue;
    // A traced run spends the rest of its time on the traced training.
    if (options.trace ||
        SecondsSince(begin) + Median(train_s) > options.seconds) {
      break;
    }
  }
  if (train_s.empty()) return report;

  auto& m = report.metrics;
  const double train_fast = Quantile(train_s, 0.1);
  m["setup_s"] = Median(setup_s);
  m["latency_ms"] = train_fast * 1e3;
  m["throughput_per_s"] = static_cast<double>(table.num_rows()) / train_fast;
  m["target_auroc"] = auroc;
  m["rss_peak_mb"] = PeakRssMb();
  report.notes["trainings"] = static_cast<double>(train_s.size());
  report.notes["train_p50_s"] = Median(train_s);
  report.notes["train_rows"] = static_cast<double>(table.num_rows());
  if (!options.trace) return report;

  m["data.read_csv_s"] = Median(setup_s);
  const Status traced =
      TracedTrain(ctx, table, test, reference, train_fast, &report);
  report.Check(traced.ok(), "traced training: " + traced.ToString());
  return report;
}

}  // namespace harness
}  // namespace targad
