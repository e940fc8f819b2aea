// bulk_wide: UNSW-like 196-dim rows (148 numeric and 8 categorical cells,
// about 1.3 KB of CSV per row) streamed through ScoreCsvStream from memory,
// as `targad serve --model wide.tgz1 --in rows.csv` scores them. No
// network: row parsing, featurization and float32 inference own the time.

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <streambuf>

#include "common/string_util.h"
#include "core/frozen_scorer.h"
#include "core/pipeline.h"
#include "eval/metrics.h"
#include "fixtures.h"
#include "replay.h"
#include "serve/stream.h"
#include "stack.h"
#include "workloads.h"

namespace targad {
namespace harness {

namespace {

/// Read-only stream buffer over an existing string, so every pass re-reads
/// the same bytes without copying them first.
class MemoryBuf : public std::streambuf {
 public:
  explicit MemoryBuf(const std::string& bytes) {
    char* begin = const_cast<char*>(bytes.data());
    setg(begin, begin, begin + bytes.size());
  }
};

struct BulkFixture {
  std::string artifact_path;
  std::string csv;             ///< Header plus every row, label included.
  std::string expected;        ///< The stream's exact output for `csv`.
  std::string first_csv;       ///< Header plus the first row (set-up).
  std::string first_expected;
  size_t rows = 0;
  int label_col = 0;
  double auroc = 0.0;
  data::RawTable train_features;
  data::RawTable test_rows;
  std::unique_ptr<nn::InferencePlan> plan;
};

Result<BulkFixture> MakeFixture(const RunContext& ctx) {
  const bool smoke = ctx.options.smoke;
  const uint64_t seed = ctx.options.seed;
  const UnswSizes sizes = smoke ? UnswSizes{300, 200, 20, 30}
                                : UnswSizes{1500, 8000, 800, 1200};
  TARGAD_ASSIGN_OR_RETURN(UnswData data, MakeUnswData(seed, sizes));
  // Short training at the full architecture: inference cost is what
  // matters here, and it depends on the shapes, not on the epochs.
  TARGAD_ASSIGN_OR_RETURN(
      core::TargAdPipeline pipeline,
      core::TargAdPipeline::Train(
          data.train, FixtureConfig(seed, smoke ? 1 : 15, smoke ? 1 : 10, 4)));
  TARGAD_ASSIGN_OR_RETURN(core::FrozenScorer frozen,
                          pipeline.Freeze(nn::Dtype::kFloat32));
  BulkFixture fx;
  fx.artifact_path = ctx.dir + "/wide.tgz1";
  TARGAD_RETURN_NOT_OK(frozen.SaveArtifact(fx.artifact_path));
  TARGAD_ASSIGN_OR_RETURN(core::FrozenScorer served,
                          core::FrozenScorer::LoadArtifact(fx.artifact_path));
  fx.test_rows = data.test.Table();
  TARGAD_ASSIGN_OR_RETURN(std::vector<double> scores,
                          served.Score(fx.test_rows));
  TARGAD_ASSIGN_OR_RETURN(fx.auroc, eval::Auroc(scores, data.test.target));

  std::vector<std::string> header = data.test.columns;
  header.push_back("label");
  fx.label_col = static_cast<int>(header.size()) - 1;
  fx.csv = Join(header, ",") + "\n";
  fx.expected = "s_tar\n";
  fx.rows = data.test.rows.size();
  for (size_t i = 0; i < fx.rows; ++i) {
    const std::string line =
        Join(data.test.rows[i], ",") + "," + data.test.kind[i] + "\n";
    const std::string score = FormatDouble(scores[i], 6) + "\n";
    if (i == 0) {
      fx.first_csv = fx.csv + line;
      fx.first_expected = fx.expected + score;
    }
    fx.csv += line;
    fx.expected += score;
  }
  fx.train_features = WithoutColumn(data.train, "label");
  TARGAD_ASSIGN_OR_RETURN(nn::InferencePlan plan,
                          pipeline.model().Freeze(nn::Dtype::kFloat32));
  fx.plan = std::make_unique<nn::InferencePlan>(std::move(plan));
  return fx;
}

/// Streams `csv` through the stack once; returns the stream's output.
Result<std::string> StreamOnce(Stack* stack, const std::string& csv,
                               size_t* rows_scored) {
  TARGAD_ASSIGN_OR_RETURN(std::shared_ptr<const core::RowScorer> schema,
                          stack->registry.GetScorer("default"));
  MemoryBuf buf(csv);
  std::istream in(&buf);
  std::ostringstream out;
  TARGAD_ASSIGN_OR_RETURN(
      serve::StreamStats stats,
      serve::ScoreCsvStream(*schema, stack->scorer(), in, out));
  *rows_scored = stats.rows_scored;
  return out.str();
}

/// Output lines that differ from the expected ones.
uint64_t MismatchedLines(const std::string& got, const std::string& want) {
  const std::vector<std::string> a = Split(got, '\n');
  const std::vector<std::string> b = Split(want, '\n');
  uint64_t bad = std::max(a.size(), b.size()) - std::min(a.size(), b.size());
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    bad += a[i] != b[i] ? 1 : 0;
  }
  return bad;
}

}  // namespace

Report RunBulkWide(const RunContext& ctx) {
  const Options& options = ctx.options;
  Tracer* tracer = ctx.tracer;
  Report report;
  Result<BulkFixture> made = [&] {
    ScopedSpan span(tracer, "fixture", ctx.root_span);
    return MakeFixture(ctx);
  }();
  if (!made.ok()) {
    report.Check(false, "fixture: " + made.status().ToString());
    return report;
  }
  const BulkFixture& fx = *made;
  ScoreProbe probe(tracer);

  // Set-up: artifact on disk to the first scored row.
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < SetupRepeats(options); ++i) {
    stack.reset();
    ScopedSpan span(tracer, "setup", ctx.root_span);
    const Clock::time_point start = Clock::now();
    auto fresh = std::make_unique<Stack>(options.trace ? &probe : nullptr);
    Status status = fresh->registry.PublishFile("default", fx.artifact_path);
    if (status.ok()) status = fresh->Start(/*tcp=*/false);
    size_t scored = 0;
    Result<std::string> out =
        status.ok() ? StreamOnce(fresh.get(), fx.first_csv, &scored)
                    : Result<std::string>(status);
    ++report.attempted;
    if (!out.ok() || *out != fx.first_expected) {
      ++report.failed;
      report.Check(false, "set-up: " + (out.ok() ? std::string("wrong score")
                                                 : out.status().ToString()));
      return report;
    }
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
    stack = std::move(fresh);
  }

  // Passes over the whole CSV until the time is up. Traced runs alternate
  // traced and untraced passes, which prices the tracing itself.
  std::vector<double> pass_s, traced_pass_s;
  uint64_t wrong_passes = 0;
  const ScoreProbe::Totals before = probe.totals();
  const Clock::time_point begin = Clock::now();
  for (size_t pass = 0;; ++pass) {
    const bool traced = options.trace && pass % 2 == 1;
    probe.set_active(traced);
    ScopedSpan span(tracer, traced ? "pass" : "pass_untraced", ctx.root_span);
    probe.set_parent(span.id());
    const Clock::time_point start = Clock::now();
    size_t scored = 0;
    Result<std::string> out = StreamOnce(stack.get(), fx.csv, &scored);
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    (traced ? traced_pass_s : pass_s).push_back(seconds);
    report.attempted += fx.rows;
    if (!out.ok()) {
      report.failed += fx.rows;
      report.Check(false, "stream: " + out.status().ToString());
      break;
    }
    const uint64_t bad =
        *out == fx.expected ? 0 : MismatchedLines(*out, fx.expected);
    report.failed += bad;
    wrong_passes += bad != 0 || scored != fx.rows;
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - begin).count();
    if (elapsed >= options.seconds && pass >= 2) break;
  }
  const ScoreProbe::Totals after = probe.totals();
  report.Check(wrong_passes == 0, std::to_string(wrong_passes) +
                                      " passes with wrong or missing scores");

  auto& m = report.metrics;
  const double pass_fast = Quantile(pass_s, 0.1);
  m["setup_s"] = Median(setup_s);
  m["latency_ms"] = pass_fast * 1e3;
  m["throughput_per_s"] = static_cast<double>(fx.rows) / pass_fast;
  m["target_auroc"] = fx.auroc;
  m["rss_peak_mb"] = PeakRssMb();
  report.notes["rows_per_pass"] = static_cast<double>(fx.rows);
  report.notes["pass_p50_ms"] = Median(pass_s) * 1e3;
  report.notes["passes"] =
      static_cast<double>(pass_s.size() + traced_pass_s.size());
  report.notes["csv_bytes_per_row"] =
      static_cast<double>(fx.csv.size()) / static_cast<double>(fx.rows);
  if (!options.trace) return report;

  AddServeMetrics(*stack, probe, &m);
  double traced_wall_s = 0.0;
  for (double s : traced_pass_s) traced_wall_s += s;
  if (after.rows > before.rows && traced_wall_s > 0.0) {
    const double score_s =
        static_cast<double>(after.score_ns - before.score_ns) * 1e-9;
    m["core.score_us_per_row"] =
        score_s * 1e6 / static_cast<double>(after.rows - before.rows);
    m["core.score_busy_frac"] = score_s / (Stack::kWorkers * traced_wall_s);
    m["trace.overhead_frac"] = Median(traced_pass_s) / Median(pass_s) - 1.0;
  }

  const double replay_s = ReplaySeconds(options);
  {
    std::vector<std::string> records = Split(fx.csv, '\n');
    records.erase(records.begin());  // Header.
    if (!records.empty() && records.back().empty()) records.pop_back();
    ScopedSpan span(tracer, "replay.row_parse", ctx.root_span);
    m["serve.row_parse_ns_per_row"] =
        RowParseNsPerRow(records, fx.label_col, replay_s);
  }
  const Status replayed =
      AddModelReplays(fx.train_features, fx.test_rows, *fx.plan, replay_s,
                      tracer, ctx.root_span, &m);
  report.Check(replayed.ok(), "model replays: " + replayed.ToString());
  {
    ScopedSpan span(tracer, "replay.artifact_map", ctx.root_span);
    m["nn.artifact_map_us"] = ArtifactMapUs(fx.artifact_path, 50);
  }
  return report;
}

}  // namespace harness
}  // namespace targad
