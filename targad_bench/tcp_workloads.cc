// tcp_narrow and fleet_zipf: the TCP serving path under an open-loop phase
// (latency at a fixed offered rate) and a closed-loop phase (the highest
// completion rate 2 connections x 128 in flight can drive).

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/frozen_scorer.h"
#include "core/pipeline.h"
#include "eval/metrics.h"
#include "fixtures.h"
#include "loadgen.h"
#include "net/protocol.h"
#include "replay.h"
#include "stack.h"
#include "workloads.h"

namespace targad {
namespace harness {

namespace {

namespace fs = std::filesystem;

struct TcpFixture {
  std::vector<std::string> lines;     ///< "SCORE ...\n" request lines.
  std::vector<std::string> expected;  ///< "OK <score>" per line.
  /// Target AUROC on the request rows (fleet: the mean over its models).
  double auroc = 0.0;
  double rate = 0.0;                  ///< Open-loop offered requests/s.
  /// Loads the models into a fresh stack's registry (part of set-up).
  std::function<Status(Stack*)> load;

  // Replay inputs of the (first) model, for traced runs.
  data::RawTable train_features;
  data::RawTable request_rows;
  std::unique_ptr<nn::InferencePlan> plan;
  std::string artifact_path;  ///< Empty for the text model.

  // fleet_zipf: what the republisher rewrites.
  std::vector<core::FrozenScorer> frozen;
  std::string models_dir;
  std::string staging_dir;
};

struct TcpSizes {
  size_t request_pool = 4096;
  size_t fraud_normals = 600;
  int epochs = 15;
  int ae_epochs = 10;
  double narrow_rate = 100000.0;
  size_t fleet_models = 64;
  size_t fleet_warm = 16;
  size_t fleet_lines = 8192;
  size_t fleet_normals = 200;
  int fleet_epochs = 15;
  int fleet_ae_epochs = 10;
  double fleet_rate = 40000.0;
};

TcpSizes SizesFor(const Options& options) {
  TcpSizes z;
  if (options.smoke) {
    z.request_pool = 256;
    z.fraud_normals = 200;
    z.epochs = 2;
    z.ae_epochs = 2;
    z.narrow_rate = 5000.0;
    z.fleet_models = 8;
    z.fleet_warm = 4;
    z.fleet_lines = 512;
    z.fleet_epochs = 2;
    z.fleet_ae_epochs = 2;
    z.fleet_rate = 5000.0;
  }
  return z;
}

std::string OkReply(double score) {
  std::string reply = net::FormatOkScore(score);
  reply.pop_back();  // The client strips the terminator.
  return reply;
}

std::string ModelName(size_t j) {
  char name[32];
  std::snprintf(name, sizeof(name), "m%02zu", j);
  return name;
}

Result<TcpFixture> NarrowFixture(const RunContext& ctx, const TcpSizes& z) {
  const uint64_t seed = ctx.options.seed;
  TcpFixture fx;
  const data::RawTable train = FraudTrainingTable(seed, z.fraud_normals, 0.0);
  TARGAD_ASSIGN_OR_RETURN(
      core::TargAdPipeline trained,
      core::TargAdPipeline::Train(
          train, FixtureConfig(seed, z.epochs, z.ae_epochs, 2)));
  const std::string path = ctx.dir + "/default.targad";
  {
    std::ofstream out(path);
    TARGAD_RETURN_NOT_OK(trained.Save(out));
    if (!out) return Status::IOError("cannot write ", path);
  }
  // Expectations come from the file the server loads, not from the
  // in-memory model, so a lossy save would show up as wrong replies.
  std::ifstream in(path);
  TARGAD_ASSIGN_OR_RETURN(core::TargAdPipeline served,
                          core::TargAdPipeline::Load(in));
  const LabeledRows pool = FraudRequests(seed ^ 0x5EEDULL, z.request_pool);
  TARGAD_ASSIGN_OR_RETURN(std::vector<double> scores,
                          served.Score(pool.Table()));
  for (size_t i = 0; i < pool.rows.size(); ++i) {
    fx.lines.push_back("SCORE default " + Join(pool.rows[i], ",") + "\n");
    fx.expected.push_back(OkReply(scores[i]));
  }
  TARGAD_ASSIGN_OR_RETURN(fx.auroc, eval::Auroc(scores, pool.target));
  fx.rate = z.narrow_rate;
  fx.load = [path](Stack* stack) {
    return stack->registry.PublishFile("default", path);
  };
  fx.train_features = WithoutColumn(train, "label");
  fx.request_rows = pool.Table();
  TARGAD_ASSIGN_OR_RETURN(nn::InferencePlan plan,
                          served.model().Freeze(nn::Dtype::kFloat64));
  fx.plan = std::make_unique<nn::InferencePlan>(std::move(plan));
  return fx;
}

Result<TcpFixture> FleetFixture(const RunContext& ctx, const TcpSizes& z) {
  const uint64_t seed = ctx.options.seed;
  TcpFixture fx;
  fx.models_dir = ctx.dir + "/models";
  fx.staging_dir = ctx.dir + "/staging";
  fs::create_directories(fx.models_dir);
  fs::create_directories(fx.staging_dir);

  const LabeledRows pool = FraudRequests(seed ^ 0x5EEDULL, z.request_pool);
  const data::RawTable pool_table = pool.Table();
  std::vector<std::vector<double>> model_scores;
  for (size_t j = 0; j < z.fleet_models; ++j) {
    const data::RawTable train =
        FraudTrainingTable(seed * 1000 + j, z.fleet_normals, 0.1 * j);
    TARGAD_ASSIGN_OR_RETURN(
        core::TargAdPipeline pipeline,
        core::TargAdPipeline::Train(
            train,
            FixtureConfig(seed + j, z.fleet_epochs, z.fleet_ae_epochs, 2)));
    TARGAD_ASSIGN_OR_RETURN(core::FrozenScorer frozen,
                            pipeline.Freeze(nn::Dtype::kFloat32));
    const std::string path = fx.models_dir + "/" + ModelName(j) + ".tgz1";
    TARGAD_RETURN_NOT_OK(frozen.SaveArtifact(path));
    TARGAD_ASSIGN_OR_RETURN(core::FrozenScorer served,
                            core::FrozenScorer::LoadArtifact(path));
    TARGAD_ASSIGN_OR_RETURN(std::vector<double> scores,
                            served.Score(pool_table));
    TARGAD_ASSIGN_OR_RETURN(const double auroc,
                            eval::Auroc(scores, pool.target));
    fx.auroc += auroc / static_cast<double>(z.fleet_models);
    model_scores.push_back(std::move(scores));
    fx.frozen.push_back(std::move(frozen));
    if (j == 0) {
      fx.train_features = WithoutColumn(train, "label");
      fx.artifact_path = path;
      TARGAD_ASSIGN_OR_RETURN(nn::InferencePlan plan,
                              pipeline.model().Freeze(nn::Dtype::kFloat32));
      fx.plan = std::make_unique<nn::InferencePlan>(std::move(plan));
    }
  }
  fx.request_rows = pool_table;

  // Model popularity is Zipf(1.1): a few hot models and a long cold tail,
  // four times more models than the warm tier holds.
  std::vector<double> weights;
  for (size_t j = 0; j < z.fleet_models; ++j) {
    weights.push_back(1.0 / std::pow(static_cast<double>(j + 1), 1.1));
  }
  Rng rng(seed ^ 0x21FFULL);
  for (size_t l = 0; l < z.fleet_lines; ++l) {
    const size_t j = rng.Categorical(weights);
    const size_t r = static_cast<size_t>(rng.UniformInt(pool.rows.size()));
    fx.lines.push_back("SCORE default model=" + ModelName(j) + "," +
                       Join(pool.rows[r], ",") + "\n");
    fx.expected.push_back(OkReply(model_scores[j][r]));
  }
  fx.rate = z.fleet_rate;
  fx.load = [dir = fx.models_dir, warm = z.fleet_warm](Stack* stack) {
    stack->registry.set_warm_capacity(warm);
    return stack->registry.LoadDirectory(dir);
  };
  return fx;
}

/// Redeploys one fleet model every 250 ms the safe way: write the artifact
/// to a staging file, rename(2) it over the live one (the registry's
/// existing mapping keeps the old inode), then RefreshIfChanged.
class Republisher {
 public:
  Republisher(serve::ModelRegistry* registry, const TcpFixture* fixture,
              uint64_t seed)
      : registry_(registry), fixture_(fixture), seed_(seed) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~Republisher() { Stop(); }

  Republisher(const Republisher&) = delete;
  Republisher& operator=(const Republisher&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  // Read only after Stop (the join orders the loop's writes before).
  const std::vector<double>& refresh_ms() const { return refresh_ms_; }
  uint64_t publishes() const { return publishes_; }
  uint64_t errors() const { return errors_; }

 private:
  void Loop() {
    Rng rng(seed_);
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(250),
                         [this] { return stop_; })) {
      lock.unlock();
      PublishOne(static_cast<size_t>(rng.UniformInt(fixture_->frozen.size())));
      lock.lock();
    }
  }

  void PublishOne(size_t j) {
    const std::string file = ModelName(j) + ".tgz1";
    const std::string staged = fixture_->staging_dir + "/" + file;
    const std::string live = fixture_->models_dir + "/" + file;
    if (!fixture_->frozen[j].SaveArtifact(staged).ok()) {
      ++errors_;
      return;
    }
    std::error_code ec;
    fs::rename(staged, live, ec);
    if (ec) {
      ++errors_;
      return;
    }
    ++publishes_;
    const Clock::time_point start = Clock::now();
    const Result<size_t> refreshed = registry_->RefreshIfChanged();
    refresh_ms_.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count());
    if (!refreshed.ok()) ++errors_;
  }

  serve::ModelRegistry* const registry_;
  const TcpFixture* const fixture_;
  const uint64_t seed_;
  std::vector<double> refresh_ms_;
  uint64_t publishes_ = 0;
  uint64_t errors_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // Guarded by mu_.
  std::thread thread_;  // Last: joined before the members above go away.
};

/// The request-line payloads the server's parse stage hands to
/// SplitDataRecord: everything after "SCORE <model> ", terminator dropped.
std::vector<std::string> CellsCsv(const std::vector<std::string>& lines) {
  std::vector<std::string> cells;
  for (const std::string& line : lines) {
    const size_t second_space = line.find(' ', line.find(' ') + 1);
    cells.push_back(line.substr(second_space + 1,
                                line.size() - second_space - 2));
  }
  return cells;
}

Report RunTcp(const RunContext& ctx, const TcpFixture& fx, bool fleet) {
  const Options& options = ctx.options;
  Tracer* tracer = ctx.tracer;
  Report report;
  ScoreProbe probe(tracer);
  ScoreProbe* stack_probe = options.trace ? &probe : nullptr;

  // Set-up: model files on disk to the first correct reply.
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < SetupRepeats(options); ++i) {
    stack.reset();
    ScopedSpan span(tracer, "setup", ctx.root_span);
    const Clock::time_point start = Clock::now();
    auto fresh = std::make_unique<Stack>(stack_probe);
    Status status = fx.load(fresh.get());
    if (status.ok()) status = fresh->Start(/*tcp=*/true);
    if (status.ok()) status = FirstReply(fresh->port(), fx.lines[0],
                                         fx.expected[0]);
    ++report.attempted;
    if (!status.ok()) {
      ++report.failed;
      report.Check(false, "set-up: " + status.ToString());
      return report;
    }
    setup_s.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
    stack = std::move(fresh);
  }

  std::unique_ptr<Republisher> republisher;
  if (fleet) {
    republisher = std::make_unique<Republisher>(&stack->registry, &fx,
                                                options.seed ^ 0xEE1ULL);
  }

  LoadPlan base;
  base.port = stack->port();
  base.lines = &fx.lines;
  base.expected = &fx.expected;
  base.connections = 2;
  base.depth = 128;
  base.seed = options.seed;
  base.tracer = tracer;

  // Traced runs spend part of the closed loop untraced, which prices the
  // tracing itself.
  const double s = options.seconds;
  const ScoreProbe::Totals traced_before = probe.totals();
  double traced_wall_s = 0.0;
  auto run_phase = [&](const char* name, LoadPlan plan) {
    ScopedSpan span(tracer, name, ctx.root_span);
    probe.set_parent(span.id());
    plan.parent_span = span.id();
    const Clock::time_point start = Clock::now();
    LoadResult result = RunLoad(plan);
    if (probe.active()) {
      traced_wall_s +=
          std::chrono::duration<double>(Clock::now() - start).count();
    }
    return result;
  };
  LoadPlan open_plan = base;
  open_plan.mode = LoadPlan::Mode::kOpen;
  open_plan.rate = fx.rate;
  open_plan.duration_s = (options.trace ? 0.4 : 0.5) * s;
  const LoadResult open = run_phase("phase.open_loop", open_plan);

  LoadPlan closed_plan = base;
  closed_plan.mode = LoadPlan::Mode::kClosed;
  closed_plan.latency_every = 16;
  closed_plan.duration_s = (options.trace ? 0.3 : 0.5) * s;
  LoadResult untraced;
  if (options.trace) {
    // An inactive probe wraps no batch, so this segment adds nothing to
    // the probe totals and its wall time is left out of traced_wall_s.
    probe.set_active(false);
    untraced = run_phase("phase.closed_loop_untraced", closed_plan);
    probe.set_active(true);
  }
  const LoadResult closed = run_phase("phase.closed_loop", closed_plan);
  const ScoreProbe::Totals traced_after = probe.totals();
  if (republisher) republisher->Stop();

  // Correctness: every reply, every counter that counts a failure.
  report.attempted += open.sent + closed.sent + untraced.sent;
  report.failed += open.failed() + closed.failed() + untraced.failed();
  const LoadResult* const phases[] = {&open, &untraced, &closed};
  for (const LoadResult* r : phases) {
    report.Check(r->wrong == 0, std::to_string(r->wrong) + " wrong scores");
    report.Check(r->errors == 0, std::to_string(r->errors) + " error replies");
    report.Check(r->lost == 0, std::to_string(r->lost) + " lost replies");
    report.Check(r->shed == 0, std::to_string(r->shed) + " shed requests");
  }
  const net::NetMetricsSnapshot net = stack->net_metrics.Snapshot();
  report.Check(net.protocol_errors == 0, "server saw protocol errors");
  // A generator that falls behind its own schedule no longer offers the
  // stated rate, so the open-loop latency would describe some other load.
  // That invalidates the measurement, not the program's outputs.
  const double lag_p99_us = SupportedQuantile(open.lag_ns, 0.99) * 1e-3;
  if (lag_p99_us > 1000.0) {
    report.warnings.push_back("generator lag p99 " +
                              std::to_string(lag_p99_us) +
                              " us exceeds 1 ms: open-loop latency invalid");
  }
  if (republisher) {
    report.Check(republisher->errors() == 0, "republish or refresh failed");
    report.Check(republisher->publishes() > 0, "no model was republished");
  }

  auto& m = report.metrics;
  m["setup_s"] = Median(setup_s);
  m["latency_ms"] = SupportedQuantile(open.latency_ns, 0.5) * 1e-6;
  m["throughput_per_s"] = closed.FastSliceThroughput();
  m["target_auroc"] = fx.auroc;
  m["rss_peak_mb"] = PeakRssMb();

  report.notes["open.offered_per_s"] = fx.rate;
  report.notes["open.lag_p99_us"] = lag_p99_us;
  report.notes["open.achieved_per_s"] = open.throughput();
  report.notes["open.samples"] = static_cast<double>(open.latency_ns.size());
  report.notes["closed.mean_per_s"] = closed.throughput();
  report.notes["closed.p50_us"] =
      SupportedQuantile(closed.latency_ns, 0.5) * 1e-3;
  if (!options.trace) return report;

  // Per-layer metrics: client view, server counters, probe totals, replays.
  m["loadgen.lag_p99_us"] = lag_p99_us;
  m["loadgen.p99_us"] = SupportedQuantile(open.latency_ns, 0.99) * 1e-3;
  m["loadgen.p999_us"] = SupportedQuantile(open.latency_ns, 0.999) * 1e-3;
  m["loadgen.samples"] = static_cast<double>(open.latency_ns.size());
  m["net.parse_p50_us"] = static_cast<double>(net.parse_p50_us);
  m["net.parse_p99_us"] = static_cast<double>(net.parse_p99_us);
  m["net.score_p50_us"] = static_cast<double>(net.score_p50_us);
  m["net.score_p99_us"] = static_cast<double>(net.score_p99_us);
  m["net.respond_p50_us"] = static_cast<double>(net.respond_p50_us);
  m["net.respond_p99_us"] = static_cast<double>(net.respond_p99_us);
  m["net.shed"] = static_cast<double>(net.shed);
  AddServeMetrics(*stack, probe, &m);
  if (republisher) {
    m["serve.registry.refresh_ms_p50"] = Median(republisher->refresh_ms());
  }
  const uint64_t rows = traced_after.rows - traced_before.rows;
  const uint64_t score_ns = traced_after.score_ns - traced_before.score_ns;
  if (rows > 0 && traced_wall_s > 0.0) {
    m["core.score_us_per_row"] =
        static_cast<double>(score_ns) * 1e-3 / static_cast<double>(rows);
    m["core.score_busy_frac"] = static_cast<double>(score_ns) * 1e-9 /
                                (Stack::kWorkers * traced_wall_s);
  }
  if (closed.throughput() > 0.0) {
    m["trace.overhead_frac"] =
        untraced.throughput() / closed.throughput() - 1.0;
  }

  const double replay_s = ReplaySeconds(options);
  {
    ScopedSpan span(tracer, "replay.net_decode", ctx.root_span);
    m["net.decode_ns_per_row"] = DecodeNsPerRow(fx.lines, replay_s);
  }
  {
    ScopedSpan span(tracer, "replay.row_parse", ctx.root_span);
    m["serve.row_parse_ns_per_row"] =
        RowParseNsPerRow(CellsCsv(fx.lines), -1, replay_s);
  }
  const Status replayed =
      AddModelReplays(fx.train_features, fx.request_rows, *fx.plan, replay_s,
                      tracer, ctx.root_span, &m);
  report.Check(replayed.ok(), "model replays: " + replayed.ToString());
  if (!fx.artifact_path.empty()) {
    ScopedSpan span(tracer, "replay.artifact_map", ctx.root_span);
    m["nn.artifact_map_us"] = ArtifactMapUs(fx.artifact_path, 50);
  }
  return report;
}

}  // namespace

Report RunTcpNarrow(const RunContext& ctx) {
  Result<TcpFixture> fx = [&] {
    ScopedSpan span(ctx.tracer, "fixture", ctx.root_span);
    return NarrowFixture(ctx, SizesFor(ctx.options));
  }();
  if (!fx.ok()) {
    Report report;
    report.Check(false, "fixture: " + fx.status().ToString());
    return report;
  }
  return RunTcp(ctx, *fx, /*fleet=*/false);
}

Report RunFleetZipf(const RunContext& ctx) {
  Result<TcpFixture> fx = [&] {
    ScopedSpan span(ctx.tracer, "fixture", ctx.root_span);
    return FleetFixture(ctx, SizesFor(ctx.options));
  }();
  if (!fx.ok()) {
    Report report;
    report.Check(false, "fixture: " + fx.status().ToString());
    return report;
  }
  return RunTcp(ctx, *fx, /*fleet=*/true);
}

}  // namespace harness
}  // namespace targad
