// targad — command-line interface over the library.
//
//   targad generate --profile unsw|kdd|nsl|sqb --scale 0.05 --seed 1 --out P
//       Export a synthetic dataset profile as P_{train,validation,test}.csv.
//   targad train --train T.csv --model M [--label-column label] [--k N]
//                [--alpha A] [--epochs E] [--seed S]
//       Train a TargAdPipeline from a CSV and persist it to M.
//   targad score --model M --in X.csv --out scores.csv
//       Score a CSV with a persisted pipeline (S^tar per row).
//   targad evaluate --scores scores.csv --truth T.csv
//                   [--label-column label] [--target-prefix target_]
//       AUPRC/AUROC of a score file against a labeled CSV.
//   targad freeze --model M --out A.tgz1 [--dtype float64|float32]
//       Freeze a text pipeline into the flat .tgz1 artifact: the serving
//       container that loads with one read and a checksum straight into
//       an inference plan (no parse, no per-tensor copies). --dtype picks
//       the stored element type.
//   targad inspect --artifact A.tgz1
//       Validate and dump a flat artifact: format version, dtype, section
//       table, meta-blob size. Fails (exit 1) on any corruption the
//       serving loader would reject — bad magic, bad checksum, truncation.
//   targad serve --model M [--models DIR] [--in X.csv] [--out scores.csv]
//                [--dtype float64|float32] [--batch 64] [--delay-us 200]
//                [--workers 2] [--queue 4096] [--refresh-ms 0]
//                [--tcp PORT] [--bind 127.0.0.1] [--max-conns 1024]
//                [--max-inflight 256] [--max-line 65536] [--idle-ms 0]
//                [--drain-grace-ms 5000] [--warm N]
//       Stream rows (stdin or --in) through the micro-batched scoring
//       service; scores go to stdout or --out, a metrics report to stderr.
//       --batch caps the rows of one vectorized call. A worker takes
//       queued rows at once unless another is scoring a batch; only then
//       do they wait, at most --delay-us microseconds, for a fuller batch.
//       Text models are frozen to --dtype as they load: float64 (default)
//       scores bit-identically to `score`, float32 runs the float32
//       inference plan; .tgz1 artifacts keep their own dtype. --models
//       registers one artifact per stem in DIR; a row may start with a
//       "model=<name>" cell to route to one of them. --refresh-ms N > 0
//       polls every registered artifact's mtime every N milliseconds on a
//       background timer and hot-swaps changed files (zero-downtime
//       redeploy: overwrite the .targad in place and the next batch scores
//       with the new model). --warm N caps the registry's warm tier at N
//       resident models: past the cap the least-frequently-served
//       file-backed models (lookup counts that halve as they age) are
//       demoted to the cold tier (name + path only) and promoted back —
//       a read and a checksum for .tgz1 artifacts — on their next routed
//       row; a promotion that cannot load fails that row as unavailable. --tcp PORT serves the line protocol
//       ("SCORE <model> <csv>" -> "OK <score>", see src/net/protocol.h)
//       on a TCP listener instead of stdio; PORT 0 picks an ephemeral port,
//       reported on stderr as "targad: listening on <addr>:<port>".
//       Either mode drains gracefully on SIGTERM/SIGINT: input stops,
//       every in-flight row is scored and written, then the process exits.
//
// Unknown flags are rejected with the subcommand's valid flag list.
// Exit status 0 on success; errors print to stderr.

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "core/frozen_scorer.h"
#include "core/pipeline.h"
#include "data/export.h"
#include "data/profiles.h"
#include "eval/metrics.h"
#include "net/metrics.h"
#include "net/server.h"
#include "nn/artifact.h"
#include "nn/frozen.h"
#include "serve/batch_scorer.h"
#include "serve/metrics.h"
#include "serve/model_registry.h"
#include "serve/stream.h"

using namespace targad;  // NOLINT(build/namespaces)

namespace {

// --flag value parser; flags may appear in any order.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        ok_ = false;
        error_ = "expected --flag, got '" + key + "'";
        return;
      }
      values_[key.substr(2)] = argv[i + 1];
    }
    if ((argc - first) % 2 != 0) {
      ok_ = false;
      error_ = "dangling flag without a value";
    }
  }

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  std::string Get(const std::string& key, const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  // The numeric getters return `fallback` for an absent flag. main() has
  // checked every present numeric flag (CheckNumericFlags), so a present
  // value parses and lies in its range.
  double GetDouble(const std::string& key, double fallback) const {
    double v = fallback;
    auto it = values_.find(key);
    if (it != values_.end()) ParseDouble(it->second, &v);
    return v;
  }

  int GetInt(const std::string& key, int fallback) const {
    long v = fallback;  // NOLINT(runtime/int)
    auto it = values_.find(key);
    if (it != values_.end()) ParseInt(it->second, &v);
    return static_cast<int>(v);
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  /// Flags present but not in `allowed` (sorted, "--"-prefixed).
  std::vector<std::string> Unknown(const std::vector<std::string>& allowed) const {
    std::vector<std::string> out;
    for (const auto& [key, value] : values_) {
      (void)value;
      if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
        out.push_back("--" + key);
      }
    }
    return out;
  }

 private:
  std::map<std::string, std::string> values_;
  bool ok_ = true;
  std::string error_;
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: targad <generate|train|score|evaluate|freeze|inspect|serve> "
      "[--flag value]...\n"
      "run with a subcommand and no flags for its options\n");
  return 2;
}

// Valid flags per subcommand; anything else is rejected up front.
const std::map<std::string, std::vector<std::string>>& CommandFlags() {
  static const std::map<std::string, std::vector<std::string>> kFlags = {
      {"generate", {"profile", "scale", "seed", "out"}},
      {"train", {"train", "model", "label-column", "k", "alpha", "epochs",
                 "seed"}},
      {"score", {"model", "in", "out"}},
      {"evaluate", {"scores", "truth", "label-column", "target-prefix"}},
      {"freeze", {"model", "out", "dtype"}},
      {"inspect", {"artifact"}},
      {"serve", {"model", "models", "in", "out", "dtype", "batch", "delay-us",
                 "workers", "queue", "refresh-ms", "tcp", "bind", "max-conns",
                 "max-inflight", "max-line", "idle-ms", "drain-grace-ms",
                 "warm"}},
  };
  return kFlags;
}

// Integer flags and the range each accepts. Sizes (counts and byte
// limits) are never negative; a warm capacity, a refresh interval and the
// in-flight cap (at 0 the server would never read a line), when given, are
// positive; a port fits in 16 bits; everything else must fit in an int.
const std::map<std::string, std::pair<int, int>>& IntFlagRanges() {
  constexpr int kMin = std::numeric_limits<int>::min();
  constexpr int kMax = std::numeric_limits<int>::max();
  static const std::map<std::string, std::pair<int, int>> kRanges = {
      {"seed", {kMin, kMax}},         {"k", {kMin, kMax}},
      {"epochs", {kMin, kMax}},       {"delay-us", {kMin, kMax}},
      {"refresh-ms", {1, kMax}},      {"idle-ms", {kMin, kMax}},
      {"drain-grace-ms", {kMin, kMax}}, {"warm", {1, kMax}},
      {"batch", {0, kMax}},           {"workers", {0, kMax}},
      {"queue", {0, kMax}},           {"max-conns", {0, kMax}},
      {"max-line", {0, kMax}},        {"max-inflight", {1, kMax}},
      {"tcp", {0, 65535}},
  };
  return kRanges;
}

// Every numeric flag present must parse and lie in its range; a bad one
// fails the command before it runs. Returns the error, or "" when all pass.
std::string CheckNumericFlags(const Flags& flags) {
  for (const auto& [name, range] : IntFlagRanges()) {
    if (!flags.Has(name)) continue;
    const std::string value = flags.Get(name);
    long v = 0;  // NOLINT(runtime/int)
    if (!ParseInt(value, &v) || v < range.first || v > range.second) {
      return "invalid value '" + value + "' for --" + name +
             " (expected an integer in [" + std::to_string(range.first) +
             ", " + std::to_string(range.second) + "])";
    }
  }
  for (const char* name : {"scale", "alpha"}) {  // Any finite number.
    double v = 0.0;
    if (flags.Has(name) && !ParseDouble(flags.Get(name), &v)) {
      return "invalid value '" + flags.Get(name) + "' for --" + name +
             " (expected a number)";
    }
  }
  return "";
}

int CmdGenerate(const Flags& flags) {
  const std::string which = ToLower(flags.Get("profile", "kdd"));
  const double scale = flags.GetDouble("scale", 0.05);
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 0));
  const std::string out = flags.Get("out", "targad_data");

  data::DatasetProfile profile;
  if (which == "unsw") {
    profile = data::UnswLikeProfile(scale);
  } else if (which == "kdd") {
    profile = data::KddLikeProfile(scale);
  } else if (which == "nsl") {
    profile = data::NslKddLikeProfile(scale);
  } else if (which == "sqb") {
    profile = data::SqbLikeProfile(scale);
  } else {
    return Fail("unknown profile '" + which + "' (unsw|kdd|nsl|sqb)");
  }
  auto bundle = data::MakeBundle(profile, seed);
  if (!bundle.ok()) return Fail(bundle.status().ToString());
  Status st = data::ExportBundleCsv(*bundle, out);
  if (!st.ok()) return Fail(st.ToString());
  std::printf("wrote %s_{train,validation,test}.csv (%s, scale %.2f)\n",
              out.c_str(), bundle->name.c_str(), scale);
  return 0;
}

int CmdTrain(const Flags& flags) {
  const std::string train_path = flags.Get("train");
  const std::string model_path = flags.Get("model");
  if (train_path.empty() || model_path.empty()) {
    return Fail("train requires --train <csv> and --model <path>");
  }
  core::PipelineConfig config;
  config.label_column = flags.Get("label-column", "label");
  config.model.seed = static_cast<uint64_t>(flags.GetInt("seed", 0));
  if (flags.Has("k")) config.model.selection.k = flags.GetInt("k", 0);
  if (flags.Has("alpha")) {
    config.model.selection.alpha = flags.GetDouble("alpha", 0.05);
  }
  if (flags.Has("epochs")) config.model.epochs = flags.GetInt("epochs", 100);

  auto pipeline = core::TargAdPipeline::TrainFromCsv(train_path, config);
  if (!pipeline.ok()) return Fail(pipeline.status().ToString());

  std::ofstream out(model_path);
  if (!out) return Fail("cannot open " + model_path + " for writing");
  Status st = pipeline->Save(out);
  if (!st.ok()) return Fail(st.ToString());
  std::printf("trained on %zu target classes, model written to %s\n",
              pipeline->class_names().size(), model_path.c_str());
  return 0;
}

int CmdScore(const Flags& flags) {
  const std::string model_path = flags.Get("model");
  const std::string in_path = flags.Get("in");
  const std::string out_path = flags.Get("out");
  if (model_path.empty() || in_path.empty() || out_path.empty()) {
    return Fail("score requires --model, --in, and --out");
  }
  std::ifstream model_in(model_path);
  if (!model_in) return Fail("cannot open " + model_path);
  auto pipeline = core::TargAdPipeline::Load(model_in);
  if (!pipeline.ok()) return Fail(pipeline.status().ToString());

  auto scores = pipeline->ScoreCsv(in_path);
  if (!scores.ok()) return Fail(scores.status().ToString());

  std::vector<std::vector<std::string>> rows;
  rows.reserve(scores->size());
  for (double s : *scores) rows.push_back({FormatDouble(s, 6)});
  Status st = data::WriteCsvRows(out_path, {"s_tar"}, rows);
  if (!st.ok()) return Fail(st.ToString());
  std::printf("scored %zu rows -> %s\n", scores->size(), out_path.c_str());
  return 0;
}

int CmdEvaluate(const Flags& flags) {
  const std::string scores_path = flags.Get("scores");
  const std::string truth_path = flags.Get("truth");
  if (scores_path.empty() || truth_path.empty()) {
    return Fail("evaluate requires --scores and --truth");
  }
  const std::string label_column = flags.Get("label-column", "label");
  const std::string target_prefix = flags.Get("target-prefix", "target_");

  auto scores_table = data::ReadCsv(scores_path);
  if (!scores_table.ok()) return Fail(scores_table.status().ToString());
  std::vector<double> scores;
  for (const auto& row : scores_table->rows) {
    double v = 0.0;
    if (row.empty() || !ParseDouble(row[0], &v)) {
      return Fail("non-numeric score row in " + scores_path);
    }
    scores.push_back(v);
  }

  auto truth_table = data::ReadCsv(truth_path);
  if (!truth_table.ok()) return Fail(truth_table.status().ToString());
  int label_col = -1;
  for (size_t j = 0; j < truth_table->num_cols(); ++j) {
    if (truth_table->column_names[j] == label_column) {
      label_col = static_cast<int>(j);
    }
  }
  if (label_col < 0) return Fail("label column '" + label_column + "' not found");
  std::vector<int> labels;
  for (const auto& row : truth_table->rows) {
    const std::string& label = row[static_cast<size_t>(label_col)];
    labels.push_back(label.rfind(target_prefix, 0) == 0 ? 1 : 0);
  }
  if (labels.size() != scores.size()) {
    return Fail("score/truth row count mismatch");
  }
  auto auprc = eval::Auprc(scores, labels);
  auto auroc = eval::Auroc(scores, labels);
  if (!auprc.ok()) return Fail(auprc.status().ToString());
  if (!auroc.ok()) return Fail(auroc.status().ToString());
  std::printf("AUPRC=%.4f AUROC=%.4f (%zu rows, %d positives)\n",
              auprc.ValueOrDie(), auroc.ValueOrDie(), scores.size(),
              static_cast<int>(std::count(labels.begin(), labels.end(), 1)));
  return 0;
}

int CmdFreeze(const Flags& flags) {
  const std::string model_path = flags.Get("model");
  const std::string out_path = flags.Get("out");
  if (model_path.empty() || out_path.empty()) {
    return Fail("freeze requires --model <pipeline> and --out <artifact>");
  }
  auto dtype = nn::ParseDtype(flags.Get("dtype", "float64"));
  if (!dtype.ok()) return Fail(dtype.status().ToString());

  std::ifstream model_in(model_path);
  if (!model_in) return Fail("cannot open " + model_path);
  auto pipeline = core::TargAdPipeline::Load(model_in);
  if (!pipeline.ok()) return Fail(pipeline.status().ToString());
  auto frozen = pipeline->Freeze(*dtype);
  if (!frozen.ok()) return Fail(frozen.status().ToString());
  Status st = frozen->SaveArtifact(out_path);
  if (!st.ok()) return Fail(st.ToString());

  // Re-load what was just written: proves the artifact round-trips through
  // the same validation serving will run, and yields the exact file size.
  auto artifact = nn::LoadedArtifact::Load(out_path);
  if (!artifact.ok()) return Fail(artifact.status().ToString());
  std::printf("froze %s -> %s (%s, %zu sections, %zu bytes)\n",
              model_path.c_str(), out_path.c_str(), nn::DtypeName(*dtype),
              (*artifact)->num_sections(), (*artifact)->file_size());
  return 0;
}

int CmdInspect(const Flags& flags) {
  const std::string path = flags.Get("artifact");
  if (path.empty()) return Fail("inspect requires --artifact <file>");
  auto artifact = nn::LoadedArtifact::Load(path);
  if (!artifact.ok()) return Fail(artifact.status().ToString());
  const nn::LoadedArtifact& a = **artifact;
  const size_t elem = a.dtype() == nn::Dtype::kFloat32 ? 4 : 8;
  std::printf("%s: targad flat artifact v%u\n", path.c_str(), a.version());
  std::printf("  dtype %s, %zu bytes, checksum ok\n", nn::DtypeName(a.dtype()),
              a.file_size());
  std::printf("  meta blob: %zu bytes\n", a.meta().size());
  std::printf("  sections: %zu\n", a.num_sections());
  size_t payload = 0;
  for (size_t i = 0; i < a.num_sections(); ++i) {
    const nn::LoadedArtifact::Section& s = a.section(i);
    const size_t bytes = s.rows * s.cols * elem;
    payload += bytes;
    std::printf("    [%2zu] %4zu x %-4zu %8zu bytes\n", i, s.rows, s.cols,
                bytes);
  }
  std::printf("  tensor payload: %zu bytes\n", payload);
  return 0;
}

// SIGTERM/SIGINT drain plumbing. The flag serves the stdio path (polled
// between lines by StreamOptions::should_stop); the self-pipe serves the
// TCP path (the listener polls the read end as Options::drain_fd). Both are
// async-signal-safe: a sig_atomic_t store and a write(2).
volatile std::sig_atomic_t g_stop_requested = 0;
int g_signal_pipe_w = -1;

extern "C" void HandleStopSignal(int /*signo*/) {
  g_stop_requested = 1;
  if (g_signal_pipe_w >= 0) {
    const char byte = 1;
    // The pipe is nonblocking; a full pipe already woke the listener.
    (void)!write(g_signal_pipe_w, &byte, 1);
  }
}

// Blocks SIGTERM/SIGINT on the calling thread. Called in main before any
// worker thread is spawned, so every child inherits the blocked mask and
// delivery is funnelled to the one thread that later unblocks (main). That
// guarantee is what makes the stdio drain reliable: the signal interrupts
// main's blocked getline (EINTR — the handler is installed without
// SA_RESTART) instead of being swallowed by a scorer worker.
void BlockStopSignals() {
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGTERM);
  sigaddset(&set, SIGINT);
  (void)pthread_sigmask(SIG_BLOCK, &set, nullptr);
}

void InstallStopHandlerAndUnblock() {
  struct sigaction action;
  memset(&action, 0, sizeof(action));
  action.sa_handler = HandleStopSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // deliberately no SA_RESTART: reads must EINTR
  (void)sigaction(SIGTERM, &action, nullptr);
  (void)sigaction(SIGINT, &action, nullptr);
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGTERM);
  sigaddset(&set, SIGINT);
  (void)pthread_sigmask(SIG_UNBLOCK, &set, nullptr);
}

int CmdServe(const Flags& flags) {
  const std::string model_path = flags.Get("model");
  const std::string models_dir = flags.Get("models");
  if (model_path.empty() && models_dir.empty()) {
    return Fail("serve requires --model <path> and/or --models <dir>");
  }
  const bool tcp_mode = flags.Has("tcp");
  const std::string in_path = flags.Get("in");
  const std::string out_path = flags.Get("out");
  if (tcp_mode && (!in_path.empty() || !out_path.empty())) {
    return Fail("--tcp serves sockets; --in/--out apply to the stdio mode");
  }

  auto dtype = nn::ParseDtype(flags.Get("dtype", "float64"));
  if (!dtype.ok()) return Fail(dtype.status().ToString());

  // From here on threads get spawned (scorer workers, refresher, listener);
  // keep stop signals blocked everywhere until the serving thread of the
  // chosen mode is ready to own them.
  BlockStopSignals();

  // The registry is the hot-swap point: a future front-end republishes a
  // retrained artifact under the same name while scoring continues. Every
  // text model is frozen to --dtype as it loads (float64 scores
  // bit-identically to `score`); GetScorer serves the frozen snapshot.
  // Declared before the registry so the registry (whose loads/evictions
  // record into it) is destroyed first.
  serve::ServeMetrics metrics;

  serve::ModelRegistry registry;
  registry.set_serve_dtype(*dtype);
  registry.set_metrics(&metrics);
  registry.set_warm_capacity(static_cast<size_t>(flags.GetInt("warm", 0)));
  if (!models_dir.empty()) {
    Status st = registry.LoadDirectory(models_dir);
    if (!st.ok()) return Fail(st.ToString());
  }
  if (!model_path.empty()) {
    Status st = registry.PublishFile("default", model_path);
    if (!st.ok()) return Fail(st.ToString());
  }
  auto schema = registry.GetScorer("default");
  if (!schema.ok()) {
    return Fail("serve: no 'default' model; pass --model or put default.targad "
                "in --models");
  }

  // --refresh-ms: background mtime re-poll. Overwriting a registered
  // artifact file while serving hot-swaps it within one interval; rows
  // already submitted keep the snapshot they started with.
  const int refresh_ms = flags.GetInt("refresh-ms", 0);
  std::mutex refresh_mu;
  std::condition_variable refresh_cv;
  bool refresh_stop = false;
  std::thread refresher;

  serve::BatchScorerOptions options;
  options.max_batch_size = static_cast<size_t>(flags.GetInt("batch", 64));
  options.max_queue_delay_us = flags.GetInt("delay-us", 200);
  options.num_workers = static_cast<size_t>(flags.GetInt("workers", 2));
  options.max_queue_rows = static_cast<size_t>(flags.GetInt("queue", 4096));

  serve::BatchScorer scorer(
      serve::BatchScorer::NamedSnapshotProvider(
          [&registry](const std::string& name)
              -> Result<std::shared_ptr<const core::RowScorer>> {
            auto snapshot = registry.GetScorer(name);
            // An unregistered name becomes the batch scorer's unknown-model
            // error, which lists the alternatives; any other failure (a
            // cold promotion that cannot load) reaches the row as is.
            if (!snapshot.ok() &&
                snapshot.status().code() == StatusCode::kNotFound) {
              return std::shared_ptr<const core::RowScorer>();
            }
            return snapshot;
          }),
      options, &metrics,
      serve::BatchScorer::ModelLister(
          [&registry] { return registry.ListNames(); }));

  std::ifstream file_in;
  if (!in_path.empty()) {
    file_in.open(in_path);
    if (!file_in) return Fail("cannot open " + in_path);
  }
  std::ofstream file_out;
  if (!out_path.empty()) {
    file_out.open(out_path);
    if (!file_out) return Fail("cannot open " + out_path + " for writing");
  }
  std::istream& in = in_path.empty() ? std::cin : file_in;
  std::ostream& out = out_path.empty() ? std::cout : file_out;

  // Started last — every error path above returns before this thread
  // exists, so no early return can leak a joinable thread.
  if (refresh_ms > 0) {
    refresher = std::thread([&] {
      std::unique_lock<std::mutex> lock(refresh_mu);
      while (!refresh_cv.wait_for(lock, std::chrono::milliseconds(refresh_ms),
                                  [&] { return refresh_stop; })) {
        lock.unlock();
        // The registry counts the poll, and its failure, into `metrics`.
        auto refreshed = registry.RefreshIfChanged();
        if (!refreshed.ok()) {
          std::fprintf(stderr, "refresh: %s\n",
                       refreshed.status().ToString().c_str());
        }
        lock.lock();
      }
    });
  }
  auto stop_refresher = [&] {
    if (!refresher.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(refresh_mu);
      refresh_stop = true;
    }
    refresh_cv.notify_all();
    refresher.join();
  };

  if (tcp_mode) {
    // SIGTERM/SIGINT reach the listener through a self-pipe: the handler
    // writes one byte, the event loop polls the read end as drain_fd.
    int signal_pipe[2] = {-1, -1};
    if (::pipe2(signal_pipe, O_NONBLOCK | O_CLOEXEC) != 0) {
      scorer.Shutdown();
      stop_refresher();
      return Fail("serve: pipe2 failed");
    }
    g_signal_pipe_w = signal_pipe[1];

    net::TcpServerOptions net_options;
    net_options.bind_address = flags.Get("bind", "127.0.0.1");
    net_options.port = static_cast<uint16_t>(flags.GetInt("tcp", 0));
    net_options.max_connections =
        static_cast<size_t>(flags.GetInt("max-conns", 1024));
    net_options.max_line_bytes =
        static_cast<size_t>(flags.GetInt("max-line", 64 * 1024));
    net_options.max_inflight_rows =
        static_cast<size_t>(flags.GetInt("max-inflight", 256));
    net_options.idle_timeout_ms = flags.GetInt("idle-ms", 0);
    net_options.drain_grace_ms = flags.GetInt("drain-grace-ms", 5000);
    net_options.drain_fd = signal_pipe[0];
    net_options.serve_metrics = &metrics;

    net::NetMetrics net_metrics;
    net::TcpServer server(&scorer, &net_metrics, net_options);
    Status st = server.Start();
    if (!st.ok()) {
      g_signal_pipe_w = -1;
      ::close(signal_pipe[0]);
      ::close(signal_pipe[1]);
      scorer.Shutdown();
      stop_refresher();
      return Fail(st.ToString());
    }
    // The port line is the startup handshake scripts wait for (and the only
    // way to learn an ephemeral --tcp 0 port).
    std::fprintf(stderr, "targad: listening on %s:%u\n",
                 net_options.bind_address.c_str(),
                 static_cast<unsigned>(server.port()));
    InstallStopHandlerAndUnblock();
    server.Wait();
    std::fprintf(stderr, "targad: drained, shutting down\n");
    scorer.Shutdown();
    stop_refresher();
    g_signal_pipe_w = -1;
    ::close(signal_pipe[0]);
    ::close(signal_pipe[1]);
    std::fprintf(stderr, "%s", net_metrics.Report().c_str());
    std::fprintf(stderr, "%s", metrics.Report().c_str());
    return 0;
  }

  // stdio mode: signals drain through StreamOptions::should_stop — the
  // handler's flag store is observed either at the next between-lines poll
  // or when the signal EINTRs the blocked read.
  InstallStopHandlerAndUnblock();
  serve::StreamOptions stream_options;
  stream_options.should_stop = [] { return g_stop_requested != 0; };
  auto stats =
      serve::ScoreCsvStream(**schema, &scorer, in, out, stream_options);
  scorer.Shutdown();
  stop_refresher();
  if (!stats.ok()) return Fail(stats.status().ToString());
  std::fprintf(stderr,
               "served %zu rows (%zu scored, %zu routed, dtype %s)\n",
               stats->rows_in, stats->rows_scored, stats->rows_routed,
               nn::DtypeName(*dtype));
  if (stats->stopped_early) {
    std::fprintf(stderr,
                 "drain: stopped early on signal, all in-flight rows "
                 "resolved\n");
  }
  std::fprintf(stderr, "%s", metrics.Report().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Flags flags(argc, argv, 2);
  if (!flags.ok()) return Fail(flags.error());

  const auto& command_flags = CommandFlags();
  auto it = command_flags.find(command);
  if (it == command_flags.end()) return Usage();
  const std::vector<std::string> unknown = flags.Unknown(it->second);
  if (!unknown.empty()) {
    std::string valid;
    for (const std::string& flag : it->second) valid += " --" + flag;
    return Fail("unknown flag " + unknown.front() + " for '" + command +
                "' (valid:" + valid + ")");
  }
  const std::string bad_value = CheckNumericFlags(flags);
  if (!bad_value.empty()) return Fail(bad_value);

  if (command == "generate") return CmdGenerate(flags);
  if (command == "train") return CmdTrain(flags);
  if (command == "score") return CmdScore(flags);
  if (command == "evaluate") return CmdEvaluate(flags);
  if (command == "freeze") return CmdFreeze(flags);
  if (command == "inspect") return CmdInspect(flags);
  if (command == "serve") return CmdServe(flags);
  return Usage();
}
