// Serving-path throughput: rows/sec through the serve::BatchScorer for a
// {float64,float32}-dtype × {1,2,4}-worker × {1,16,64}-max-batch grid,
// demonstrating how micro-batch coalescing amortizes per-request overhead
// and what the float32 frozen inference plan buys on top. Each cell scores
// the same row set submitted by 4 concurrent client threads and reports
// effective throughput plus observed mean batch size and p95 request
// latency. Each dtype serves the core::FrozenScorer that
// TargAdPipeline::Freeze builds at it, as the registry does.
//
// A cold-start phase times bringing a model from disk to servable: the
// text path (TargAdPipeline::Load parse + Freeze) against the flat-artifact
// path (FrozenScorer::LoadArtifact — read + checksum + pointer fixup, no
// parse, no per-tensor copies). This is the registry's cold->warm promotion cost, i.e.
// the latency a routed row pays when it faults a model into the warm tier.
//
// Output: table on stdout, bench_serve_throughput.csv (CsvSink convention),
// and serve_throughput.json for the bench trajectory.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/frozen_scorer.h"
#include "core/pipeline.h"
#include "nn/frozen.h"
#include "nn/kernels/kernels.h"
#include "serve/batch_scorer.h"
#include "serve/metrics.h"

using namespace targad;  // NOLINT(build/namespaces)

namespace {

// Mixed numeric/categorical training table, like a fraud feed.
data::RawTable MakeTrainingTable(uint64_t seed, size_t normals) {
  Rng rng(seed);
  data::RawTable table;
  table.column_names = {"amount", "rate", "channel", "label"};
  for (size_t i = 0; i < normals; ++i) {
    const bool mode = rng.Bernoulli(0.5);
    table.rows.push_back({FormatDouble(rng.Normal(mode ? 20.0 : 60.0, 4.0), 6),
                          FormatDouble(rng.Normal(0.3, 0.05), 6),
                          mode ? "web" : "pos", ""});
  }
  for (size_t i = 0; i < normals / 16 + 8; ++i) {
    table.rows.push_back({FormatDouble(rng.Normal(150.0, 5.0), 6),
                          FormatDouble(rng.Normal(0.9, 0.03), 6), "web",
                          "fraud"});
  }
  return table;
}

std::vector<std::string> MakeRequestRows(uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<std::string> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const char* channel = i % 3 == 0 ? "web" : (i % 3 == 1 ? "pos" : "app");
    rows.push_back(FormatDouble(rng.Normal(50.0, 30.0), 6) + "," +
                   FormatDouble(rng.Normal(0.5, 0.2), 6) + "," + channel);
  }
  return rows;
}

struct CellResult {
  const char* dtype = "float64";
  size_t workers = 0;
  size_t batch = 0;
  double rows_per_sec = 0.0;
  double mean_batch = 0.0;
  uint64_t p95_us = 0;
};

CellResult RunCell(const std::shared_ptr<const core::RowScorer>& scorer_snapshot,
                   const std::vector<std::string>& rows,
                   const char* dtype, size_t workers, size_t batch) {
  serve::BatchScorerOptions options;
  options.max_batch_size = batch;
  options.max_queue_delay_us = 200;
  options.max_queue_rows = rows.size() + 1;  // Never reject in the bench.
  options.num_workers = workers;
  serve::ServeMetrics metrics;
  serve::BatchScorer scorer(
      serve::BatchScorer::NamedSnapshotProvider(
          [&scorer_snapshot](const std::string&) { return scorer_snapshot; }),
      options, &metrics);

  constexpr size_t kClients = 4;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::future<Result<double>>> futures;
      for (size_t i = c; i < rows.size(); i += kClients) {
        futures.push_back(scorer.Submit(rows[i]));
      }
      for (auto& future : futures) {
        TARGAD_CHECK(future.get().ok());
      }
    });
  }
  for (auto& t : clients) t.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  scorer.Shutdown();

  const serve::MetricsSnapshot snapshot = metrics.Snapshot();
  CellResult result;
  result.dtype = dtype;
  result.workers = workers;
  result.batch = batch;
  result.rows_per_sec = static_cast<double>(rows.size()) / seconds;
  result.mean_batch = snapshot.mean_batch_size;
  result.p95_us = snapshot.latency_p95_us;
  return result;
}

struct ColdStartResult {
  uint64_t text_load_us = 0;      ///< Median parse-and-freeze latency.
  uint64_t artifact_load_us = 0;  ///< Median read-and-fixup latency.
  double speedup = 0.0;
  size_t artifact_bytes = 0;
};

// Cold-start: disk -> servable scorer, text parse vs flat artifact. Both
// loops re-load the same file kLoads times; the first (untimed) load of
// each warms the page cache, so the medians compare parse/fixup work, not
// disk. The loaded scorers' dims feed a checksum so no load is elided.
ColdStartResult RunColdStart(core::TargAdPipeline& pipeline) {
  const std::string text_path = "bench_cold_start.targad";
  const std::string artifact_path = "bench_cold_start.tgz1";
  {
    std::ofstream out(text_path);
    TARGAD_CHECK(pipeline.Save(out).ok());
  }
  {
    auto frozen = pipeline.Freeze(nn::Dtype::kFloat32).ValueOrDie();
    TARGAD_CHECK(frozen.SaveArtifact(artifact_path).ok());
  }

  constexpr int kLoads = 30;
  size_t sink = 0;
  auto median_us = [&](auto&& load_once) -> uint64_t {
    sink += load_once();  // Warm the page cache, untimed.
    std::vector<uint64_t> samples;
    samples.reserve(kLoads);
    for (int i = 0; i < kLoads; ++i) {
      const auto start = std::chrono::steady_clock::now();
      sink += load_once();
      samples.push_back(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count()));
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
  };

  ColdStartResult result;
  result.text_load_us = median_us([&]() -> size_t {
    std::ifstream in(text_path);
    auto loaded = core::TargAdPipeline::Load(in).ValueOrDie();
    auto frozen = loaded.Freeze(nn::Dtype::kFloat32).ValueOrDie();
    return static_cast<size_t>(frozen.m() + frozen.k());
  });
  result.artifact_load_us = median_us([&]() -> size_t {
    auto frozen = core::FrozenScorer::LoadArtifact(artifact_path).ValueOrDie();
    return static_cast<size_t>(frozen.m() + frozen.k());
  });
  result.speedup = result.artifact_load_us == 0
                       ? 0.0
                       : static_cast<double>(result.text_load_us) /
                             static_cast<double>(result.artifact_load_us);
  {
    std::ifstream artifact(artifact_path, std::ios::binary | std::ios::ate);
    result.artifact_bytes = static_cast<size_t>(artifact.tellg());
  }
  TARGAD_CHECK(sink != 0);
  std::remove(text_path.c_str());
  std::remove(artifact_path.c_str());
  return result;
}

}  // namespace

int main() {
  const double scale = bench::BenchScale(0.1);
  const size_t n_train = static_cast<size_t>(4000 * scale) + 200;
  const size_t n_rows = static_cast<size_t>(20000 * scale) + 500;

  core::PipelineConfig config;
  config.model.seed = 7;
  config.model.selection.k = 2;
  config.model.selection.autoencoder.epochs = 10;
  config.model.epochs = 15;
  // Non-const: the cold-start phase needs Save(), which is not const.
  core::TargAdPipeline pipeline =
      core::TargAdPipeline::Train(MakeTrainingTable(7, n_train), config)
          .ValueOrDie();
  auto frozen64 = std::make_shared<const core::FrozenScorer>(
      pipeline.Freeze(nn::Dtype::kFloat64).ValueOrDie());
  auto frozen32 = std::make_shared<const core::FrozenScorer>(
      pipeline.Freeze(nn::Dtype::kFloat32).ValueOrDie());
  const auto rows = MakeRequestRows(8, n_rows);

  const std::vector<
      std::pair<const char*, std::shared_ptr<const core::RowScorer>>>
      dtypes = {{"float64", frozen64}, {"float32", frozen32}};

  const nn::kernels::TilingConfig& tiling = nn::kernels::Tiling();
  std::printf("serve throughput — %zu rows per cell, 4 client threads\n",
              n_rows);
  std::printf(
      "kernel backend: %s, tiling: threads=%zu min_flops=%zu "
      "min_rows_per_tile=%zu\n",
      nn::kernels::BackendName(), tiling.threads, tiling.min_flops,
      tiling.min_rows_per_tile);
  std::printf("%8s %8s %6s %12s %11s %9s\n", "dtype", "workers", "batch",
              "rows/sec", "mean_batch", "p95_us");

  bench::CsvSink csv(
      "bench_serve_throughput.csv",
      {"dtype", "workers", "max_batch", "rows_per_sec", "mean_batch",
       "p95_us"});
  std::vector<CellResult> results;
  for (const auto& [dtype, snapshot] : dtypes) {
    for (size_t workers : {1u, 2u, 4u}) {
      for (size_t batch : {1u, 16u, 64u}) {
        const CellResult r = RunCell(snapshot, rows, dtype, workers, batch);
        results.push_back(r);
        std::printf("%8s %8zu %6zu %12.0f %11.2f %9llu\n", r.dtype, r.workers,
                    r.batch, r.rows_per_sec, r.mean_batch,
                    static_cast<unsigned long long>(r.p95_us));
        std::fflush(stdout);
        csv.AddRow({r.dtype, std::to_string(r.workers), std::to_string(r.batch),
                    FormatDouble(r.rows_per_sec, 1),
                    FormatDouble(r.mean_batch, 2), std::to_string(r.p95_us)});
      }
    }
  }

  const ColdStartResult cold = RunColdStart(pipeline);
  std::printf(
      "\ncold start (disk -> servable, median of 30 loads, float32):\n"
      "  text parse+freeze: %llu us   artifact read+fixup: %llu us   "
      "speedup: %.1fx   artifact: %zu bytes\n",
      static_cast<unsigned long long>(cold.text_load_us),
      static_cast<unsigned long long>(cold.artifact_load_us), cold.speedup,
      cold.artifact_bytes);

  // JSON trajectory record (one object per grid cell).
  std::ofstream json("serve_throughput.json");
  json << "{\n  \"bench\": \"serve_throughput\",\n"
       << "  \"scale\": " << FormatDouble(scale, 3) << ",\n"
       << "  \"rows_per_cell\": " << n_rows << ",\n"
       << "  \"kernel_backend\": \"" << nn::kernels::BackendName() << "\",\n"
       << "  \"kernel_tiling\": {\"threads\": " << tiling.threads
       << ", \"min_flops\": " << tiling.min_flops
       << ", \"min_rows_per_tile\": " << tiling.min_rows_per_tile << "},\n"
       << "  \"cold_start\": {\"text_load_us\": " << cold.text_load_us
       << ", \"artifact_load_us\": " << cold.artifact_load_us
       << ", \"speedup\": " << FormatDouble(cold.speedup, 1)
       << ", \"artifact_bytes\": " << cold.artifact_bytes << "},\n"
       << "  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const CellResult& r = results[i];
    json << "    {\"dtype\": \"" << r.dtype << "\", \"workers\": " << r.workers
         << ", \"max_batch\": " << r.batch
         << ", \"rows_per_sec\": " << FormatDouble(r.rows_per_sec, 1)
         << ", \"mean_batch\": " << FormatDouble(r.mean_batch, 2)
         << ", \"p95_us\": " << r.p95_us << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  json.close();
  std::printf("wrote serve_throughput.json\n");

  std::printf(
      "\nBatching amortizes per-request overhead: throughput should rise\n"
      "with max_batch, and extra workers help once batches are large enough\n"
      "to keep them busy. The float32 rows serve the frozen inference plan —\n"
      "same scores within calibration tolerance, half the weight traffic.\n");
  return 0;
}
