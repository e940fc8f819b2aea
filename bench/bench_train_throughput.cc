// Training-path throughput: epochs of minibatch autoencoder training (the
// dominant cost of TargAD's candidate-selection stage, Eq. 1/2 shaped) over
// a {scalar, avx2} x {1,2,4,8}-thread sweep of the kernel backend and the
// row-tiling pool. Every dense op in the forward pass, backward pass, and
// Adam step routes through nn/kernels/, where each double output element is
// computed in the scalar order on either backend and row tiling owns each
// output row on exactly one thread — so every cell must produce the
// BIT-IDENTICAL final parameters of scalar/1-thread (checked here; exit 1
// on drift) while epoch wall time drops.
//
// Output: table on stdout, bench_train_throughput.csv (CsvSink convention),
// and train_throughput.json for the bench trajectory.

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "nn/autoencoder.h"
#include "nn/kernels/kernels.h"
#include "nn/matrix.h"
#include "nn/minibatch.h"

using namespace targad;  // NOLINT(build/namespaces)

namespace {

constexpr size_t kInputDim = 256;
constexpr size_t kHiddenDim = 256;
constexpr size_t kCodeDim = 64;
constexpr size_t kBatchSize = 512;

struct RunResult {
  nn::kernels::Backend backend = nn::kernels::Backend::kScalar;
  size_t threads = 0;
  double epoch_ms = 0.0;
  double rows_per_sec = 0.0;
  double speedup = 1.0;
  double final_loss = 0.0;
  std::vector<uint64_t> param_bits;  // Probe for the bit-identity check.
};

nn::Matrix MakeData(size_t rows, uint64_t seed) {
  Rng rng(seed);
  nn::Matrix x(rows, kInputDim);
  for (auto& v : x.data()) v = rng.Uniform();
  return x;
}

RunResult RunConfig(const nn::Matrix& data, nn::kernels::Backend backend,
                    size_t threads, int epochs) {
  nn::kernels::TilingConfig tiling;
  tiling.threads = threads;
  // Production thresholds: the point of the bench is the default policy, not
  // a forced-tiling microbenchmark.
  nn::kernels::SetTilingForTest(tiling);

  nn::AutoencoderConfig config;
  config.input_dim = kInputDim;
  config.encoder_dims = {kHiddenDim, kCodeDim};
  config.seed = 99;
  nn::Autoencoder ae(config);

  nn::MinibatchScheduler sched(data.rows(), kBatchSize);
  Rng rng(7);

  double last_loss = 0.0;
  const auto start = std::chrono::steady_clock::now();
  for (int epoch = 0; epoch < epochs; ++epoch) {
    sched.BeginEpoch(data, &rng);
    for (size_t b = 0; b < sched.num_batches(); ++b) {
      last_loss = ae.TrainStepMse(sched.Batch(b));
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  RunResult result;
  result.backend = backend;
  result.threads = threads;
  result.epoch_ms = 1000.0 * seconds / epochs;
  result.rows_per_sec =
      static_cast<double>(data.rows()) * epochs / seconds;
  result.final_loss = last_loss;
  for (nn::Sequential* net : {&ae.encoder(), &ae.decoder()}) {
    for (nn::Matrix* p : net->Params()) {
      result.param_bits.push_back(std::bit_cast<uint64_t>(p->data().front()));
      result.param_bits.push_back(std::bit_cast<uint64_t>(p->data().back()));
      result.param_bits.push_back(std::bit_cast<uint64_t>(p->Sum()));
    }
  }
  return result;
}

}  // namespace

int main() {
  const double scale = bench::BenchScale(0.1);
  const size_t n_rows = static_cast<size_t>(16384 * scale) + 2048;
  const int epochs = 3;

  const nn::kernels::Backend saved_backend = nn::kernels::ActiveBackend();
  const nn::kernels::TilingConfig saved = nn::kernels::Tiling();
  const nn::Matrix data = MakeData(n_rows, 13);

  std::printf(
      "train throughput — autoencoder %zu-%zu-%zu-%zu-%zu, batch %zu, "
      "%zu rows x %d epochs per cell\n",
      kInputDim, kHiddenDim, kCodeDim, kHiddenDim, kInputDim, kBatchSize,
      n_rows, epochs);
  std::printf("kernel backend at startup: %s\n", nn::kernels::BackendName());
  std::printf("%8s %8s %12s %12s %9s %14s\n", "backend", "threads",
              "epoch_ms", "rows/sec", "speedup", "bits_vs_ref");

  bench::CsvSink csv("bench_train_throughput.csv",
                     {"backend", "threads", "epoch_ms", "rows_per_sec",
                      "speedup", "bitexact_vs_scalar_1thread"});
  // The first cell, scalar with one thread, is the reference for both the
  // speedup and the bit-identity columns.
  std::vector<RunResult> results;
  bool all_bitexact = true;
  for (nn::kernels::Backend backend :
       {nn::kernels::Backend::kScalar, nn::kernels::Backend::kAvx2}) {
    if (!nn::kernels::SetBackendForTest(backend)) {
      std::printf("%8s not available in this build/CPU; skipped\n",
                  nn::kernels::BackendName(backend));
      continue;
    }
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      RunResult r = RunConfig(data, backend, threads, epochs);
      r.speedup = results.empty() ? 1.0 : results.front().epoch_ms / r.epoch_ms;
      const bool bitexact =
          results.empty() || r.param_bits == results.front().param_bits;
      all_bitexact = all_bitexact && bitexact;
      std::printf("%8s %8zu %12.1f %12.0f %8.2fx %14s\n",
                  nn::kernels::BackendName(backend), r.threads, r.epoch_ms,
                  r.rows_per_sec, r.speedup,
                  bitexact ? "identical" : "DRIFTED");
      std::fflush(stdout);
      csv.AddRow({nn::kernels::BackendName(backend), std::to_string(r.threads),
                  FormatDouble(r.epoch_ms, 1), FormatDouble(r.rows_per_sec, 1),
                  FormatDouble(r.speedup, 3), bitexact ? "1" : "0"});
      results.push_back(std::move(r));
    }
  }
  nn::kernels::SetBackendForTest(saved_backend);
  nn::kernels::SetTilingForTest(saved);

  std::ofstream json("train_throughput.json");
  json << "{\n  \"bench\": \"train_throughput\",\n"
       << "  \"scale\": " << FormatDouble(scale, 3) << ",\n"
       << "  \"rows\": " << n_rows << ",\n"
       << "  \"epochs\": " << epochs << ",\n"
       << "  \"batch_size\": " << kBatchSize << ",\n"
       << "  \"arch\": \"" << kInputDim << "-" << kHiddenDim << "-" << kCodeDim
       << "-" << kHiddenDim << "-" << kInputDim << "\",\n"
       << "  \"kernel_backend\": \"" << nn::kernels::BackendName() << "\",\n"
       << "  \"bitexact_across_cells\": " << (all_bitexact ? "true" : "false")
       << ",\n  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    json << "    {\"backend\": \"" << nn::kernels::BackendName(r.backend)
         << "\", \"threads\": " << r.threads
         << ", \"epoch_ms\": " << FormatDouble(r.epoch_ms, 1)
         << ", \"rows_per_sec\": " << FormatDouble(r.rows_per_sec, 1)
         << ", \"speedup\": " << FormatDouble(r.speedup, 3) << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  json.close();
  std::printf("wrote train_throughput.json\n");

  if (!all_bitexact) {
    std::printf(
        "ERROR: final parameters drifted from scalar/1-thread's bits\n");
    return 1;
  }
  std::printf(
      "\nEach double element is computed in the scalar order on either\n"
      "backend, and row-tiled kernels own each output row on one thread\n"
      "with fixed reduction order, so every cell above trains the SAME\n"
      "model — the speedup column is determinism-preserving.\n");
  return 0;
}
