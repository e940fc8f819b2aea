// Seeded inputs and model fixtures for the harness workloads. Everything
// here is derived from the run seed, so one seed always yields the same
// rows, the same models and the same expected scores.

#ifndef TARGAD_BENCH_HARNESS_FIXTURES_H_
#define TARGAD_BENCH_HARNESS_FIXTURES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "data/csv.h"

namespace targad {
namespace harness {

/// Feature rows with ground truth: target[i] is 1 for a target anomaly and
/// 0 for a normal row or a non-target anomaly.
struct LabeledRows {
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
  std::vector<int> target;
  std::vector<std::string> kind;  ///< "normal", "target" or "non-target".

  data::RawTable Table() const { return {columns, rows}; }
};

/// Payment-fraud training table: amount, rate, channel (web|pos) and a
/// label column where "fraud" marks the labeled target anomalies. `shift`
/// moves every amount, so fleets of models differ in their scores.
data::RawTable FraudTrainingTable(uint64_t seed, size_t normals, double shift);

/// Request rows for the fraud schema: normals like the training data,
/// target frauds, and non-target anomalies (an unseen "app" channel with
/// near-zero rates) that a prioritized detector should rank below frauds.
LabeledRows FraudRequests(uint64_t seed, size_t n);

/// Small, fast TargAD configuration for serving fixtures.
core::PipelineConfig FixtureConfig(uint64_t seed, int epochs, int ae_epochs,
                                   int k);

/// UNSW-NB15-like data (196 model dims) as CSV-shaped tables: 148 numeric
/// columns n0..n147 plus the 8 one-hot groups folded back into categorical
/// columns c0..c7, so the one-hot encoder runs on the serving path.
struct UnswData {
  /// Features plus "label": "target_<c>" for labeled rows, empty otherwise.
  data::RawTable train;
  LabeledRows test;
};

struct UnswSizes {
  size_t unlabeled = 1500;
  size_t test_normal = 3000;
  size_t test_target = 300;
  size_t test_nontarget = 400;
};

[[nodiscard]] Result<UnswData> MakeUnswData(uint64_t seed,
                                            const UnswSizes& sizes);

}  // namespace harness
}  // namespace targad

#endif  // TARGAD_BENCH_HARNESS_FIXTURES_H_
