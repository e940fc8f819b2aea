#include "replay.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "core/frozen_scorer.h"
#include "net/protocol.h"
#include "serve/row_parse.h"

namespace targad {
namespace harness {

namespace {

using Clock = std::chrono::steady_clock;

// Results of the replayed calls are folded in here, so no call is dead.
std::atomic<size_t> g_sink{0};

// Runs `body` (one pass over `rows` rows) until `min_s` seconds have passed
// and returns nanoseconds per row.
template <typename Body>
double NsPerRow(size_t rows, double min_s, Body body) {
  if (rows == 0) return 0.0;
  size_t done = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  do {
    g_sink.fetch_add(body(), std::memory_order_relaxed);
    done += rows;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < min_s);
  return elapsed * 1e9 / static_cast<double>(done);
}

template <typename T>
double InferTyped(const nn::FrozenNetT<T>& net, const nn::Matrix& x,
                  double min_s) {
  constexpr size_t kBatch = 64;
  std::vector<nn::MatrixT<T>> batches;
  for (size_t begin = 0; begin < x.rows(); begin += kBatch) {
    const size_t n = std::min(kBatch, x.rows() - begin);
    std::vector<T> values(x.data().begin() + begin * x.cols(),
                          x.data().begin() + (begin + n) * x.cols());
    batches.emplace_back(n, x.cols(), std::move(values));
  }
  return NsPerRow(x.rows(), min_s, [&] {
    size_t out = 0;
    for (const nn::MatrixT<T>& batch : batches) out += net.Infer(batch).size();
    return out;
  });
}

double FeaturizeNsPerRow(const data::OneHotEncoder& encoder,
                         const data::RawTable& rows, nn::Dtype dtype,
                         double min_s) {
  return NsPerRow(rows.num_rows(), min_s, [&] {
    if (dtype == nn::Dtype::kFloat32) {
      Result<nn::MatrixT<float>> x = encoder.TransformT<float>(rows);
      return x.ok() ? x->size() : 0;
    }
    Result<nn::Matrix> x = encoder.Transform(rows);
    return x.ok() ? x->size() : 0;
  });
}

double InferNsPerRow(const nn::InferencePlan& plan, const nn::Matrix& x,
                     double min_s) {
  return plan.dtype() == nn::Dtype::kFloat32
             ? InferTyped(plan.net<float>(), x, min_s)
             : InferTyped(plan.net<double>(), x, min_s);
}

double InferFlopsPerRow(const nn::InferencePlan& plan) {
  auto flops = [](const auto& net) {
    double total = 0.0;
    for (const auto& step : net.steps()) {
      total += 2.0 * static_cast<double>(step.in * step.out);
    }
    return total;
  };
  return plan.dtype() == nn::Dtype::kFloat32 ? flops(plan.net<float>())
                                             : flops(plan.net<double>());
}

}  // namespace

data::RawTable WithoutColumn(const data::RawTable& table,
                             const std::string& column) {
  const auto it = std::find(table.column_names.begin(),
                            table.column_names.end(), column);
  if (it == table.column_names.end()) return table;
  const size_t drop = static_cast<size_t>(it - table.column_names.begin());
  data::RawTable out;
  out.column_names = table.column_names;
  out.column_names.erase(out.column_names.begin() + drop);
  out.rows.reserve(table.num_rows());
  for (const std::vector<std::string>& row : table.rows) {
    std::vector<std::string> cells = row;
    cells.erase(cells.begin() + drop);
    out.rows.push_back(std::move(cells));
  }
  return out;
}

Result<Featurizer> Featurizer::Fit(const data::RawTable& features,
                                   nn::Matrix* transformed) {
  Featurizer f;
  TARGAD_RETURN_NOT_OK(f.encoder.Fit(features));
  TARGAD_ASSIGN_OR_RETURN(nn::Matrix encoded, f.encoder.Transform(features));
  TARGAD_ASSIGN_OR_RETURN(nn::Matrix normalized,
                          f.normalizer.FitTransform(encoded));
  if (transformed != nullptr) *transformed = std::move(normalized);
  return f;
}

Result<nn::Matrix> Featurizer::Apply(const data::RawTable& rows) const {
  TARGAD_ASSIGN_OR_RETURN(nn::Matrix encoded, encoder.Transform(rows));
  return normalizer.Transform(encoded);
}

double DecodeNsPerRow(const std::vector<std::string>& lines, double min_s) {
  std::string bytes;
  for (const std::string& line : lines) bytes += line;
  constexpr size_t kRead = 4096;
  return NsPerRow(lines.size(), min_s, [&] {
    net::FrameDecoder decoder(64 * 1024);
    std::string line;
    size_t parsed = 0;
    for (size_t off = 0; off < bytes.size(); off += kRead) {
      decoder.Append(bytes.data() + off, std::min(kRead, bytes.size() - off));
      while (decoder.ReadLine(&line) == net::FrameDecoder::Outcome::kLine) {
        parsed += net::ParseRequest(line).ok() ? 1 : 0;
      }
    }
    return parsed;
  });
}

double RowParseNsPerRow(const std::vector<std::string>& records,
                        int label_col, double min_s) {
  return NsPerRow(records.size(), min_s, [&] {
    size_t cells = 0;
    for (const std::string& record : records) {
      cells += serve::SplitDataRecord(record, label_col).cells.size();
    }
    return cells;
  });
}

double ArtifactMapUs(const std::string& path, int loads) {
  std::vector<double> us;
  for (int i = 0; i < loads; ++i) {
    const Clock::time_point start = Clock::now();
    Result<core::FrozenScorer> scorer = core::FrozenScorer::LoadArtifact(path);
    us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - start)
                     .count());
    if (!scorer.ok()) return 0.0;
  }
  std::sort(us.begin(), us.end());
  return us[us.size() / 2];
}

Status AddModelReplays(const data::RawTable& train_features,
                       const data::RawTable& rows,
                       const nn::InferencePlan& plan, double min_s,
                       Tracer* tracer, uint64_t parent,
                       std::map<std::string, double>* metrics) {
  auto& m = *metrics;
  m["nn.infer_flops_per_row"] = InferFlopsPerRow(plan);
  TARGAD_ASSIGN_OR_RETURN(Featurizer featurizer,
                          Featurizer::Fit(train_features));
  TARGAD_ASSIGN_OR_RETURN(nn::Matrix inputs, featurizer.Apply(rows));
  {
    ScopedSpan span(tracer, "replay.featurize", parent);
    m["data.featurize_ns_per_row"] =
        FeaturizeNsPerRow(featurizer.encoder, rows, plan.dtype(), min_s);
  }
  ScopedSpan span(tracer, "replay.infer", parent);
  m["nn.infer_ns_per_row"] = InferNsPerRow(plan, inputs, min_s);
  return Status::OK();
}

}  // namespace harness
}  // namespace targad
