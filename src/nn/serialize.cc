#include "nn/serialize.h"

#include <cmath>
#include <iomanip>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"

namespace targad {
namespace nn {

Status WriteMatrix(std::ostream& out, const Matrix& m) {
  out << "matrix " << m.rows() << ' ' << m.cols() << '\n';
  out << std::setprecision(17);
  for (size_t i = 0; i < m.rows(); ++i) {
    const double* row = m.RowPtr(i);
    for (size_t j = 0; j < m.cols(); ++j) {
      if (j > 0) out << ' ';
      out << row[j];
    }
    out << '\n';
  }
  if (!out) return Status::IOError("matrix write failed");
  return Status::OK();
}

Result<Matrix> ReadMatrix(std::istream& in) {
  std::string tag;
  size_t rows = 0, cols = 0;
  if (!(in >> tag >> rows >> cols) || tag != "matrix") {
    return Status::InvalidArgument("expected 'matrix <rows> <cols>' header");
  }
  // Divided, not multiplied: rows * cols can wrap to a small number.
  constexpr size_t kMaxElements = size_t{1} << 28;
  if (cols != 0 && rows > kMaxElements / cols) {
    return Status::InvalidArgument("matrix implausibly large: ", rows, "x", cols);
  }
  // Values are appended as they are read, so dimensions larger than the
  // payload fail at the first missing value, having allocated only what
  // was read.
  std::vector<double> values;
  for (size_t i = 0; i < rows * cols; ++i) {
    double v = 0.0;
    if (!(in >> v)) return Status::InvalidArgument("truncated matrix payload");
    if (!std::isfinite(v)) return Status::InvalidArgument("non-finite value");
    values.push_back(v);
  }
  return Matrix(rows, cols, std::move(values));
}

Status WriteParams(std::ostream& out, Sequential& net) {
  const auto params = net.Params();
  // The trailing dtype tag keeps float32 frozen artifacts and double
  // training artifacts from being silently confused at load time.
  out << "params " << params.size() << " f64\n";
  for (Matrix* p : params) {
    TARGAD_RETURN_NOT_OK(WriteMatrix(out, *p));
  }
  return Status::OK();
}

Result<std::vector<Matrix>> ReadParamMatrices(
    std::istream& in, const std::vector<std::pair<size_t, size_t>>& shapes) {
  std::string tag;
  size_t count = 0;
  if (!(in >> tag >> count) || tag != "params") {
    return Status::InvalidArgument("expected 'params <count>' header");
  }
  // Optional dtype tag on the header line. Legacy artifacts carry none and
  // are double by construction; a Sequential is always double, so anything
  // narrower must be rejected rather than widened silently.
  std::string rest;
  std::getline(in, rest);
  const std::string dtype_tag(Trim(rest));
  if (!dtype_tag.empty() && dtype_tag != "f64") {
    if (dtype_tag == "f32") {
      return Status::InvalidArgument(
          "params dtype mismatch: stream holds a float32 artifact, network "
          "parameters are float64");
    }
    return Status::InvalidArgument("unknown params dtype tag '", dtype_tag,
                                   "'");
  }
  if (count != shapes.size()) {
    return Status::InvalidArgument("parameter count mismatch: stream has ", count,
                                   ", expected ", shapes.size());
  }
  std::vector<Matrix> loaded;
  for (const auto& [rows, cols] : shapes) {
    TARGAD_ASSIGN_OR_RETURN(Matrix m, ReadMatrix(in));
    if (m.rows() != rows || m.cols() != cols) {
      return Status::InvalidArgument("parameter shape mismatch: stream ",
                                     m.rows(), "x", m.cols(), ", expected ",
                                     rows, "x", cols);
    }
    loaded.push_back(std::move(m));
  }
  return loaded;
}

Status ReadParams(std::istream& in, Sequential* net) {
  const auto params = net->Params();
  std::vector<std::pair<size_t, size_t>> shapes;
  for (const Matrix* p : params) shapes.emplace_back(p->rows(), p->cols());
  // Two-phase: read and validate every matrix before touching the network,
  // so a truncated or mismatched stream cannot leave it half-overwritten.
  TARGAD_ASSIGN_OR_RETURN(std::vector<Matrix> loaded,
                          ReadParamMatrices(in, shapes));
  for (size_t i = 0; i < params.size(); ++i) *params[i] = std::move(loaded[i]);
  return Status::OK();
}

}  // namespace nn
}  // namespace targad
