// Plain-text serialization for matrices and network parameters — enough to
// train a model once and deploy it for scoring (see core::TargAD::Save).
// The format is line-oriented and versioned:
//   matrix <rows> <cols>
//   <row 0 values...>
//   ...

#ifndef TARGAD_NN_SERIALIZE_H_
#define TARGAD_NN_SERIALIZE_H_

#include <istream>
#include <ostream>
#include <utility>
#include <vector>

#include "common/result.h"
#include "nn/matrix.h"
#include "nn/sequential.h"

namespace targad {
namespace nn {

/// Writes one matrix (full double precision).
[[nodiscard]] Status WriteMatrix(std::ostream& out, const Matrix& m);

/// Reads one matrix written by WriteMatrix. InvalidArgument on a
/// malformed, truncated or non-finite payload, or on more than 2^28
/// elements; the matrix grows as its values are read, so its header sizes
/// nothing the stream does not hold.
[[nodiscard]] Result<Matrix> ReadMatrix(std::istream& in);

/// Writes every parameter of `net` in layer order. The header records the
/// parameter dtype ("params <count> f64") so frozen float32 artifacts and
/// double artifacts cannot be silently confused.
[[nodiscard]] Status WriteParams(std::ostream& out, Sequential& net);

/// Restores parameters into an identically-architected network; fails on
/// any shape mismatch (the architecture itself is NOT serialized here —
/// callers persist their config and rebuild the net first). Headers with a
/// non-f64 dtype tag are rejected with InvalidArgument; untagged legacy
/// headers are accepted as f64.
[[nodiscard]] Status ReadParams(std::istream& in, Sequential* net);

/// Reads a WriteParams stream without a network to receive it: the header
/// must name exactly shapes.size() matrices, and matrix i must be
/// shapes[i] = {rows, cols}. For callers that rebuild the network from
/// widths they read themselves, and must not size it before the matrices
/// behind those widths have been read.
[[nodiscard]] Result<std::vector<Matrix>> ReadParamMatrices(
    std::istream& in, const std::vector<std::pair<size_t, size_t>>& shapes);

}  // namespace nn
}  // namespace targad

#endif  // TARGAD_NN_SERIALIZE_H_
