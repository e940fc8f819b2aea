// Frozen inference representation — the serving-side half of the
// train-in-wide / serve-in-narrow split. FrozenNetT<T> is built once from a
// fitted Sequential: weights are converted to the requested dtype, Dropout
// and all training-only state (caches, gradients, optimizer slots) are
// stripped, and the forward pass collapses into a flat loop over fused
// affine+activation steps. InferencePlan is the dtype-erased handle the
// pipeline and serving layers thread through the stack.
//
// Exactness contract: for T = double a frozen forward reproduces
// Sequential::Infer bit-for-bit — the fused step keeps the exact
// accumulation order of Linear::Infer (the product, then the bias) and the
// activation's element-wise map. For T = float the same arithmetic runs in
// float32, with the same bits on every kernel backend; the calibration
// tests bound its score drift from float64.

#ifndef TARGAD_NN_FROZEN_H_
#define TARGAD_NN_FROZEN_H_

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"
#include "nn/matrix.h"
#include "nn/sequential.h"

namespace targad {
namespace nn {

/// Element type an InferencePlan computes in.
enum class Dtype { kFloat32, kFloat64 };

const char* DtypeName(Dtype dtype);

/// Parses "float32"/"f32" or "float64"/"f64"/"double" (case-insensitive).
[[nodiscard]] Result<Dtype> ParseDtype(const std::string& text);

/// One fused inference step: y = act(x W + b). The step itself is a view —
/// `weight` and `bias` point into storage owned elsewhere (the net's packed
/// arena for heap-built plans, a loaded artifact's buffer for ".tgz1"
/// loads), so constructing a plan over an artifact is pointer fixup, never
/// a copy.
template <typename T>
struct FrozenStepT {
  const T* weight = nullptr;  ///< Row-major (in x out), borrowed.
  const T* bias = nullptr;    ///< Length out, borrowed.
  size_t in = 0;
  size_t out = 0;
  Activation act = Activation::kNone;
  T leaky_slope = T(0);       ///< Only meaningful when act == kLeakyReLU.
};

/// A fitted network frozen to a flat list of fused steps in dtype T.
/// Immutable after construction, so one frozen net can score from any
/// number of threads concurrently. Freeze packs all parameters into one
/// shared arena (copies of the net stay cheap and safe); FromSteps wraps
/// storage owned by the caller — e.g. a loaded artifact's buffer — without
/// copying, and whoever supplied the pointers must keep them alive for the
/// net's lifetime (core::FrozenScorer pins the buffer via shared_ptr).
template <typename T>
class FrozenNetT {
 public:
  /// Freezes a fitted Sequential. Supported architectures are alternating
  /// Linear / activation stacks with optional Dropout anywhere (Dropout is
  /// identity at inference and is dropped); anything else — an activation
  /// with no preceding Linear, or an unknown layer type — is rejected with
  /// InvalidArgument. Parameters are copied once into a packed arena the
  /// net owns (shared across copies).
  [[nodiscard]] static Result<FrozenNetT> Freeze(const Sequential& net);

  /// Non-owning view over externally owned step storage. Validates the
  /// shape chain (steps[i].out == steps[i+1].in, no null pointers, at
  /// least one step); the borrowed storage must outlive the net.
  [[nodiscard]] static Result<FrozenNetT> FromSteps(
      std::vector<FrozenStepT<T>> steps);

  /// Flat fused forward pass. Thread-safe (const, no caches).
  MatrixT<T> Infer(const MatrixT<T>& x) const;

  size_t input_dim() const { return input_dim_; }
  size_t output_dim() const { return output_dim_; }
  size_t num_steps() const { return steps_.size(); }
  const std::vector<FrozenStepT<T>>& steps() const { return steps_; }
  /// True for Freeze-built nets (packed arena); false for FromSteps views.
  bool owns_storage() const { return arena_ != nullptr; }

 private:
  std::vector<FrozenStepT<T>> steps_;
  /// Packed parameter storage for Freeze-built nets; null for FromSteps
  /// views, whose pointers the caller keeps alive. Shared so copying a
  /// frozen net never invalidates step pointers.
  std::shared_ptr<const std::vector<T>> arena_;
  size_t input_dim_ = 0;
  size_t output_dim_ = 0;
};

using FrozenNet = FrozenNetT<double>;
using FrozenNetF = FrozenNetT<float>;

/// Dtype-erased frozen network: the serving layers hold an InferencePlan
/// without caring which element type it computes in.
class InferencePlan {
 public:
  /// Freezes `net` at the requested dtype.
  [[nodiscard]] static Result<InferencePlan> Freeze(const Sequential& net, Dtype dtype);

  /// Double-in / double-out convenience forward: narrows the input to the
  /// plan dtype, runs the fused loop, and widens the outputs back. A
  /// kFloat64 plan is bit-identical to Sequential::Infer.
  Matrix Infer(const Matrix& x) const;

  Dtype dtype() const { return dtype_; }
  size_t input_dim() const;
  size_t output_dim() const;
  size_t num_steps() const;

  /// Typed access for callers that stage their own inputs in the plan's
  /// dtype (e.g. core::FrozenScorer featurizes in T). CHECK-fails when T
  /// does not match dtype().
  template <typename T>
  const FrozenNetT<T>& net() const {
    return std::get<FrozenNetT<T>>(net_);
  }

 private:
  InferencePlan(Dtype dtype, std::variant<FrozenNetT<float>, FrozenNetT<double>> net)
      : dtype_(dtype), net_(std::move(net)) {}

  Dtype dtype_ = Dtype::kFloat64;
  std::variant<FrozenNetT<float>, FrozenNetT<double>> net_;
};

}  // namespace nn
}  // namespace targad

#endif  // TARGAD_NN_FROZEN_H_
