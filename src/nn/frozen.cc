#include "nn/frozen.h"

#include <cmath>
#include <memory>
#include <utility>

#include "common/hot_path.h"
#include "common/string_util.h"
#include "nn/kernels/kernels.h"

namespace targad {
namespace nn {

const char* DtypeName(Dtype dtype) {
  switch (dtype) {
    case Dtype::kFloat32: return "float32";
    case Dtype::kFloat64: return "float64";
  }
  return "?";
}

Result<Dtype> ParseDtype(const std::string& text) {
  const std::string lower = ToLower(text);
  if (lower == "float32" || lower == "f32") return Dtype::kFloat32;
  if (lower == "float64" || lower == "f64" || lower == "double") {
    return Dtype::kFloat64;
  }
  return Status::InvalidArgument("unknown dtype '", text,
                                 "' (float32|float64)");
}

namespace {

// The kernel layer keeps its Act enum free of layer-stack dependencies;
// the two enums mirror each other member for member.
kernels::Act ToKernelAct(Activation act) {
  switch (act) {
    case Activation::kNone: return kernels::Act::kNone;
    case Activation::kReLU: return kernels::Act::kReLU;
    case Activation::kLeakyReLU: return kernels::Act::kLeakyReLU;
    case Activation::kSigmoid: return kernels::Act::kSigmoid;
    case Activation::kTanh: return kernels::Act::kTanh;
  }
  return kernels::Act::kNone;
}

template <typename T>
std::vector<T> CastVector(const std::vector<double>& v) {
  std::vector<T> out(v.size());
  for (size_t i = 0; i < v.size(); ++i) out[i] = static_cast<T>(v[i]);
  return out;
}

}  // namespace

template <typename T>
Result<FrozenNetT<T>> FrozenNetT<T>::Freeze(const Sequential& net) {
  // Gather the fused steps into owning staging storage first; the packed
  // arena is sized and filled once the architecture has validated.
  struct Staged {
    MatrixT<T> weight;
    std::vector<T> bias;
    Activation act = Activation::kNone;
    T leaky_slope = T(0);
  };
  std::vector<Staged> staged;
  for (size_t i = 0; i < net.num_layers(); ++i) {
    const Layer* layer = net.layer(i);
    if (const auto* linear = dynamic_cast<const Linear*>(layer)) {
      Staged step;
      step.weight = CastMatrix<T>(linear->weight());
      step.bias = CastVector<T>(linear->bias().Row(0));
      staged.push_back(std::move(step));
      continue;
    }
    if (dynamic_cast<const Dropout*>(layer) != nullptr) {
      continue;  // Identity at inference; stripped from the plan.
    }
    Activation act;
    T slope = T(0);
    if (dynamic_cast<const ReLU*>(layer) != nullptr) {
      act = Activation::kReLU;
    } else if (const auto* leaky = dynamic_cast<const LeakyReLU*>(layer)) {
      act = Activation::kLeakyReLU;
      slope = static_cast<T>(leaky->slope());
    } else if (dynamic_cast<const Sigmoid*>(layer) != nullptr) {
      act = Activation::kSigmoid;
    } else if (dynamic_cast<const Tanh*>(layer) != nullptr) {
      act = Activation::kTanh;
    } else {
      return Status::InvalidArgument("freeze: unsupported layer '",
                                     layer->name(), "'");
    }
    if (staged.empty() || staged.back().act != Activation::kNone) {
      return Status::InvalidArgument(
          "freeze: activation '", layer->name(),
          "' has no preceding Linear layer to fuse into");
    }
    staged.back().act = act;
    staged.back().leaky_slope = slope;
  }
  if (staged.empty()) {
    return Status::InvalidArgument("freeze: network has no Linear layers");
  }

  // Pack weights and biases back to back into one arena; the steps become
  // views into it, exactly like steps over a loaded artifact.
  size_t total = 0;
  for (const Staged& s : staged) {
    total += s.weight.data().size() + s.bias.size();
  }
  // reserve() up front, so the arena never reallocates while the step
  // pointers below are being taken.
  auto arena = std::make_shared<std::vector<T>>();
  arena->reserve(total);
  FrozenNetT frozen;
  frozen.steps_.reserve(staged.size());
  for (const Staged& s : staged) {
    FrozenStepT<T> step;
    step.in = s.weight.rows();
    step.out = s.weight.cols();
    step.act = s.act;
    step.leaky_slope = s.leaky_slope;
    const size_t weight_at = arena->size();
    arena->insert(arena->end(), s.weight.data().begin(), s.weight.data().end());
    const size_t bias_at = arena->size();
    arena->insert(arena->end(), s.bias.begin(), s.bias.end());
    step.weight = arena->data() + weight_at;
    step.bias = arena->data() + bias_at;
    frozen.steps_.push_back(step);
  }
  frozen.arena_ = std::move(arena);
  frozen.input_dim_ = frozen.steps_.front().in;
  frozen.output_dim_ = frozen.steps_.back().out;
  return frozen;
}

template <typename T>
Result<FrozenNetT<T>> FrozenNetT<T>::FromSteps(
    std::vector<FrozenStepT<T>> steps) {
  if (steps.empty()) {
    return Status::InvalidArgument("frozen net: no steps");
  }
  for (size_t i = 0; i < steps.size(); ++i) {
    const FrozenStepT<T>& step = steps[i];
    if (step.weight == nullptr || step.bias == nullptr) {
      return Status::InvalidArgument("frozen net: step ", i,
                                     " has null parameter storage");
    }
    if (step.in == 0 || step.out == 0) {
      return Status::InvalidArgument("frozen net: step ", i,
                                     " has an empty dimension");
    }
    if (i > 0 && steps[i - 1].out != step.in) {
      return Status::InvalidArgument("frozen net: step ", i, " expects ",
                                     step.in, " inputs, step ", i - 1,
                                     " emits ", steps[i - 1].out);
    }
  }
  FrozenNetT frozen;
  frozen.input_dim_ = steps.front().in;
  frozen.output_dim_ = steps.back().out;
  frozen.steps_ = std::move(steps);
  return frozen;
}

template <typename T>
TARGAD_HOT_PATH MatrixT<T> FrozenNetT<T>::Infer(const MatrixT<T>& x) const {
  x.DebugCheckFinite("FrozenNet::Infer input");
  MatrixT<T> h = x;
  for (const FrozenStepT<T>& step : steps_) {
    // One fused pass per step: matmul + bias + activation while the output
    // row is still in cache. The scalar kernel keeps the same arithmetic, in
    // the same order, as Linear::Infer followed by the activation's Infer —
    // the bit-identity contract for T = double. The kernel reads the step's
    // borrowed pointers directly, so the same loop serves arena-backed and
    // artifact-backed plans.
    MatrixT<T> y(h.rows(), step.out);
    kernels::FusedAffineActivation(h.rows(), step.out, h.cols(),
                                   h.data().data(), step.weight, step.bias,
                                   ToKernelAct(step.act), step.leaky_slope,
                                   y.data().data());
    h = std::move(y);
  }
  h.DebugCheckFinite("FrozenNet::Infer output");
  return h;
}

template class FrozenNetT<double>;
template class FrozenNetT<float>;

Result<InferencePlan> InferencePlan::Freeze(const Sequential& net,
                                            Dtype dtype) {
  if (dtype == Dtype::kFloat32) {
    TARGAD_ASSIGN_OR_RETURN(FrozenNetF frozen, FrozenNetF::Freeze(net));
    return InferencePlan(dtype, std::move(frozen));
  }
  TARGAD_ASSIGN_OR_RETURN(FrozenNet frozen, FrozenNet::Freeze(net));
  return InferencePlan(dtype, std::move(frozen));
}

Matrix InferencePlan::Infer(const Matrix& x) const {
  if (dtype_ == Dtype::kFloat64) return net<double>().Infer(x);
  return CastMatrix<double>(net<float>().Infer(CastMatrix<float>(x)));
}

size_t InferencePlan::input_dim() const {
  return std::visit([](const auto& n) { return n.input_dim(); }, net_);
}

size_t InferencePlan::output_dim() const {
  return std::visit([](const auto& n) { return n.output_dim(); }, net_);
}

size_t InferencePlan::num_steps() const {
  return std::visit([](const auto& n) { return n.num_steps(); }, net_);
}

}  // namespace nn
}  // namespace targad
