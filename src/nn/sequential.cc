#include "nn/sequential.h"

#include "common/logging.h"

namespace targad {
namespace nn {

std::unique_ptr<Layer> MakeActivation(Activation act) {
  switch (act) {
    case Activation::kReLU: return std::make_unique<ReLU>();
    case Activation::kLeakyReLU: return std::make_unique<LeakyReLU>();
    case Activation::kSigmoid: return std::make_unique<Sigmoid>();
    case Activation::kTanh: return std::make_unique<Tanh>();
    case Activation::kNone: return nullptr;
  }
  return nullptr;
}

Sequential& Sequential::Add(std::unique_ptr<Layer> layer) {
  TARGAD_CHECK(layer != nullptr) << "Sequential::Add(nullptr)";
  layers_.push_back(std::move(layer));
  return *this;
}

Sequential Sequential::MakeMlp(const std::vector<size_t>& sizes, Activation hidden,
                               Activation output, Rng* rng) {
  TARGAD_CHECK(sizes.size() >= 2) << "MakeMlp needs at least {in, out}";
  Sequential net;
  for (size_t i = 0; i + 1 < sizes.size(); ++i) {
    net.Add(std::make_unique<Linear>(sizes[i], sizes[i + 1], rng));
    const bool last = (i + 2 == sizes.size());
    auto act = MakeActivation(last ? output : hidden);
    if (act != nullptr) net.Add(std::move(act));
  }
  return net;
}

Matrix Sequential::Forward(RowBlock x) {
  // The view goes straight into the first layer — no up-front batch copy.
  if (layers_.empty()) return x.ToMatrix();
  Matrix h = layers_[0]->Forward(x);
  for (size_t i = 1; i < layers_.size(); ++i) h = layers_[i]->Forward(h);
  return h;
}

Matrix Sequential::Infer(RowBlock x) const {
  x.DebugCheckFinite("Sequential::Infer input");
  if (layers_.empty()) return x.ToMatrix();
  Matrix h = layers_[0]->Infer(x);
  for (size_t i = 1; i < layers_.size(); ++i) h = layers_[i]->Infer(h);
  h.DebugCheckFinite("Sequential::Infer output");
  return h;
}

Matrix Sequential::Backward(const Matrix& grad_out) {
  Matrix g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->Backward(g);
  }
  return g;
}

void Sequential::BackwardParams(const Matrix& grad_out) {
  size_t first = 0;
  while (first < layers_.size() && layers_[first]->Params().empty()) ++first;
  if (first == layers_.size()) return;  // Nothing to train.
  Matrix g = grad_out;
  for (size_t i = layers_.size() - 1; i > first; --i) {
    g = layers_[i]->Backward(g);
  }
  layers_[first]->BackwardParams(g);
}

std::vector<Matrix*> Sequential::Params() {
  std::vector<Matrix*> out;
  for (auto& layer : layers_) {
    for (Matrix* p : layer->Params()) out.push_back(p);
  }
  return out;
}

std::vector<Matrix*> Sequential::Grads() {
  std::vector<Matrix*> out;
  for (auto& layer : layers_) {
    for (Matrix* g : layer->Grads()) out.push_back(g);
  }
  return out;
}

void Sequential::ZeroGrads() {
  for (auto& layer : layers_) layer->ZeroGrads();
}

void Sequential::SetTraining(bool training) {
  for (auto& layer : layers_) layer->set_training(training);
}

void Sequential::CopyParamsFrom(Sequential& other) {
  auto dst = Params();
  auto src = other.Params();
  TARGAD_CHECK(dst.size() == src.size()) << "CopyParamsFrom: param count mismatch";
  for (size_t i = 0; i < dst.size(); ++i) {
    TARGAD_CHECK(dst[i]->SameShape(*src[i])) << "CopyParamsFrom: shape mismatch";
    dst[i]->data() = src[i]->data();
  }
}

size_t Sequential::NumParameters() {
  size_t n = 0;
  for (Matrix* p : Params()) n += p->size();
  return n;
}

}  // namespace nn
}  // namespace targad
