#include "baselines/pumad.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.h"
#include "nn/kernels/kernels.h"

namespace targad {
namespace baselines {

Result<std::unique_ptr<Pumad>> Pumad::Make(const PumadConfig& config) {
  if (config.hash_bits == 0 || config.hash_bits > 64) {
    return Status::InvalidArgument("PUMAD: hash_bits must be in [1, 64]");
  }
  if (config.min_hamming > config.hash_bits) {
    return Status::InvalidArgument("PUMAD: min_hamming > hash_bits");
  }
  if (config.embedding_dim == 0) {
    return Status::InvalidArgument("PUMAD: embedding_dim must be positive");
  }
  return std::unique_ptr<Pumad>(new Pumad(config));
}

std::vector<uint64_t> Pumad::HashRows(const nn::Matrix& x) const {
  std::vector<uint64_t> codes(x.rows(), 0);
  for (size_t i = 0; i < x.rows(); ++i) {
    const double* row = x.RowPtr(i);
    uint64_t code = 0;
    for (size_t b = 0; b < config_.hash_bits; ++b) {
      const double* h = hyperplanes_.RowPtr(b);
      double dot = h[x.cols()];  // Offset term.
      // Seeded offset-first accumulation decides hash bits near zero; a
      // kernel dot would reassociate. targad-lint: allow(raw-dense-loop)
      for (size_t j = 0; j < x.cols(); ++j) dot += h[j] * row[j];
      if (dot >= 0.0) code |= (1ULL << b);
    }
    codes[i] = code;
  }
  return codes;
}

Status Pumad::Fit(const data::TrainingSet& train) {
  TARGAD_RETURN_NOT_OK(train.Validate());
  Rng rng(config_.seed);
  const size_t d = train.dim();

  // LSH hyperplanes through the data's typical range ([0,1] features).
  hyperplanes_ = nn::Matrix(config_.hash_bits, d + 1);
  for (size_t b = 0; b < config_.hash_bits; ++b) {
    double* h = hyperplanes_.RowPtr(b);
    for (size_t j = 0; j < d; ++j) h[j] = rng.Normal();
    double mean_dot = 0.0;
    for (size_t j = 0; j < d; ++j) mean_dot += h[j] * 0.5;
    h[d] = -mean_dot + rng.Normal(0.0, 0.1);
  }

  // Reliable negatives: unlabeled rows whose code is Hamming-far from all
  // positive codes. Relax the radius until enough negatives exist.
  const std::vector<uint64_t> pos_codes = HashRows(train.labeled_x);
  const std::vector<uint64_t> unl_codes = HashRows(train.unlabeled_x);
  std::vector<size_t> reliable;
  size_t radius = config_.min_hamming;
  for (;;) {
    reliable.clear();
    for (size_t i = 0; i < unl_codes.size(); ++i) {
      size_t min_dist = config_.hash_bits + 1;
      for (uint64_t pc : pos_codes) {
        min_dist = std::min<size_t>(
            min_dist, static_cast<size_t>(std::popcount(unl_codes[i] ^ pc)));
        if (min_dist < radius) break;
      }
      if (min_dist >= radius) reliable.push_back(i);
    }
    if (reliable.size() >= std::max<size_t>(32, train.labeled_x.rows()) ||
        radius == 0) {
      break;
    }
    --radius;  // Too strict for this data; relax.
  }
  if (reliable.empty()) {
    return Status::Internal("PUMAD: no reliable negatives found");
  }
  num_reliable_negatives_ = reliable.size();
  const nn::Matrix neg_x = train.unlabeled_x.SelectRows(reliable);

  // Embedding network.
  Rng net_rng = rng.Fork();
  std::vector<size_t> sizes{d};
  for (size_t h : config_.hidden) sizes.push_back(h);
  sizes.push_back(config_.embedding_dim);
  net_ = nn::Sequential::MakeMlp(sizes, nn::Activation::kReLU,
                                 nn::Activation::kNone, &net_rng);
  optimizer_ = std::make_unique<nn::Adam>(net_.Params(), net_.Grads(),
                                          config_.learning_rate);

  // Triplets: anchor positive, positive pair-mate, reliable negative.
  const size_t n_pos = train.labeled_x.rows();
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    for (size_t start = 0; start < config_.triplets_per_epoch;
         start += config_.batch_size) {
      const size_t rows =
          std::min(config_.batch_size, config_.triplets_per_epoch - start);
      nn::Matrix batch(3 * rows, d);
      for (size_t i = 0; i < rows; ++i) {
        const size_t a = rng.UniformInt(n_pos);
        const size_t p = rng.UniformInt(n_pos);
        const size_t nidx = rng.UniformInt(neg_x.rows());
        std::copy(train.labeled_x.RowPtr(a), train.labeled_x.RowPtr(a) + d,
                  batch.RowPtr(i));
        std::copy(train.labeled_x.RowPtr(p), train.labeled_x.RowPtr(p) + d,
                  batch.RowPtr(rows + i));
        std::copy(neg_x.RowPtr(nidx), neg_x.RowPtr(nidx) + d,
                  batch.RowPtr(2 * rows + i));
      }
      nn::Matrix z = net_.Forward(batch);
      const size_t e_dim = z.cols();
      nn::Matrix grad(z.rows(), e_dim, 0.0);
      const double inv_rows = 1.0 / static_cast<double>(rows);
      for (size_t i = 0; i < rows; ++i) {
        const double* za = z.RowPtr(i);
        const double* zp = z.RowPtr(rows + i);
        const double* zn = z.RowPtr(2 * rows + i);
        const double d_ap = nn::kernels::SquaredDistance(e_dim, za, zp);
        const double d_an = nn::kernels::SquaredDistance(e_dim, za, zn);
        if (config_.margin + d_ap - d_an > 0.0) {
          double* ga = grad.RowPtr(i);
          double* gp = grad.RowPtr(rows + i);
          double* gn = grad.RowPtr(2 * rows + i);
          for (size_t j = 0; j < e_dim; ++j) {
            const double dap = 2.0 * (za[j] - zp[j]) * inv_rows;
            const double dan = 2.0 * (za[j] - zn[j]) * inv_rows;
            ga[j] += dap - dan;
            gp[j] += -dap;
            gn[j] += dan;
          }
        }
      }
      net_.ZeroGrads();
      net_.BackwardParams(grad);
      optimizer_->Step();
    }
  }

  // Prototypes in the learned space.
  auto mean_embedding = [&](const nn::Matrix& x) {
    nn::Matrix z = net_.Forward(x);
    std::vector<double> proto(z.cols(), 0.0);
    for (size_t i = 0; i < z.rows(); ++i) {
      const double* row = z.RowPtr(i);
      for (size_t j = 0; j < z.cols(); ++j) proto[j] += row[j];
    }
    for (double& v : proto) v /= static_cast<double>(z.rows());
    return proto;
  };
  pos_prototype_ = mean_embedding(train.labeled_x);
  neg_prototype_ = mean_embedding(neg_x);
  fitted_ = true;
  return Status::OK();
}

std::vector<double> Pumad::Score(const nn::Matrix& x) {
  TARGAD_CHECK(fitted_) << "PUMAD::Score before Fit";
  nn::Matrix z = net_.Forward(x);
  std::vector<double> scores(x.rows(), 0.0);
  for (size_t i = 0; i < x.rows(); ++i) {
    const double* zi = z.RowPtr(i);
    const double d_pos =
        nn::kernels::SquaredDistance(z.cols(), zi, pos_prototype_.data());
    const double d_neg =
        nn::kernels::SquaredDistance(z.cols(), zi, neg_prototype_.data());
    scores[i] = std::sqrt(d_neg) - std::sqrt(d_pos);
  }
  return scores;
}

}  // namespace baselines
}  // namespace targad
