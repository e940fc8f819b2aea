#include "baselines/dplan.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace targad {
namespace baselines {

namespace {
constexpr int kActionNormal = 0;
constexpr int kActionAnomaly = 1;
}  // namespace

Result<std::unique_ptr<Dplan>> Dplan::Make(const DplanConfig& config) {
  if (config.training_steps <= 0 || config.batch_size == 0) {
    return Status::InvalidArgument("DPLAN: bad training_steps/batch_size");
  }
  if (config.gamma < 0.0 || config.gamma >= 1.0) {
    return Status::InvalidArgument("DPLAN: gamma must be in [0, 1)");
  }
  if (config.anomaly_sampling_prob < 0.0 || config.anomaly_sampling_prob > 1.0) {
    return Status::InvalidArgument("DPLAN: bad anomaly_sampling_prob");
  }
  return std::unique_ptr<Dplan>(new Dplan(config));
}

Status Dplan::Fit(const data::TrainingSet& train) {
  TARGAD_RETURN_NOT_OK(train.Validate());
  Rng rng(config_.seed);
  const size_t d = train.dim();
  const size_t n_u = train.unlabeled_x.rows();
  const size_t n_a = train.labeled_x.rows();

  // Intrinsic reward: iForest anomalousness of unlabeled states, min-max
  // normalized over the pool.
  IForestConfig if_config = config_.iforest;
  if_config.seed = config_.seed ^ 0xD91A7ULL;
  TARGAD_ASSIGN_OR_RETURN(std::unique_ptr<IsolationForest> iforest,
                          IsolationForest::Make(if_config));
  TARGAD_RETURN_NOT_OK(iforest->FitMatrix(train.unlabeled_x));
  std::vector<double> intrinsic = iforest->Score(train.unlabeled_x);
  {
    const auto [lo, hi] = std::minmax_element(intrinsic.begin(), intrinsic.end());
    const double range = std::max(1e-12, *hi - *lo);
    for (double& v : intrinsic) v = (v - *lo) / range;
  }

  // Q and target networks.
  Rng net_rng = rng.Fork();
  std::vector<size_t> sizes{d};
  for (size_t h : config_.hidden) sizes.push_back(h);
  sizes.push_back(2);
  q_net_ = nn::Sequential::MakeMlp(sizes, nn::Activation::kReLU,
                                   nn::Activation::kNone, &net_rng);
  Rng tgt_rng = rng.Fork();
  target_net_ = nn::Sequential::MakeMlp(sizes, nn::Activation::kReLU,
                                        nn::Activation::kNone, &tgt_rng);
  target_net_.CopyParamsFrom(q_net_);
  optimizer_ = std::make_unique<nn::Adam>(q_net_.Params(), q_net_.Grads(),
                                          config_.learning_rate);

  std::vector<Transition> replay;
  replay.reserve(config_.replay_capacity);
  size_t replay_head = 0;

  // Environment bookkeeping: current state is either an unlabeled index or
  // a labeled-anomaly index.
  bool cur_is_labeled = false;
  size_t cur_idx = rng.UniformInt(n_u);

  auto state_row = [&](bool labeled, size_t idx) {
    return labeled ? train.labeled_x.Row(idx) : train.unlabeled_x.Row(idx);
  };

  auto q_values = [&](nn::Sequential& net, const std::vector<double>& state) {
    nn::Matrix s(1, d, state);
    nn::Matrix q = net.Forward(s);
    return std::pair<double, double>(q.At(0, 0), q.At(0, 1));
  };

  for (int step = 0; step < config_.training_steps; ++step) {
    const double progress =
        static_cast<double>(step) / static_cast<double>(config_.training_steps);
    const double epsilon = config_.epsilon_start +
                           (config_.epsilon_end - config_.epsilon_start) * progress;

    const std::vector<double> state = state_row(cur_is_labeled, cur_idx);
    int action;
    if (rng.Bernoulli(epsilon)) {
      action = static_cast<int>(rng.UniformInt(2));
    } else {
      const auto [q0, q1] = q_values(q_net_, state);
      action = q1 > q0 ? kActionAnomaly : kActionNormal;
    }

    // Reward: external + intrinsic (exploration bonus on unlabeled states).
    double reward;
    if (cur_is_labeled) {
      reward = action == kActionAnomaly ? 1.0 : -1.0;
    } else {
      reward = action == kActionNormal ? 0.0 : -0.2;
      reward += intrinsic[cur_idx];
    }

    // Anomaly-biased simulation of the next state.
    bool next_is_labeled;
    size_t next_idx;
    if (rng.Bernoulli(config_.anomaly_sampling_prob)) {
      next_is_labeled = true;
      next_idx = rng.UniformInt(n_a);
    } else {
      // Distance-based unlabeled transition: from a random candidate pool,
      // move to the nearest (action = normal) or farthest (action =
      // anomaly) unlabeled instance — the original's S_u sampler.
      next_is_labeled = false;
      const size_t pool =
          std::min<size_t>(config_.neighbourhood_candidates, n_u);
      std::vector<size_t> cand = rng.SampleWithoutReplacement(n_u, pool);
      nn::Matrix cur_row(1, d, state);
      double best = action == kActionNormal
                        ? std::numeric_limits<double>::max()
                        : -1.0;
      next_idx = cand[0];
      for (size_t c : cand) {
        const double dist = train.unlabeled_x.RowSquaredDistance(c, cur_row, 0);
        if ((action == kActionNormal && dist < best) ||
            (action == kActionAnomaly && dist > best)) {
          best = dist;
          next_idx = c;
        }
      }
    }

    Transition t;
    t.state = state;
    t.action = action;
    t.reward = reward;
    t.next_state = state_row(next_is_labeled, next_idx);
    if (replay.size() < config_.replay_capacity) {
      replay.push_back(std::move(t));
    } else {
      replay[replay_head] = std::move(t);
      replay_head = (replay_head + 1) % config_.replay_capacity;
    }
    cur_is_labeled = next_is_labeled;
    cur_idx = next_idx;

    // Learn from replay.
    if (replay.size() >= config_.batch_size) {
      const size_t b = config_.batch_size;
      nn::Matrix states(b, d);
      nn::Matrix next_states(b, d);
      std::vector<int> actions(b);
      std::vector<double> rewards(b);
      for (size_t i = 0; i < b; ++i) {
        const Transition& tr = replay[rng.UniformInt(replay.size())];
        states.SetRow(i, tr.state);
        next_states.SetRow(i, tr.next_state);
        actions[i] = tr.action;
        rewards[i] = tr.reward;
      }
      nn::Matrix q_next = target_net_.Forward(next_states);
      nn::Matrix q_cur = q_net_.Forward(states);
      nn::Matrix grad(b, 2, 0.0);
      const double inv_b = 1.0 / static_cast<double>(b);
      for (size_t i = 0; i < b; ++i) {
        const double max_next = std::max(q_next.At(i, 0), q_next.At(i, 1));
        const double target = rewards[i] + config_.gamma * max_next;
        const auto a = static_cast<size_t>(actions[i]);
        // Squared TD error on the taken action.
        grad.At(i, a) = 2.0 * (q_cur.At(i, a) - target) * inv_b;
      }
      q_net_.ZeroGrads();
      q_net_.BackwardParams(grad);
      optimizer_->Step();
    }

    if ((step + 1) % config_.target_sync_interval == 0) {
      target_net_.CopyParamsFrom(q_net_);
    }
  }
  fitted_ = true;
  return Status::OK();
}

std::vector<double> Dplan::Score(const nn::Matrix& x) {
  TARGAD_CHECK(fitted_) << "DPLAN::Score before Fit";
  nn::Matrix q = q_net_.Forward(x);
  // Anomaly score = advantage of flagging: Q(s, anomaly) - Q(s, normal).
  std::vector<double> scores(x.rows());
  for (size_t i = 0; i < x.rows(); ++i) scores[i] = q.At(i, 1) - q.At(i, 0);
  return scores;
}

}  // namespace baselines
}  // namespace targad
