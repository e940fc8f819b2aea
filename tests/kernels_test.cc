// Golden-parity suite for the dense kernel layer: every primitive is checked
// against a naive reference over a shape sweep (empty, 1xN, non-multiples of
// the SIMD tile), on every backend available in this build. Runs under
// check-asan/check-ubsan (full suite); it starts no thread, so check-tsan
// leaves it out.

#include "nn/kernels/kernels.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"

namespace targad {
namespace nn {
namespace kernels {
namespace {

// Naive references with the same accumulation orders as the scalar kernels,
// so scalar results (and double on any backend) must match EXACTLY; the
// AVX2 float affine, the one float kernel, is held to a relative tolerance.

template <typename T>
std::vector<T> RefGemm(Trans ta, Trans tb, size_t m, size_t n, size_t k,
                       const std::vector<T>& a, const std::vector<T>& b) {
  std::vector<T> c(m * n, T(0));
  auto a_at = [&](size_t i, size_t kk) {
    return ta == Trans::kNo ? a[i * k + kk] : a[kk * m + i];
  };
  auto b_at = [&](size_t kk, size_t j) {
    return tb == Trans::kNo ? b[kk * n + j] : b[j * k + kk];
  };
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      T acc = T(0);
      for (size_t kk = 0; kk < k; ++kk) acc += a_at(i, kk) * b_at(kk, j);
      c[i * n + j] = acc;
    }
  }
  return c;
}

template <typename T>
T RefAct(Act act, T slope, T v) {
  switch (act) {
    case Act::kNone: return v;
    case Act::kReLU: return v <= T(0) ? T(0) : v;
    case Act::kLeakyReLU: return v < T(0) ? v * slope : v;
    case Act::kSigmoid: {
      if (v >= T(0)) return T(1) / (T(1) + std::exp(-v));
      const T e = std::exp(v);
      return e / (T(1) + e);
    }
    case Act::kTanh: return std::tanh(v);
  }
  return v;
}

template <typename T>
std::vector<T> FillRandom(size_t count, Rng* rng, double sparsity = 0.0) {
  std::vector<T> out(count);
  for (T& v : out) {
    v = (sparsity > 0.0 && rng->Bernoulli(sparsity))
            ? T(0)
            : static_cast<T>(rng->Normal(0.0, 1.0));
  }
  return out;
}

// Shapes chosen to straddle the AVX2 register blocking (4 rows x 16 cols,
// then 8-wide and scalar tails) and the empty/degenerate edges.
struct Shape {
  size_t m, n, k;
};
const Shape kShapes[] = {{0, 0, 0}, {0, 5, 3},  {1, 1, 1},   {1, 16, 8},
                         {1, 17, 3}, {3, 7, 5},  {4, 16, 16}, {5, 8, 2},
                         {7, 19, 11}, {8, 32, 4}, {13, 33, 17}, {16, 64, 24}};

// The three Gemm forms; transposing both operands is rejected.
const std::pair<Trans, Trans> kGemmForms[] = {{Trans::kNo, Trans::kNo},
                                              {Trans::kYes, Trans::kNo},
                                              {Trans::kNo, Trans::kYes}};

// Value-parameterized over the backends available in this build; restores
// the dispatch state after each test.
class KernelsBackendTest : public ::testing::TestWithParam<Backend> {
 public:
  void SetUp() override {
    saved_backend_ = ActiveBackend();
    if (!SetBackendForTest(GetParam())) {
      GTEST_SKIP() << "backend " << BackendName(GetParam())
                   << " not available in this build/CPU";
    }
  }
  void TearDown() override { SetBackendForTest(saved_backend_); }
  // Exact for scalar and for double (same accumulation order as the
  // reference); relative tolerance for the AVX2 float affine, whose FMA and
  // lane order differ.
  template <typename T>
  void ExpectClose(const std::vector<T>& expected,
                   const std::vector<T>& actual) {
    ASSERT_EQ(expected.size(), actual.size());
    const bool exact =
        GetParam() == Backend::kScalar || std::is_same_v<T, double>;
    for (size_t i = 0; i < expected.size(); ++i) {
      if (exact) {
        EXPECT_EQ(expected[i], actual[i]) << "index " << i;
      } else {
        const double tol =
            1e-5 * std::max(1.0, std::abs(static_cast<double>(expected[i])));
        EXPECT_NEAR(expected[i], actual[i], tol) << "index " << i;
      }
    }
  }

 private:
  Backend saved_backend_ = Backend::kScalar;
};

using KernelsSweepTest = KernelsBackendTest;

TEST_P(KernelsSweepTest, GemmMatchesReferenceAcrossShapes) {
  Rng rng(17);
  for (const Shape& s : kShapes) {
    for (const auto& [ta, tb] : kGemmForms) {
      const auto a = FillRandom<double>(s.m * s.k, &rng, /*sparsity=*/0.3);
      const auto b = FillRandom<double>(s.k * s.n, &rng);
      std::vector<double> c(s.m * s.n, -1.0);
      Gemm<double>(ta, tb, s.m, s.n, s.k, a.data(), b.data(), c.data());
      const auto expected = RefGemm<double>(ta, tb, s.m, s.n, s.k, a, b);
      SCOPED_TRACE(::testing::Message()
                   << "m=" << s.m << " n=" << s.n << " k=" << s.k << " ta="
                   << (ta == Trans::kYes) << " tb=" << (tb == Trans::kYes));
      ExpectClose(expected, c);
    }
  }
}

template <typename T>
void RunAffineSweep(KernelsSweepTest* fixture) {
  Rng rng(23);
  const Act kActs[] = {Act::kNone, Act::kReLU, Act::kLeakyReLU, Act::kSigmoid,
                       Act::kTanh};
  for (const Shape& s : kShapes) {
    for (Act act : kActs) {
      for (bool with_bias : {false, true}) {
        const auto x = FillRandom<T>(s.m * s.k, &rng);
        const auto w = FillRandom<T>(s.k * s.n, &rng);
        const auto bias = FillRandom<T>(s.n, &rng);
        const T slope = T(0.01);
        std::vector<T> y(s.m * s.n, T(-1));
        FusedAffineActivation<T>(s.m, s.n, s.k, x.data(), w.data(),
                                 with_bias ? bias.data() : nullptr, act, slope,
                                 y.data());
        auto expected = RefGemm<T>(Trans::kNo, Trans::kNo, s.m, s.n, s.k, x, w);
        for (size_t i = 0; i < s.m; ++i) {
          for (size_t j = 0; j < s.n; ++j) {
            T v = expected[i * s.n + j];
            if (with_bias) v += bias[j];
            expected[i * s.n + j] = RefAct(act, slope, v);
          }
        }
        SCOPED_TRACE(::testing::Message()
                     << "m=" << s.m << " n=" << s.n << " k=" << s.k
                     << " act=" << static_cast<int>(act)
                     << " bias=" << with_bias);
        fixture->ExpectClose(expected, y);
      }
    }
  }
}

TEST_P(KernelsSweepTest, FusedAffineActivationMatchesReference) {
  RunAffineSweep<float>(this);
  RunAffineSweep<double>(this);
}

TEST_P(KernelsSweepTest, VectorOpsMatchReference) {
  Rng rng(31);
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                   size_t{64}, size_t{100}}) {
    const auto x = FillRandom<double>(n, &rng);
    auto y = FillRandom<double>(n, &rng);
    const double alpha = rng.Normal(0.0, 1.0);

    auto expected = y;
    for (size_t i = 0; i < n; ++i) expected[i] += alpha * x[i];
    auto actual = y;
    Axpy<double>(n, alpha, x.data(), actual.data());
    ExpectClose(expected, actual);

    expected = y;
    for (size_t i = 0; i < n; ++i) expected[i] *= alpha;
    actual = y;
    Scale<double>(n, alpha, actual.data());
    ExpectClose(expected, actual);

    expected = y;
    for (size_t i = 0; i < n; ++i) expected[i] *= x[i];
    actual = y;
    Hadamard<double>(n, x.data(), actual.data());
    ExpectClose(expected, actual);

    double dot_ref = 0.0;
    for (size_t i = 0; i < n; ++i) dot_ref += x[i] * y[i];
    EXPECT_EQ(dot_ref, Dot<double>(n, x.data(), y.data()));
  }
}

TEST_P(KernelsSweepTest, SquaredDistancesMatchReference) {
  Rng rng(41);
  for (const Shape& s : kShapes) {
    const size_t n = s.m, d = s.k, k = s.n;
    const auto x = FillRandom<double>(n * d, &rng);
    const auto centers = FillRandom<double>(k * d, &rng);
    auto weights = FillRandom<double>(k * d, &rng);
    for (double& w : weights) w = std::abs(w) + 0.5;

    for (bool weighted : {false, true}) {
      std::vector<double> expected(n * k, 0.0);
      for (size_t i = 0; i < n; ++i) {
        for (size_t c = 0; c < k; ++c) {
          double acc = 0.0;
          for (size_t j = 0; j < d; ++j) {
            const double diff = x[i * d + j] - centers[c * d + j];
            acc += weighted ? diff * diff * weights[c * d + j] : diff * diff;
          }
          expected[i * k + c] = acc;
        }
      }
      std::vector<double> actual(n * k, -1.0);
      SquaredDistances<double>(n, d, k, x.data(), centers.data(),
                               weighted ? weights.data() : nullptr,
                               actual.data());
      SCOPED_TRACE(::testing::Message() << "n=" << n << " d=" << d << " k=" << k
                                        << " weighted=" << weighted);
      ExpectClose(expected, actual);

      // The pairwise entry point must agree with the batched one exactly.
      for (size_t i = 0; i < n; ++i) {
        for (size_t c = 0; c < k; ++c) {
          const double pair = SquaredDistance<double>(
              d, x.data() + i * d, centers.data() + c * d,
              weighted ? weights.data() + c * d : nullptr);
          EXPECT_EQ(pair, actual[i * k + c]);
        }
      }
    }
  }
}

TEST_P(KernelsSweepTest, ReductionsMatchReference) {
  Rng rng(53);
  for (const Shape& s : kShapes) {
    const auto a = FillRandom<double>(s.m * s.n, &rng);
    std::vector<double> row_sum(s.m), row_sq(s.m), row_max(s.m);
    RowReduce<double>(RowReduceOp::kSum, s.m, s.n, a.data(), row_sum.data());
    RowReduce<double>(RowReduceOp::kSquaredNorm, s.m, s.n, a.data(),
                      row_sq.data());
    if (s.n > 0) {
      RowReduce<double>(RowReduceOp::kMax, s.m, s.n, a.data(), row_max.data());
    }
    std::vector<double> col_sum(s.n);
    ColReduceSum<double>(s.m, s.n, a.data(), col_sum.data());

    std::vector<double> want_col(s.n, 0.0);
    for (size_t i = 0; i < s.m; ++i) {
      double sum = 0.0, sq = 0.0, mx = s.n > 0 ? a[i * s.n] : 0.0;
      for (size_t j = 0; j < s.n; ++j) {
        const double v = a[i * s.n + j];
        sum += v;
        sq += v * v;
        mx = std::max(mx, v);
        want_col[j] += v;
      }
      EXPECT_EQ(sum, row_sum[i]);
      EXPECT_EQ(sq, row_sq[i]);
      if (s.n > 0) {
        EXPECT_EQ(mx, row_max[i]);
      }
    }
    for (size_t j = 0; j < s.n; ++j) EXPECT_EQ(want_col[j], col_sum[j]);

    double total = 0.0;
    for (const double v : a) total += v;
    EXPECT_EQ(total, ReduceSum<double>(a.size(), a.data()));
  }
}

TEST_P(KernelsSweepTest, ActivationBackwardMatchesReference) {
  Rng rng(67);
  const Act kActs[] = {Act::kNone, Act::kReLU, Act::kLeakyReLU, Act::kSigmoid,
                       Act::kTanh};
  const double slope = 0.01;
  for (size_t n : {size_t{0}, size_t{1}, size_t{9}, size_t{64}}) {
    for (Act act : kActs) {
      const auto ref = FillRandom<double>(n, &rng);
      const auto g0 = FillRandom<double>(n, &rng);
      auto expected = g0;
      for (size_t i = 0; i < n; ++i) {
        switch (act) {
          case Act::kNone: break;
          case Act::kReLU: expected[i] *= ref[i] > 0.0 ? 1.0 : 0.0; break;
          case Act::kLeakyReLU:
            if (ref[i] < 0.0) expected[i] *= slope;
            break;
          case Act::kSigmoid: expected[i] *= ref[i] * (1.0 - ref[i]); break;
          case Act::kTanh: expected[i] *= 1.0 - ref[i] * ref[i]; break;
        }
      }
      auto actual = g0;
      ActivationBackward<double>(act, slope, n, ref.data(), actual.data());
      SCOPED_TRACE(::testing::Message()
                   << "n=" << n << " act=" << static_cast<int>(act));
      ExpectClose(expected, actual);
    }
  }
}

TEST_P(KernelsSweepTest, ScaledDiffMatchesReference) {
  Rng rng(71);
  for (size_t n : {size_t{0}, size_t{5}, size_t{33}}) {
    const auto a = FillRandom<double>(n, &rng);
    const auto b = FillRandom<double>(n, &rng);
    const double alpha = rng.Normal(0.0, 2.0);
    std::vector<double> expected(n), actual(n);
    for (size_t i = 0; i < n; ++i) expected[i] = alpha * (a[i] - b[i]);
    ScaledDiff<double>(n, alpha, a.data(), b.data(), actual.data());
    ExpectClose(expected, actual);
  }
}

// The optimizer kernels must reproduce the historical update loops
// expression-for-expression; the references below are those loops verbatim.
TEST_P(KernelsSweepTest, AdamUpdateMatchesReferenceLoop) {
  Rng rng(73);
  const size_t n = 37;
  const double lr = 0.01, beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
  auto g = FillRandom<double>(n, &rng);
  auto m = FillRandom<double>(n, &rng);
  auto v = FillRandom<double>(n, &rng);
  for (double& x : v) x = std::abs(x);
  auto p = FillRandom<double>(n, &rng);
  for (int t = 1; t <= 3; ++t) {
    const double bc1 = 1.0 - std::pow(beta1, t);
    const double bc2 = 1.0 - std::pow(beta2, t);
    auto em = m, ev = v, ep = p;
    for (size_t j = 0; j < n; ++j) {
      em[j] = beta1 * em[j] + (1.0 - beta1) * g[j];
      ev[j] = beta2 * ev[j] + (1.0 - beta2) * g[j] * g[j];
      const double m_hat = em[j] / bc1;
      const double v_hat = ev[j] / bc2;
      ep[j] -= lr * m_hat / (std::sqrt(v_hat) + eps);
    }
    AdamUpdate<double>(n, lr, beta1, beta2, eps, bc1, bc2, g.data(), m.data(),
                       v.data(), p.data());
    // Bitwise equality, not closeness: the fused kernel must round exactly
    // as the historical loop did.
    for (size_t j = 0; j < n; ++j) {
      EXPECT_EQ(em[j], m[j]);
      EXPECT_EQ(ev[j], v[j]);
      EXPECT_EQ(ep[j], p[j]);
    }
  }
}

TEST_P(KernelsSweepTest, SgdMomentumUpdateMatchesReferenceLoop) {
  Rng rng(79);
  const size_t n = 29;
  const double lr = 0.05, momentum = 0.9;
  const auto g = FillRandom<double>(n, &rng);
  auto v = FillRandom<double>(n, &rng);
  auto p = FillRandom<double>(n, &rng);
  auto ev = v, ep = p;
  for (size_t j = 0; j < n; ++j) {
    ev[j] = momentum * ev[j] + g[j];
    ep[j] -= lr * ev[j];
  }
  SgdMomentumUpdate<double>(n, lr, momentum, g.data(), v.data(), p.data());
  for (size_t j = 0; j < n; ++j) {
    EXPECT_EQ(ev[j], v[j]);
    EXPECT_EQ(ep[j], p[j]);
  }
}

TEST_P(KernelsSweepTest, RowwiseSquaredDistancesMatchesReference) {
  Rng rng(83);
  for (const Shape& s : kShapes) {
    const auto a = FillRandom<double>(s.m * s.n, &rng);
    const auto b = FillRandom<double>(s.m * s.n, &rng);
    std::vector<double> expected(s.m), actual(s.m, -1.0);
    for (size_t i = 0; i < s.m; ++i) {
      double acc = 0.0;
      for (size_t j = 0; j < s.n; ++j) {
        const double d = a[i * s.n + j] - b[i * s.n + j];
        acc += d * d;
      }
      expected[i] = acc;
    }
    RowwiseSquaredDistances<double>(s.m, s.n, a.data(), b.data(),
                                    actual.data());
    SCOPED_TRACE(::testing::Message() << "m=" << s.m << " n=" << s.n);
    ExpectClose(expected, actual);
  }
}

TEST_P(KernelsSweepTest, MseLossGradMatchesReferenceLoop) {
  Rng rng(89);
  for (const Shape& s : kShapes) {
    if (s.m == 0) continue;
    const size_t n = s.m * s.n;
    const auto pred = FillRandom<double>(n, &rng);
    const auto target = FillRandom<double>(n, &rng);
    const double inv_n = 1.0 / static_cast<double>(s.m);
    std::vector<double> egrad(n), agrad(n);
    double etotal = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double d = pred[i] - target[i];
      etotal += d * d;
      egrad[i] = 2.0 * d * inv_n;
    }
    const double atotal = MseLossGrad<double>(n, pred.data(), target.data(),
                                              inv_n, agrad.data());
    EXPECT_EQ(etotal, atotal);
    ExpectClose(egrad, agrad);
  }
}

// Operands for the double bit-identity sweep, laid out for one Gemm form:
// A is op(A) = m x k (stored k x m when transposed), B is op(B) = k x n
// (stored n x k when transposed). The values are the ones that expose a lane
// computing out of order, a skip done wrong or a fused multiply-add:
//   - 30% of A is +0 or -0;
//   - one shared index whose A column is all zeros while B holds +inf, -inf
//     and NaN under it in three of every five columns (a skip that
//     multiplies anyway turns those columns NaN; the transposed-B form has
//     no skip, so the other two columns keep its sums finite);
//   - 5% subnormals in both operands, and one NaN in A.
// Every NaN is the one the FPU itself returns for 0 * inf: IEEE 754 leaves
// open which payload an operation on two different NaNs returns, and the
// compiler may commute + and *, so only inputs with a single NaN bit
// pattern have bits the contract can promise.
struct HostileOperands {
  std::vector<double> a, b, bias;
};

HostileOperands MakeHostileOperands(Trans ta, Trans tb, const Shape& s,
                                    Rng* rng) {
  volatile double zero = 0.0;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = zero * inf;
  auto value = [&] {
    const double v = rng->Normal(0.0, 1.0);
    return rng->Bernoulli(0.05) ? v * 1e-310 : v;
  };
  HostileOperands ops;
  ops.a.resize(s.m * s.k);
  ops.b.resize(s.k * s.n);
  ops.bias.resize(s.n);
  for (double& v : ops.b) v = value();
  for (double& v : ops.bias) v = value();
  auto a_at = [&](size_t i, size_t kk) -> double& {
    return ta == Trans::kNo ? ops.a[i * s.k + kk] : ops.a[kk * s.m + i];
  };
  auto b_at = [&](size_t kk, size_t j) -> double& {
    return tb == Trans::kNo ? ops.b[kk * s.n + j] : ops.b[j * s.k + kk];
  };
  for (size_t i = 0; i < s.m; ++i) {
    for (size_t kk = 0; kk < s.k; ++kk) {
      a_at(i, kk) = rng->Bernoulli(0.3) ? (rng->Bernoulli(0.5) ? 0.0 : -0.0)
                                        : value();
    }
  }
  if (s.k == 0) return ops;
  const size_t dead = s.k / 2;
  const double specials[] = {inf, -inf, nan};
  for (size_t i = 0; i < s.m; ++i) a_at(i, dead) = i % 2 == 0 ? 0.0 : -0.0;
  for (size_t j = 0; j < s.n; ++j) {
    if (j % 5 < 3) b_at(dead, j) = specials[j % 5];
  }
  if (s.m > 0 && s.k > 1) a_at(s.m - 1, (dead + 1) % s.k) = nan;
  return ops;
}

// Runs `kernel` (which writes `count` doubles) on the scalar backend, then
// on `backend`, and requires the same bits.
template <typename Kernel>
void ExpectScalarBits(Backend backend, size_t count, const Kernel& kernel) {
  std::vector<double> want(count, -1.0);
  ASSERT_TRUE(SetBackendForTest(Backend::kScalar));
  kernel(want.data());
  ASSERT_TRUE(SetBackendForTest(backend));
  std::vector<double> got(count, -1.0);
  kernel(got.data());
  for (size_t i = 0; i < count; ++i) {
    if (std::memcmp(&want[i], &got[i], sizeof(double)) != 0) {
      ADD_FAILURE() << "index " << i << ": "
                    << std::bit_cast<uint64_t>(want[i]) << " vs "
                    << std::bit_cast<uint64_t>(got[i]);
      break;
    }
  }
}

// `count` values of which about half are hostile: +0, -0, +inf, -inf, the
// FPU's 0 * inf NaN (the only NaN bit pattern, as above) or a subnormal.
std::vector<double> HostileValues(size_t count, Rng* rng) {
  volatile double zero = 0.0;
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {0.0, -0.0, inf, -inf, zero * inf, 3e-310,
                             -5e-320};
  std::vector<double> out(count);
  for (double& v : out) {
    v = rng->Bernoulli(0.5) ? specials[rng->UniformInt(std::size(specials))]
                            : rng->Normal(0.0, 1.0);
  }
  return out;
}

// Gemm operands with finite B except where a case puts specials:
//   - kInfUnderZero: A's column `dead` is zero in rows 0-3 only and B holds
//     +inf under it in column 9 alone, so only the tiles over rows 0-3 and
//     columns 8-15 meet 0 * inf (the rows below add a true inf);
//   - kNanInA: one NaN in A, at row m - 1, and nothing else special.
enum class GemmCase { kInfUnderZero, kNanInA };

HostileOperands MakeTileOperands(Trans ta, GemmCase which, const Shape& s,
                                 Rng* rng) {
  HostileOperands ops;
  ops.a = FillRandom<double>(s.m * s.k, rng, /*sparsity=*/0.3);
  ops.b = FillRandom<double>(s.k * s.n, rng);
  ops.bias = FillRandom<double>(s.n, rng);
  auto a_at = [&](size_t i, size_t kk) -> double& {
    return ta == Trans::kNo ? ops.a[i * s.k + kk] : ops.a[kk * s.m + i];
  };
  volatile double zero = 0.0;
  const double inf = std::numeric_limits<double>::infinity();
  const size_t dead = s.k / 2;
  if (which == GemmCase::kInfUnderZero) {
    for (size_t i = 0; i < s.m; ++i) a_at(i, dead) = i < 4 ? 0.0 : 1.5;
    ops.b[dead * s.n + 9] = inf;
  } else {
    a_at(s.m - 1, dead) = zero * inf;
  }
  return ops;
}

// The double bit-identity contract: every backend returns the scalar
// baseline's exact bits for every Gemm form and the fused affine, on the
// kShapes sweep plus shapes that leave m % 4, n % 8, n % 4 and k % 4 tails,
// and for every other double primitive with an AVX2 body, on hostile values
// and lengths with n % 4 tails.
TEST_P(KernelsSweepTest, DoubleIsBackendInvariant) {
  const Shape kTailShapes[] = {{5, 12, 5},  {6, 13, 6},   {7, 14, 7},
                               {9, 15, 9},  {10, 23, 10}, {4, 3, 4},
                               {2, 6, 13},  {11, 41, 30}};
  std::vector<Shape> shapes(std::begin(kShapes), std::end(kShapes));
  shapes.insert(shapes.end(), std::begin(kTailShapes), std::end(kTailShapes));
  const Act kActs[] = {Act::kNone, Act::kReLU, Act::kLeakyReLU, Act::kSigmoid,
                       Act::kTanh};
  Rng rng(61);
  for (const Shape& s : shapes) {
    for (const auto& [ta, tb] : kGemmForms) {
      const HostileOperands ops = MakeHostileOperands(ta, tb, s, &rng);
      SCOPED_TRACE(::testing::Message()
                   << "Gemm m=" << s.m << " n=" << s.n << " k=" << s.k
                   << " ta=" << (ta == Trans::kYes)
                   << " tb=" << (tb == Trans::kYes));
      ExpectScalarBits(GetParam(), s.m * s.n, [&](double* c) {
        Gemm<double>(ta, tb, s.m, s.n, s.k, ops.a.data(), ops.b.data(), c);
      });
    }
    const HostileOperands ops =
        MakeHostileOperands(Trans::kNo, Trans::kNo, s, &rng);
    for (Act act : kActs) {
      for (bool with_bias : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "affine m=" << s.m << " n=" << s.n << " k=" << s.k
                     << " act=" << static_cast<int>(act)
                     << " bias=" << with_bias);
        ExpectScalarBits(GetParam(), s.m * s.n, [&](double* y) {
          FusedAffineActivation<double>(
              s.m, s.n, s.k, ops.a.data(), ops.b.data(),
              with_bias ? ops.bias.data() : nullptr, act, 0.01, y);
        });
      }
    }
  }

  // A tile that must be recomputed with the zero-skip next to tiles that
  // must not be, and a NaN the skip keeps.
  const Shape tile_shape = {9, 21, 7};
  for (GemmCase which : {GemmCase::kInfUnderZero, GemmCase::kNanInA}) {
    for (Trans ta : {Trans::kNo, Trans::kYes}) {
      const HostileOperands ops = MakeTileOperands(ta, which, tile_shape,
                                                   &rng);
      const Shape& s = tile_shape;
      SCOPED_TRACE(::testing::Message()
                   << "tile case " << static_cast<int>(which)
                   << " ta=" << (ta == Trans::kYes));
      ExpectScalarBits(GetParam(), s.m * s.n, [&](double* c) {
        Gemm<double>(ta, Trans::kNo, s.m, s.n, s.k, ops.a.data(),
                     ops.b.data(), c);
      });
      if (ta == Trans::kNo) {
        ExpectScalarBits(GetParam(), s.m * s.n, [&](double* y) {
          FusedAffineActivation<double>(s.m, s.n, s.k, ops.a.data(),
                                        ops.b.data(), ops.bias.data(),
                                        Act::kReLU, 0.01, y);
        });
      }
    }
  }

  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{6},
                   size_t{17}, size_t{64}, size_t{99}}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    const std::vector<double> x = HostileValues(n, &rng);
    const std::vector<double> y = HostileValues(n, &rng);
    for (Act act : kActs) {
      SCOPED_TRACE(::testing::Message() << "act=" << static_cast<int>(act));
      ExpectScalarBits(GetParam(), n, [&](double* out) {
        std::copy(x.begin(), x.end(), out);
        ApplyActivation<double>(act, 0.01, n, out);
      });
      ExpectScalarBits(GetParam(), n, [&](double* out) {
        std::copy(y.begin(), y.end(), out);
        ActivationBackward<double>(act, 0.01, n, x.data(), out);
      });
    }
    const double inf = std::numeric_limits<double>::infinity();
    for (double alpha : {1.5, 0.0, -0.0, inf, 3e-310}) {
      SCOPED_TRACE(::testing::Message() << "axpy alpha=" << alpha);
      ExpectScalarBits(GetParam(), n, [&](double* out) {
        std::copy(y.begin(), y.end(), out);
        Axpy<double>(n, alpha, x.data(), out);
      });
    }
    // Three Adam steps from hostile, then from finite, moments, parameters
    // and gradients; out holds m, v and p. The finite run keeps a change
    // in rounding from hiding behind a NaN.
    for (bool finite : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "adam finite=" << finite);
      const std::vector<double> start = finite
                                            ? FillRandom<double>(3 * n, &rng)
                                            : HostileValues(3 * n, &rng);
      const std::vector<double> grad =
          finite ? FillRandom<double>(n, &rng) : HostileValues(n, &rng);
      ExpectScalarBits(GetParam(), 3 * n, [&](double* out) {
        std::copy(start.begin(), start.end(), out);
        for (int t = 1; t <= 3; ++t) {
          AdamUpdate<double>(n, 0.01, 0.9, 0.999, 1e-8,
                             1.0 - std::pow(0.9, t), 1.0 - std::pow(0.999, t),
                             grad.data(), out, out + n, out + 2 * n);
        }
      });
    }
  }

  // Column sums: n % 16 and n % 4 column tails, rows in order.
  for (const Shape& s : shapes) {
    const std::vector<double> a = HostileValues(s.m * s.n, &rng);
    SCOPED_TRACE(::testing::Message() << "colsum m=" << s.m << " n=" << s.n);
    ExpectScalarBits(GetParam(), s.n, [&](double* out) {
      ColReduceSum<double>(s.m, s.n, a.data(), out);
    });
  }

  // Unweighted k-means distances: 4-center blocks with k % 4 tails, d % 4
  // tails and row-tile tails.
  for (size_t k : {size_t{1}, size_t{4}, size_t{5}, size_t{7}, size_t{8},
                   size_t{11}}) {
    for (size_t d : {size_t{1}, size_t{3}, size_t{4}, size_t{9}}) {
      for (size_t n : {size_t{0}, size_t{1}, size_t{6}, size_t{13}}) {
        const std::vector<double> x = HostileValues(n * d, &rng);
        const std::vector<double> centers = HostileValues(k * d, &rng);
        const std::vector<double> fx = FillRandom<double>(n * d, &rng);
        const std::vector<double> fc = FillRandom<double>(k * d, &rng);
        SCOPED_TRACE(::testing::Message() << "distances n=" << n << " d=" << d
                                          << " k=" << k);
        ExpectScalarBits(GetParam(), n * k, [&](double* out) {
          SquaredDistances<double>(n, d, k, x.data(), centers.data(), nullptr,
                                   out);
        });
        ExpectScalarBits(GetParam(), n * k, [&](double* out) {
          SquaredDistances<double>(n, d, k, fx.data(), fc.data(), nullptr,
                                   out);
        });
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, KernelsSweepTest,
                         ::testing::Values(Backend::kScalar, Backend::kAvx2),
                         [](const auto& info) {
                           return std::string(BackendName(info.param));
                         });

TEST(KernelsDispatchTest, BackendNameIsConsistent) {
  const Backend b = ActiveBackend();
  EXPECT_TRUE(b == Backend::kScalar || b == Backend::kAvx2);
  EXPECT_STREQ(BackendName(), BackendName(b));
  EXPECT_EQ(Tiling().threads, size_t{1});
}

TEST(KernelsDeathTest, GemmRejectsBothOperandsTransposed) {
  const double a[4] = {1, 2, 3, 4};
  const double b[4] = {5, 6, 7, 8};
  double c[4] = {};
  EXPECT_DEATH(Gemm<double>(Trans::kYes, Trans::kYes, 2, 2, 2, a, b, c),
               "does not transpose both operands");
}

}  // namespace
}  // namespace kernels
}  // namespace nn
}  // namespace targad
