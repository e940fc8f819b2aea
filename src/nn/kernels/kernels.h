// Unified dense-math kernel layer. Every hot loop in the library — the
// MatrixT operator paths, Linear forward/backward, the frozen serving
// forward, and the cluster distance computations — routes through the
// primitives declared here instead of hand-rolling its own nested loops
// (targad-lint's raw-dense-loop rule enforces this outside this directory).
//
// Dtypes. double is the training dtype and every primitive is instantiated
// for it. float is the serving dtype: a frozen float32 network runs only
// FusedAffineActivation, so that is the only float instantiation and any
// other float call fails to link (kernels.cc).
//
// Backends. Each primitive has a scalar baseline. The AVX2 backend adds
// vector kernels compiled in separate translation units with target-specific
// flags: the float fused affine (kernels_avx2.cc, AVX2/FMA) and the hot
// double kernels of training (kernels_avx2_double.cc, AVX2 without FMA): the
// three GEMM shapes — Gemm NN via the fused affine, transposed-A and
// transposed-B — ReLU and its derivative, Axpy, ColReduceSum, AdamUpdate and
// the unweighted SquaredDistances of k-means. The backend is selected ONCE,
// on first kernel use, for both dtypes: AVX2 when the build carries it and
// the CPU has AVX2 and FMA, scalar otherwise. There is no run-time
// override; a scalar-only binary is a -DTARGAD_ENABLE_AVX2=OFF build.
// BackendName() reports the selection (targad_bench's fingerprint records
// it as kernel_backend).
//
// Determinism contract. double results are bit-identical on every backend
// and on every machine. The scalar baseline's per-element accumulation order
// and expression shapes reproduce the pre-kernel-layer loops exactly, and
// each lane of an AVX2 double kernel computes one output element with the
// same separately rounded operations in the same order. The NN and
// transposed-A GEMM tiles add every product, which can differ from the
// zero-skip only by a NaN from 0 * inf, and redo a tile that holds a NaN
// with the skip (tests/training_bitexact_test.cc pins golden bit patterns;
// tests/kernels_test.cc compares the backends bit for bit). The build
// compiles src/ with -ffp-contract=off so no compiler fuses a double
// multiply and add into an FMA, on x86-64 with -march flags or on aarch64.
// Only the float AVX2 affine may round differently: FMA and vector lane
// order change low-order float bits, which the serving calibration bounds
// (<1e-4 score drift) absorb.
//
// Threads. Every primitive runs on the calling thread and allocates nothing.
// Training's parallelism is one level up: the elbow's k-means fits
// (cluster/elbow.cc) and the k cluster autoencoders
// (core/candidate_selection.cc) run as ThreadPool::ParallelFor tasks, and a
// kernel-level pool would compete with them for the same cores. Scoring a
// whole table (TargAD::Score, FrozenScorer::Score) runs on one core too;
// DESIGN.md §12 ("Whole-table scoring re-measured") compares it with the
// deleted row tiling.

#ifndef TARGAD_NN_KERNELS_KERNELS_H_
#define TARGAD_NN_KERNELS_KERNELS_H_

#include <cstddef>
#include <type_traits>

namespace targad {
namespace nn {
namespace kernels {

/// Kernel implementation families.
enum class Backend { kScalar, kAvx2 };

/// The backend selected at first kernel use (see file comment).
Backend ActiveBackend();

/// Human-readable backend names ("scalar", "avx2").
const char* BackendName(Backend backend);
/// BackendName(ActiveBackend()).
const char* BackendName();

/// Transpose disposition of a Gemm operand.
enum class Trans { kNo, kYes };

/// Activations the fused affine kernel can apply in-register/in-pass.
/// Mirrors nn::Activation (sequential.h); the nn layers map between them so
/// this header stays free of layer-stack dependencies.
enum class Act { kNone, kReLU, kLeakyReLU, kSigmoid, kTanh };

/// Kept only for targad_bench's fingerprint, which prints Tiling().threads
/// as kernel_threads: the kernels run on the calling thread, so it is 1.
struct TilingConfig {
  size_t threads = 1;
};
const TilingConfig& Tiling();

/// Test hook — NOT thread-safe; call before any concurrent kernel use.
/// Returns false (and changes nothing) when the requested backend is not
/// available on this machine/build.
bool SetBackendForTest(Backend backend);

// ---- Matrix multiply ------------------------------------------------------

/// C(m x n) = op(A) * op(B), all row-major, C fully overwritten.
/// op(A) is m x k and op(B) is k x n; A is stored m x k when trans_a is kNo
/// and k x m when kYes (similarly B: k x n vs n x k). Transposing both
/// operands is not supported (TARGAD_CHECK).
///
/// Scalar accumulation orders (the bit-identity contract):
///   kNo/kNo:  per element, k ascending, zero-skip on the A element
///   kYes/kNo: per element, the shared dimension ascending, zero-skip on A
///   kNo/kYes: per element, a straight dot product, k ascending
/// matching MatrixT::MatMul / TransposeMatMul / MatMulTranspose exactly.
template <typename T>
void Gemm(Trans trans_a, Trans trans_b, size_t m, size_t n, size_t k,
          const T* a, const T* b, T* c);

/// Y(m x n) = act( X(m x k) * W(k x n) + bias ), one pass per output row:
/// the affine row never leaves cache before the activation is applied.
/// bias may be nullptr (no bias add). This is the frozen serving hot loop.
template <typename T>
void FusedAffineActivation(size_t m, size_t n, size_t k, const T* x,
                           const T* w, const T* bias, Act act, T leaky_slope,
                           T* y);

// ---- Element-wise / BLAS-1 ------------------------------------------------

/// y[i] += alpha * x[i].
template <typename T>
void Axpy(size_t n, T alpha, const T* x, T* y);

/// x[i] *= alpha.
template <typename T>
void Scale(size_t n, T alpha, T* x);

/// y[i] *= x[i] (Hadamard product accumulator).
template <typename T>
void Hadamard(size_t n, const T* x, T* y);

/// Adds v (length n) to every row of the m x n matrix a.
template <typename T>
void AddRowVector(size_t m, size_t n, const T* v, T* a);

/// In-place element-wise activation over a flat buffer (same expression
/// shapes as the fused kernel / the layer Infer paths).
template <typename T>
void ApplyActivation(Act act, T leaky_slope, size_t n, T* x);

/// In-place activation derivative: g[i] *= act'(ref[i]), with the exact
/// expression shapes of the layer backward passes. `ref` is the forward
/// INPUT for kReLU/kLeakyReLU and the forward OUTPUT for kSigmoid/kTanh
/// (whose derivatives are cheapest in terms of the output). kNone is the
/// identity.
template <typename T>
void ActivationBackward(Act act, T leaky_slope, size_t n, const T* ref, T* g);

/// out[i] = alpha * (a[i] - b[i]) — the scaled-difference gradient form
/// shared by the MSE-family losses.
template <typename T>
void ScaledDiff(size_t n, T alpha, const T* a, const T* b, T* out);

// ---- Optimizer updates ----------------------------------------------------
//
// The moment updates are fused single-pass kernels rather than Scale/Axpy
// chains: Adam's second moment rounds as beta2*v + ((1-beta2)*g)*g, and a
// decomposed Hadamard-then-Axpy form would instead round (1-beta2)*(g*g) —
// a different IEEE result. The fused kernels reproduce the original
// optimizer loop expressions bit-for-bit (training_bitexact_test pins them).

/// One Adam update over a flat parameter block:
///   m = beta1*m + (1-beta1)*g
///   v = beta2*v + (1-beta2)*g*g
///   p -= lr * (m/bias_c1) / (sqrt(v/bias_c2) + eps)
/// bias_c1/bias_c2 are the step-t bias corrections 1 - beta^t.
template <typename T>
void AdamUpdate(size_t n, T lr, T beta1, T beta2, T eps, T bias_c1, T bias_c2,
                const T* g, T* m, T* v, T* p);

/// One SGD-with-momentum update: v = momentum*v + g ; p -= lr*v.
/// (Plain SGD is Axpy(n, -lr, g, p): (-lr)*g is IEEE-identical to
/// -(lr*g), so no dedicated kernel is needed.)
template <typename T>
void SgdMomentumUpdate(size_t n, T lr, T momentum, const T* g, T* v, T* p);

// ---- Reductions -----------------------------------------------------------

enum class RowReduceOp { kSum, kSquaredNorm, kMax };

/// out[i] = reduce(row i) for an m x n row-major matrix.
template <typename T>
void RowReduce(RowReduceOp op, size_t m, size_t n, const T* a, T* out);

/// out[j] = sum over rows of column j (row-major streaming order).
template <typename T>
void ColReduceSum(size_t m, size_t n, const T* a, T* out);

/// Sum of a flat buffer.
template <typename T>
T ReduceSum(size_t n, const T* x);

/// Inner product of two length-n vectors, accumulated in index order.
template <typename T>
T Dot(size_t n, const T* a, const T* b);

// ---- Distances ------------------------------------------------------------

/// Squared Euclidean distance between two length-d vectors; when weights is
/// non-null each squared difference is scaled by weights[j] (the GMM
/// diagonal-covariance form with weights = 1/variance).
template <typename T>
T SquaredDistance(size_t d, const T* a, const T* b,
                  const std::type_identity_t<T>* weights = nullptr);

/// out(n x k): out[i*k + c] = (weighted) squared distance between row i of
/// x (n x d) and row c of centers (k x d). weights is nullptr (plain
/// Euclidean, the k-means form) or k x d row-major per-center scales (the
/// GMM form). Shared by k-means assignment and the GMM E-step so the two
/// distance loops cannot drift apart again.
template <typename T>
void SquaredDistances(size_t n, size_t d, size_t k, const T* x,
                      const T* centers, const std::type_identity_t<T>* weights,
                      T* out);

/// out[i] = ||row i of a - row i of b||^2 for two m x n matrices (the
/// per-row reconstruction errors of Eq. 2). Per-row accumulation in
/// ascending column order.
template <typename T>
void RowwiseSquaredDistances(size_t m, size_t n, const T* a, const T* b,
                             T* out);

/// Fused MSE loss + gradient: grad[i] = 2*(pred[i]-target[i])*inv_n and the
/// return value is sum_i (pred[i]-target[i])^2, accumulated in FLAT element
/// order across row boundaries — the one fixed global reduction order the
/// bit-exactness goldens pin.
template <typename T>
T MseLossGrad(size_t n, const T* pred, const T* target, T inv_n, T* grad);

}  // namespace kernels
}  // namespace nn
}  // namespace targad

#endif  // TARGAD_NN_KERNELS_KERNELS_H_
