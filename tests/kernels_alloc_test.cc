// Holds the dense kernels to common/hot_path.h's promise at runtime: a
// kernel call allocates nothing. targad-lint's purity pass scans the source
// for allocating calls, but it cannot see an allocation made implicitly,
// such as a std::function that stores a large closure. This binary replaces
// the global operator new and delete to count every heap allocation, which
// is why it is a test program of its own.

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "nn/kernels/kernels.h"

namespace {

std::atomic<size_t> g_allocations{0};

void* CountedMalloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedNew(std::size_t size) {
  if (void* p = CountedMalloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every replaceable form that allocates without extended alignment, so each
// allocation is counted and each one is freed by the matching free() (the
// sanitizers check that pairing).
void* operator new(std::size_t size) { return CountedNew(size); }
void* operator new[](std::size_t size) { return CountedNew(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace targad {
namespace nn {
namespace kernels {
namespace {

// Calls `fn` once to warm it, then 100 times, and returns how many heap
// allocations those 100 calls made.
template <typename Fn>
size_t AllocationsIn100Calls(const Fn& fn) {
  fn();
  const size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i) fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

class KernelsAllocTest : public ::testing::TestWithParam<Backend> {
 public:
  void SetUp() override {
    saved_backend_ = ActiveBackend();
    if (!SetBackendForTest(GetParam())) {
      GTEST_SKIP() << "backend " << BackendName(GetParam())
                   << " not available in this build/CPU";
    }
  }
  void TearDown() override { SetBackendForTest(saved_backend_); }

 private:
  Backend saved_backend_ = Backend::kScalar;
};

// bulk_wide's first serving layer: a 64-row batch of 196 features into 64
// units. The training GEMMs use the same operands transposed.
constexpr size_t kM = 64, kN = 64, kK = 196;

template <typename T>
void ExpectAffineAllocatesNothing() {
  const std::vector<T> x(kM * kK, T(0.5)), w(kK * kN, T(-0.25));
  const std::vector<T> bias(kN, T(1));
  std::vector<T> y(kM * kN);
  EXPECT_EQ(AllocationsIn100Calls([&] {
              FusedAffineActivation<T>(kM, kN, kK, x.data(), w.data(),
                                       bias.data(), Act::kReLU, T(0.01),
                                       y.data());
            }),
            0u);
}

TEST_P(KernelsAllocTest, FusedAffineActivationAllocatesNothing) {
  ExpectAffineAllocatesNothing<float>();
  ExpectAffineAllocatesNothing<double>();
}

TEST_P(KernelsAllocTest, EveryGemmFormAllocatesNothing) {
  const std::vector<double> a(kM * kK, 0.5), b(kK * kN, -0.25);
  std::vector<double> c(kM * kN);
  const std::pair<Trans, Trans> forms[] = {{Trans::kNo, Trans::kNo},
                                           {Trans::kYes, Trans::kNo},
                                           {Trans::kNo, Trans::kYes}};
  for (const auto& [ta, tb] : forms) {
    SCOPED_TRACE(::testing::Message() << "ta=" << (ta == Trans::kYes)
                                      << " tb=" << (tb == Trans::kYes));
    EXPECT_EQ(AllocationsIn100Calls([&] {
                Gemm<double>(ta, tb, kM, kN, kK, a.data(), b.data(),
                             c.data());
              }),
              0u);
  }
}

TEST_P(KernelsAllocTest, DistancesAllocateNothing) {
  // A k-means assignment pass and a column of reconstruction errors.
  const size_t n = 256, d = 16, k = 8;
  const std::vector<double> x(n * d, 0.5), centers(k * d, -0.25);
  const std::vector<double> weights(k * d, 2.0);
  std::vector<double> out(n * k);
  EXPECT_EQ(AllocationsIn100Calls([&] {
              SquaredDistances<double>(n, d, k, x.data(), centers.data(),
                                       nullptr, out.data());
            }),
            0u);
  EXPECT_EQ(AllocationsIn100Calls([&] {
              SquaredDistances<double>(n, d, k, x.data(), centers.data(),
                                       weights.data(), out.data());
            }),
            0u);
  const std::vector<double> recon(n * d, 0.75);
  EXPECT_EQ(AllocationsIn100Calls([&] {
              RowwiseSquaredDistances<double>(n, d, x.data(), recon.data(),
                                              out.data());
            }),
            0u);
}

// The training step's element-wise kernels, which the AVX2 backend runs
// from the same function table as the GEMMs.
TEST_P(KernelsAllocTest, ElementwiseKernelsAllocateNothing) {
  const size_t n = kM * kN;
  const std::vector<double> g(n, 0.5), ref(n, -0.25);
  std::vector<double> m(n, 0.1), v(n, 0.2), p(n, 1.0), y(n, 0.75);
  std::vector<double> col(kN);
  EXPECT_EQ(AllocationsIn100Calls([&] {
              AdamUpdate<double>(n, 0.01, 0.9, 0.999, 1e-8, 0.1, 0.001,
                                 g.data(), m.data(), v.data(), p.data());
            }),
            0u);
  EXPECT_EQ(AllocationsIn100Calls(
                [&] { Axpy<double>(n, -0.01, g.data(), y.data()); }),
            0u);
  EXPECT_EQ(AllocationsIn100Calls(
                [&] { ColReduceSum<double>(kM, kN, g.data(), col.data()); }),
            0u);
  for (Act act : {Act::kReLU, Act::kLeakyReLU, Act::kSigmoid}) {
    SCOPED_TRACE(::testing::Message() << "act=" << static_cast<int>(act));
    EXPECT_EQ(AllocationsIn100Calls([&] {
                ApplyActivation<double>(act, 0.01, n, y.data());
              }),
              0u);
    EXPECT_EQ(AllocationsIn100Calls([&] {
                ActivationBackward<double>(act, 0.01, n, ref.data(), y.data());
              }),
              0u);
  }
}

// The counter itself works: a plain allocation is seen. The volatile
// pointer keeps the compiler from eliding the new/delete pair.
TEST(KernelsAllocCounterTest, CountsAHeapAllocation) {
  EXPECT_EQ(AllocationsIn100Calls([] {
              int* volatile p = new int(7);
              delete p;
            }),
            100u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, KernelsAllocTest,
                         ::testing::Values(Backend::kScalar, Backend::kAvx2),
                         [](const auto& info) {
                           return std::string(BackendName(info.param));
                         });

}  // namespace
}  // namespace kernels
}  // namespace nn
}  // namespace targad
