#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <numbers>
#include <vector>

#include "tensor/kernel_math.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace emx {
namespace {

using ops::AllClose;

// Force a multi-worker global pool even on single-core CI boxes so the
// threaded kernel paths are exercised. Runs before the pool is first built
// (it is created lazily on the first ParallelFor call after main starts).
const bool kForceThreadedPool = [] {
  setenv("EMX_NUM_THREADS", "4", /*overwrite=*/0);
  return true;
}();

// ---- Tensor storage ------------------------------------------------------

TEST(TensorTest, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6);
  for (int64_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorTest, FromValues) {
  Tensor t({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.At({0, 1}), 2.0f);
  EXPECT_EQ(t.At({1, 0}), 3.0f);
}

TEST(TensorTest, CopySharesClonedDoesNot) {
  Tensor a({2}, {1, 2});
  Tensor b = a;
  Tensor c = a.Clone();
  EXPECT_TRUE(a.SharesDataWith(b));
  EXPECT_FALSE(a.SharesDataWith(c));
  b[0] = 99;
  EXPECT_EQ(a[0], 99.0f);
  EXPECT_EQ(c[0], 1.0f);
}

TEST(TensorTest, ReshapeSharesAndInfers) {
  Tensor t({2, 6});
  Tensor r = t.Reshape({3, -1});
  EXPECT_EQ(r.dim(1), 4);
  EXPECT_TRUE(t.SharesDataWith(r));
}

TEST(TensorTest, NegativeDimIndex) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.dim(-1), 4);
  EXPECT_EQ(t.dim(-3), 2);
}

TEST(TensorTest, FactoryHelpers) {
  Tensor ones = Tensor::Ones({3});
  EXPECT_EQ(ones[2], 1.0f);
  Tensor full = Tensor::Full({2}, 3.5f);
  EXPECT_EQ(full[1], 3.5f);
  Tensor ar = Tensor::Arange(5);
  EXPECT_EQ(ar[4], 4.0f);
  EXPECT_EQ(Tensor::Scalar(2.0f).size(), 1);
}

TEST(TensorTest, RandnStats) {
  Rng rng(3);
  Tensor t = Tensor::Randn({10000}, &rng, 2.0f);
  double sum = 0, sq = 0;
  for (int64_t i = 0; i < t.size(); ++i) {
    sum += t[i];
    sq += t[i] * t[i];
  }
  EXPECT_NEAR(sum / t.size(), 0.0, 0.1);
  EXPECT_NEAR(sq / t.size(), 4.0, 0.3);
}

TEST(TensorTest, InPlaceOps) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {10, 20, 30});
  a.AddInPlace(b);
  EXPECT_EQ(a[2], 33.0f);
  a.ScaleInPlace(0.5f);
  EXPECT_EQ(a[0], 5.5f);
  a.Fill(7.0f);
  EXPECT_EQ(a[1], 7.0f);
}

// ---- External (mapped) views ---------------------------------------------

TEST(TensorTest, FromExternalReadsBorrowedBuffer) {
  auto backing = std::make_shared<std::vector<float>>(
      std::vector<float>{1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f});
  Tensor v = Tensor::FromExternal({2, 3}, backing->data(), backing);
  EXPECT_TRUE(v.is_external());
  EXPECT_EQ(v.size(), 6);
  EXPECT_EQ(v.At({1, 2}), 6.0f);
  EXPECT_EQ(v.data(), backing->data()) << "view copied instead of aliasing";
}

TEST(TensorTest, FromExternalKeepaliveOutlivesCreatorHandle) {
  auto backing = std::make_shared<std::vector<float>>(
      std::vector<float>{42.0f, 43.0f});
  float* raw = backing->data();
  Tensor v = Tensor::FromExternal({2}, raw, backing);
  backing.reset();  // the view now holds the only reference
  EXPECT_EQ(v[0], 42.0f);
  Tensor copy = v;  // copies share the keepalive too
  EXPECT_EQ(copy[1], 43.0f);
}

TEST(TensorTest, FromExternalCloneMaterializesOwnedCopy) {
  auto backing = std::make_shared<std::vector<float>>(
      std::vector<float>{7.0f, 8.0f});
  Tensor v = Tensor::FromExternal({2}, backing->data(), backing);
  Tensor c = v.Clone();
  EXPECT_FALSE(c.is_external());
  EXPECT_FALSE(c.SharesDataWith(v));
  c.Fill(0.0f);  // a clone is mutable even when the source view is not
  EXPECT_EQ(v[0], 7.0f);
  EXPECT_EQ(c[0], 0.0f);
}

TEST(TensorTest, FromExternalReshapeStaysAView) {
  auto backing = std::make_shared<std::vector<float>>(
      std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor v = Tensor::FromExternal({2, 3}, backing->data(), backing);
  Tensor r = v.Reshape({3, 2});
  EXPECT_TRUE(r.is_external());
  EXPECT_TRUE(r.SharesDataWith(v));
  EXPECT_EQ(r.At({2, 1}), 6.0f);
}

TEST(TensorTest, ExternalViewsDoNotCountAsHeapTensorMemory) {
  auto backing =
      std::make_shared<std::vector<float>>(std::vector<float>(1024, 1.0f));
  const int64_t before = GetTensorMemStats().live_bytes;
  Tensor v = Tensor::FromExternal({1024}, backing->data(), backing);
  EXPECT_EQ(GetTensorMemStats().live_bytes, before)
      << "mapped views must not inflate heap-tensor accounting";
}

// ---- Elementwise kernels ------------------------------------------------

TEST(TensorOpsTest, Arithmetic) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {4, 3, 2, 1});
  EXPECT_TRUE(AllClose(ops::Add(a, b), Tensor({2, 2}, {5, 5, 5, 5})));
  EXPECT_TRUE(AllClose(ops::Sub(a, b), Tensor({2, 2}, {-3, -1, 1, 3})));
  EXPECT_TRUE(AllClose(ops::Mul(a, b), Tensor({2, 2}, {4, 6, 6, 4})));
  EXPECT_TRUE(AllClose(ops::Div(a, b), Tensor({2, 2}, {0.25f, 2.f / 3, 1.5f, 4})));
  EXPECT_TRUE(AllClose(ops::AddScalar(a, 1), Tensor({2, 2}, {2, 3, 4, 5})));
  EXPECT_TRUE(AllClose(ops::MulScalar(a, 2), Tensor({2, 2}, {2, 4, 6, 8})));
}

TEST(TensorOpsTest, AddBiasBroadcastsLastDim) {
  Tensor x({2, 3}, {0, 0, 0, 1, 1, 1});
  Tensor bias({3}, {10, 20, 30});
  Tensor y = ops::AddBias(x, bias);
  EXPECT_TRUE(AllClose(y, Tensor({2, 3}, {10, 20, 30, 11, 21, 31})));
}

TEST(TensorOpsTest, SumToBiasReducesLeadingDims) {
  Tensor g({2, 2, 3});
  g.Fill(1.0f);
  Tensor r = ops::SumToBias(g, 3);
  EXPECT_TRUE(AllClose(r, Tensor({3}, {4, 4, 4})));
}

TEST(TensorOpsTest, UnaryFunctions) {
  Tensor x({3}, {-1, 0, 1});
  EXPECT_TRUE(AllClose(ops::Relu(x), Tensor({3}, {0, 0, 1})));
  Tensor t = ops::Tanh(x);
  EXPECT_NEAR(t[0], std::tanh(-1.0f), 1e-6);
  Tensor s = ops::Sigmoid(x);
  EXPECT_NEAR(s[1], 0.5f, 1e-6);
  Tensor e = ops::Exp(Tensor({1}, {0}));
  EXPECT_NEAR(e[0], 1.0f, 1e-6);
}

TEST(TensorOpsTest, GeluValues) {
  // Tanh-approximated GELU against a double evaluation of the same formula,
  // and its derivative against the double derivative. For x << 0 both
  // cancel in 1 + tanh (and 1 - tanh^2), so TanhApprox's 5 ulp near -1
  // (3e-7 absolute) comes out scaled by |x| and, for the derivative, by
  // |x| * dinner as well.
  constexpr int64_t kN = 4001;
  Tensor x({kN});
  for (int64_t i = 0; i < kN; ++i) x[i] = -10.0f + 20.0f * i / (kN - 1);
  Tensor dy = Tensor::Ones({kN});
  Tensor y = ops::Gelu(x);
  Tensor dx = ops::GeluGrad(dy, x);
  const double c = std::sqrt(2.0 / std::numbers::pi);
  for (int64_t i = 0; i < kN; ++i) {
    const double v = x[i];
    const double t = std::tanh(c * (v + 0.044715 * v * v * v));
    const double ref = 0.5 * v * (1.0 + t);
    const double dinner = c * (1.0 + 3 * 0.044715 * v * v);
    const double dref = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * dinner;
    const double tol = 2.5e-7 * std::max(1.0, std::abs(v));
    EXPECT_NEAR(y[i], ref, tol) << "x=" << v;
    EXPECT_NEAR(dx[i], dref, tol * (1.0 + 2.0 * dinner)) << "x=" << v;
  }
}

// ---- Kernel math helpers ---------------------------------------------------

/// Distance in representable floats between `a` and the float nearest to
/// `ref` (0 = correctly rounded).
int64_t UlpDistance(float a, double ref) {
  auto key = [](float f) {
    const int32_t b = std::bit_cast<int32_t>(f);
    return b < 0 ? -static_cast<int64_t>(b & 0x7fffffff)
                 : static_cast<int64_t>(b);
  };
  return std::abs(key(a) - key(static_cast<float>(ref)));
}

TEST(KernelMathTest, ExpApproxWithinOneUlp) {
  constexpr int64_t kN = 1 << 22;
  int64_t worst = 0;
  float worst_x = 0.0f;
  for (int64_t i = 0; i <= kN; ++i) {
    const float x = static_cast<float>(-87.0 + 175.0 * i / kN);
    const int64_t d = UlpDistance(ops::ExpApprox(x), std::exp(double{x}));
    if (d > worst) {
      worst = d;
      worst_x = x;
    }
  }
  EXPECT_LE(worst, 1) << "at x=" << worst_x;
  EXPECT_EQ(ops::ExpApprox(0.0f), 1.0f);
}

TEST(KernelMathTest, TanhApproxWithinFiveUlp) {
  constexpr int64_t kN = 1 << 22;
  int64_t worst = 0;
  float worst_x = 0.0f;
  auto check = [&](float x) {
    const int64_t d = UlpDistance(ops::TanhApprox(x), std::tanh(double{x}));
    if (d > worst) {
      worst = d;
      worst_x = x;
    }
  };
  for (int64_t i = 0; i <= kN; ++i) {
    check(static_cast<float>(-20.0 + 40.0 * i / kN));
    // Log-spaced magnitudes down to 1e-30, where tanh x rounds to x.
    const float m = static_cast<float>(std::exp(-69.0 + 72.0 * i / kN));
    check(m);
    check(-m);
  }
#if defined(__FMA__) || defined(__ARM_FEATURE_FMA)
  EXPECT_LE(worst, 5) << "at x=" << worst_x;
#else
  EXPECT_LE(worst, 7) << "at x=" << worst_x;
#endif
}

TEST(KernelMathTest, EdgeCases) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(std::isnan(ops::ExpApprox(nan)));
  EXPECT_TRUE(std::isnan(ops::TanhApprox(nan)));
  EXPECT_TRUE(std::isnan(ops::GeluScalar(nan)));
  EXPECT_EQ(ops::TanhApprox(kInf), 1.0f);
  EXPECT_EQ(ops::TanhApprox(-kInf), -1.0f);
  EXPECT_EQ(ops::TanhApprox(9.0f), 1.0f);
  EXPECT_EQ(ops::TanhApprox(-20.0f), -1.0f);
  EXPECT_EQ(ops::TanhApprox(0.0f), 0.0f);
  EXPECT_TRUE(std::signbit(ops::TanhApprox(-0.0f)));
  EXPECT_EQ(ops::ExpApprox(-kInf), 0.0f);
  for (float x : {-87.35f, -88.0f, -104.0f, -1e30f}) {
    EXPECT_EQ(ops::ExpApprox(x), 0.0f) << "x=" << x;
  }
  // Just above the flush threshold the result is a normal float.
  EXPECT_GE(ops::ExpApprox(-87.336f), std::numeric_limits<float>::min());
  // The largest input whose exp is finite stays finite (2^n = 2^128 is
  // assembled from two factors); the next float up overflows.
  const float hi = 88.72283172607421875f;
  EXPECT_TRUE(std::isfinite(ops::ExpApprox(hi)));
  EXPECT_LE(UlpDistance(ops::ExpApprox(hi), std::exp(double{hi})), 1);
  EXPECT_EQ(ops::ExpApprox(std::nextafter(hi, kInf)), kInf);
  for (float x : {89.0f, 100.0f, 1e30f, kInf}) {
    EXPECT_EQ(ops::ExpApprox(x), kInf) << "x=" << x;
  }
  EXPECT_EQ(ops::GeluScalar(kInf), kInf);
  EXPECT_EQ(ops::GeluScalar(-100.0f), 0.0f);
  EXPECT_EQ(ops::GeluScalar(-kInf), 0.0f);
}

TEST(KernelMathTest, TensorOpsMatchScalarHelpersBitwise) {
  // The vectorized loops in ops::Tanh/Gelu/GeluGrad/Softmax round exactly
  // like a scalar call of the helper (explicit MulAdd everywhere).
  Rng rng(21);
  Tensor x = Tensor::Randn({333, 65}, &rng, 4.0f);
  Tensor dy = Tensor::Ones(x.shape());
  Tensor th = ops::Tanh(x);
  Tensor gelu = ops::Gelu(x);
  Tensor grad = ops::GeluGrad(dy, x);
  Tensor soft = ops::Softmax(x);
  for (int64_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(th[i], ops::TanhApprox(x[i])) << i;
    ASSERT_EQ(gelu[i], ops::GeluScalar(x[i])) << i;
    ASSERT_EQ(grad[i], ops::GeluGradScalar(x[i])) << i;
  }
  const int64_t n = x.dim(1);
  for (int64_t r = 0; r < x.dim(0); ++r) {
    float mx = x[r * n];
    for (int64_t j = 1; j < n; ++j) mx = std::max(mx, x[r * n + j]);
    float denom = 0.0f;
    for (int64_t j = 0; j < n; ++j) denom += ops::ExpApprox(x[r * n + j] - mx);
    for (int64_t j = 0; j < n; ++j) {
      ASSERT_EQ(soft[r * n + j],
                ops::ExpApprox(x[r * n + j] - mx) * (1.0f / denom))
          << r << "," << j;
    }
  }
}

// ---- MatMul ----------------------------------------------------------------

TEST(MatMulTest, Basic2D) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = ops::MatMul(a, b);
  EXPECT_TRUE(AllClose(c, Tensor({2, 2}, {58, 64, 139, 154})));
}

TEST(MatMulTest, TransposeFlagsAgree) {
  Rng rng(5);
  Tensor a = Tensor::Randn({4, 6}, &rng);
  Tensor b = Tensor::Randn({6, 5}, &rng);
  Tensor ref = ops::MatMul(a, b);
  Tensor at = ops::TransposeLast2(a);  // [6, 4]
  Tensor bt = ops::TransposeLast2(b);  // [5, 6]
  EXPECT_TRUE(AllClose(ops::MatMul(at, b, true, false), ref, 1e-4f));
  EXPECT_TRUE(AllClose(ops::MatMul(a, bt, false, true), ref, 1e-4f));
  EXPECT_TRUE(AllClose(ops::MatMul(at, bt, true, true), ref, 1e-4f));
}

TEST(MatMulTest, BatchedMatchesPerSlice) {
  Rng rng(6);
  Tensor a = Tensor::Randn({3, 2, 4}, &rng);
  Tensor b = Tensor::Randn({3, 4, 5}, &rng);
  Tensor c = ops::MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{3, 2, 5}));
  for (int64_t i = 0; i < 3; ++i) {
    Tensor as({2, 4});
    Tensor bs({4, 5});
    std::copy(a.data() + i * 8, a.data() + (i + 1) * 8, as.data());
    std::copy(b.data() + i * 20, b.data() + (i + 1) * 20, bs.data());
    Tensor cs = ops::MatMul(as, bs);
    for (int64_t j = 0; j < 10; ++j) {
      EXPECT_NEAR(c[i * 10 + j], cs[j], 1e-5);
    }
  }
}

TEST(MatMulTest, BroadcastRank2Rhs) {
  Rng rng(7);
  Tensor a = Tensor::Randn({2, 3, 4}, &rng);
  Tensor w = Tensor::Randn({4, 6}, &rng);
  Tensor c = ops::MatMul(a, w);
  EXPECT_EQ(c.shape(), (Shape{2, 3, 6}));
  // Compare against flattening the batch.
  Tensor flat = a.Reshape({6, 4});
  Tensor ref = ops::MatMul(flat, w);
  EXPECT_TRUE(AllClose(c.Reshape({6, 6}), ref, 1e-5f));
}

TEST(MatMulTest, LargeSingleMatrixParallelPathMatchesSmall) {
  Rng rng(8);
  Tensor a = Tensor::Randn({130, 17}, &rng);
  Tensor b = Tensor::Randn({17, 19}, &rng);
  Tensor c = ops::MatMul(a, b);  // goes through the blocked parallel path
  // Reference: row-by-row dot products.
  for (int64_t i = 0; i < 130; i += 37) {
    for (int64_t j = 0; j < 19; j += 7) {
      float acc = 0;
      for (int64_t k = 0; k < 17; ++k) acc += a[i * 17 + k] * b[k * 19 + j];
      EXPECT_NEAR(c[i * 19 + j], acc, 1e-4);
    }
  }
}

// Golden tests: the blocked GEMM must agree with the naive triple-loop
// reference *bitwise*. Both accumulate each output in ascending-k order, so
// the match must be exact for every trans flag combination, odd/prime
// sizes that exercise the tile-edge kernels, and any thread count (the
// global pool is forced to 4 workers above).

void ExpectBitIdentical(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                           static_cast<size_t>(got.size()) * sizeof(float)));
}

TEST(MatMulGoldenTest, BlockedMatchesNaiveAllTransCombos) {
  Rng rng(42);
  // (m, k, n) triples: tiny, prime, tile-edge-straddling, and block-sized.
  const int64_t sizes[][3] = {{1, 1, 1},   {2, 3, 1},    {7, 13, 17},
                              {31, 61, 29}, {67, 129, 65}, {64, 256, 128},
                              {70, 257, 130}};
  for (const auto& s : sizes) {
    const int64_t m = s[0], k = s[1], n = s[2];
    for (const bool trans_a : {false, true}) {
      for (const bool trans_b : {false, true}) {
        Tensor a = trans_a ? Tensor::Randn({k, m}, &rng)
                           : Tensor::Randn({m, k}, &rng);
        Tensor b = trans_b ? Tensor::Randn({n, k}, &rng)
                           : Tensor::Randn({k, n}, &rng);
        SCOPED_TRACE(testing::Message()
                     << "m=" << m << " k=" << k << " n=" << n
                     << " trans_a=" << trans_a << " trans_b=" << trans_b);
        ExpectBitIdentical(ops::MatMul(a, b, trans_a, trans_b),
                           ops::MatMulNaive(a, b, trans_a, trans_b));
      }
    }
  }
}

TEST(MatMulGoldenTest, BatchedMatchesNaive) {
  Rng rng(43);
  Tensor a = Tensor::Randn({5, 23, 31}, &rng);
  Tensor b = Tensor::Randn({5, 31, 19}, &rng);
  ExpectBitIdentical(ops::MatMul(a, b), ops::MatMulNaive(a, b));
  Tensor bt = Tensor::Randn({5, 19, 31}, &rng);
  ExpectBitIdentical(ops::MatMul(a, bt, false, true),
                     ops::MatMulNaive(a, bt, false, true));
}

TEST(MatMulGoldenTest, BroadcastMatchesNaive) {
  Rng rng(44);
  // Rank-2 rhs broadcast across lhs batch, and the reverse.
  Tensor a = Tensor::Randn({4, 3, 37, 41}, &rng);
  Tensor w = Tensor::Randn({41, 13}, &rng);
  ExpectBitIdentical(ops::MatMul(a, w), ops::MatMulNaive(a, w));
  Tensor lhs = Tensor::Randn({9, 41}, &rng);
  Tensor rhs = Tensor::Randn({6, 41, 11}, &rng);
  ExpectBitIdentical(ops::MatMul(lhs, rhs), ops::MatMulNaive(lhs, rhs));
}

// ---- Permute / reshape ------------------------------------------------------

TEST(PermuteTest, TransposeLast2) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = ops::TransposeLast2(a);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_TRUE(AllClose(t, Tensor({3, 2}, {1, 4, 2, 5, 3, 6})));
}

TEST(PermuteTest, HeadSplitRoundTrip) {
  // [B, T, nh, dh] -> [B, nh, T, dh] -> back.
  Rng rng(9);
  Tensor x = Tensor::Randn({2, 5, 3, 4}, &rng);
  Tensor p = ops::Permute(x, {0, 2, 1, 3});
  EXPECT_EQ(p.shape(), (Shape{2, 3, 5, 4}));
  Tensor back = ops::Permute(p, {0, 2, 1, 3});
  EXPECT_TRUE(AllClose(back, x));
}

TEST(PermuteTest, ExplicitSmallCase) {
  Tensor x({2, 2, 2}, {0, 1, 2, 3, 4, 5, 6, 7});
  Tensor p = ops::Permute(x, {2, 0, 1});
  // p[i,j,k] = x[j,k,i].
  EXPECT_EQ(p.At({0, 1, 1}), x.At({1, 1, 0}));
  EXPECT_EQ(p.At({1, 0, 1}), x.At({0, 1, 1}));
}

// ---- Reductions -------------------------------------------------------------

TEST(ReductionTest, SumMeanAll) {
  Tensor x({2, 2}, {1, 2, 3, 4});
  EXPECT_NEAR(ops::SumAll(x)[0], 10.0f, 1e-6);
  EXPECT_NEAR(ops::MeanAll(x)[0], 2.5f, 1e-6);
}

TEST(ReductionTest, SumLastAxis) {
  Tensor x({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor s = ops::SumLastAxis(x);
  EXPECT_TRUE(AllClose(s, Tensor({2}, {6, 15})));
}

TEST(ReductionTest, ArgMaxLastAxis) {
  Tensor x({2, 3}, {0.1f, 0.9f, 0.3f, 5, 4, 6});
  auto idx = ops::ArgMaxLastAxis(x);
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 2);
}

// ---- Softmax family ----------------------------------------------------------

TEST(SoftmaxTest, RowsSumToOne) {
  Rng rng(10);
  Tensor x = Tensor::Randn({4, 7}, &rng, 3.0f);
  Tensor y = ops::Softmax(x);
  for (int64_t r = 0; r < 4; ++r) {
    float sum = 0;
    for (int64_t j = 0; j < 7; ++j) {
      float v = y[r * 7 + j];
      EXPECT_GT(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

TEST(SoftmaxTest, NumericallyStableForLargeInputs) {
  Tensor x({1, 3}, {1000.0f, 1000.0f, 1000.0f});
  Tensor y = ops::Softmax(x);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(y[i], 1.0f / 3, 1e-6);
}

TEST(SoftmaxTest, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(11);
  Tensor x = Tensor::Randn({3, 5}, &rng);
  Tensor a = ops::LogSoftmax(x);
  Tensor b = ops::Log(ops::Softmax(x));
  EXPECT_TRUE(AllClose(a, b, 1e-5f));
}

TEST(SoftmaxTest, MaskedAddExactShape) {
  Tensor x({1, 1, 1, 3}, {1, 2, 3});
  Tensor mask({1, 1, 1, 3}, {0, 1, 0});
  Tensor y = ops::MaskedAdd(x, mask, -100.0f);
  EXPECT_EQ(y[1], -98.0f);
  EXPECT_EQ(y[0], 1.0f);
}

TEST(SoftmaxTest, MaskedAddBroadcast) {
  // x: [2, 2, 2, 3], mask: [2, 1, 1, 3].
  Tensor x = Tensor::Zeros({2, 2, 2, 3});
  Tensor mask({2, 1, 1, 3}, {0, 0, 1, 1, 0, 0});
  Tensor y = ops::MaskedAdd(x, mask, -9.0f);
  // Batch 0 masks position 2 everywhere.
  EXPECT_EQ(y.At({0, 0, 0, 2}), -9.0f);
  EXPECT_EQ(y.At({0, 1, 1, 2}), -9.0f);
  EXPECT_EQ(y.At({0, 0, 0, 0}), 0.0f);
  // Batch 1 masks position 0 everywhere.
  EXPECT_EQ(y.At({1, 1, 0, 0}), -9.0f);
  EXPECT_EQ(y.At({1, 0, 1, 1}), 0.0f);
}

// ---- Gather / scatter ---------------------------------------------------------

TEST(GatherTest, GatherRows) {
  Tensor table({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor out = ops::GatherRows(table, {2, 0, 2});
  EXPECT_TRUE(AllClose(out, Tensor({3, 2}, {5, 6, 1, 2, 5, 6})));
}

TEST(GatherTest, ScatterAddAccumulatesDuplicates) {
  Tensor grad({3, 2}, {1, 1, 2, 2, 4, 4});
  Tensor table_grad = Tensor::Zeros({3, 2});
  ops::ScatterAddRows(grad, {2, 0, 2}, &table_grad);
  EXPECT_TRUE(AllClose(table_grad, Tensor({3, 2}, {2, 2, 0, 0, 5, 5})));
}

TEST(GatherTest, SelectAndAddTimeStep) {
  Tensor x({2, 3, 2}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  Tensor s = ops::SelectTimeStep(x, 1);
  EXPECT_TRUE(AllClose(s, Tensor({2, 2}, {2, 3, 8, 9})));
  Tensor grad = Tensor::Zeros({2, 3, 2});
  ops::AddToTimeStep(s, 2, &grad);
  EXPECT_EQ(grad.At({0, 2, 0}), 2.0f);
  EXPECT_EQ(grad.At({1, 2, 1}), 9.0f);
  EXPECT_EQ(grad.At({0, 0, 0}), 0.0f);
}

// ---- Concat / split --------------------------------------------------------

TEST(ConcatTest, LastAxis) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 1}, {9, 8});
  Tensor c = ops::Concat({a, b}, 1);
  EXPECT_TRUE(AllClose(c, Tensor({2, 3}, {1, 2, 9, 3, 4, 8})));
}

TEST(ConcatTest, FirstAxis) {
  Tensor a({1, 2}, {1, 2});
  Tensor b({2, 2}, {3, 4, 5, 6});
  Tensor c = ops::Concat({a, b}, 0);
  EXPECT_TRUE(AllClose(c, Tensor({3, 2}, {1, 2, 3, 4, 5, 6})));
}

TEST(ConcatTest, SplitInvertsConcat) {
  Rng rng(12);
  Tensor a = Tensor::Randn({2, 3, 4}, &rng);
  Tensor b = Tensor::Randn({2, 2, 4}, &rng);
  Tensor c = ops::Concat({a, b}, 1);
  auto parts = ops::SplitAxis(c, 1, {3, 2});
  EXPECT_TRUE(AllClose(parts[0], a));
  EXPECT_TRUE(AllClose(parts[1], b));
}

// ---- LayerNorm -----------------------------------------------------------

TEST(LayerNormTest, NormalizesRows) {
  Rng rng(13);
  Tensor x = Tensor::Randn({4, 8}, &rng, 5.0f);
  Tensor gamma = Tensor::Ones({8});
  Tensor beta = Tensor::Zeros({8});
  Tensor mean, rstd;
  Tensor y = ops::LayerNormForward(x, gamma, beta, 1e-5f, &mean, &rstd);
  for (int64_t r = 0; r < 4; ++r) {
    float mu = 0, var = 0;
    for (int64_t j = 0; j < 8; ++j) mu += y[r * 8 + j];
    mu /= 8;
    for (int64_t j = 0; j < 8; ++j) {
      var += (y[r * 8 + j] - mu) * (y[r * 8 + j] - mu);
    }
    var /= 8;
    EXPECT_NEAR(mu, 0.0f, 1e-4);
    EXPECT_NEAR(var, 1.0f, 1e-2);
  }
}

TEST(LayerNormTest, AffineApplied) {
  Tensor x({1, 2}, {1, 3});
  Tensor gamma({2}, {2, 2});
  Tensor beta({2}, {10, 10});
  Tensor mean, rstd;
  Tensor y = ops::LayerNormForward(x, gamma, beta, 1e-5f, &mean, &rstd);
  // Normalized values are -1 and +1 (up to eps), so outputs ~ 8 and 12.
  EXPECT_NEAR(y[0], 8.0f, 1e-2);
  EXPECT_NEAR(y[1], 12.0f, 1e-2);
}

TEST(LayerNormTest, BackwardIsBitwiseRepeatable) {
  // dgamma/dbeta reduce across rows on the thread pool; repeated calls must
  // return the same bits whatever order the chunks finish in.
  Rng rng(14);
  Tensor x = Tensor::Randn({896, 64}, &rng);
  Tensor dy = Tensor::Randn({896, 64}, &rng);
  Tensor gamma = Tensor::Randn({64}, &rng);
  Tensor beta = Tensor::Zeros({64});
  Tensor mean, rstd;
  ops::LayerNormForward(x, gamma, beta, 1e-5f, &mean, &rstd);
  auto run = [&](Tensor* dg, Tensor* db) {
    *dg = Tensor::Zeros({64});
    *db = Tensor::Zeros({64});
    return ops::LayerNormBackward(dy, x, gamma, mean, rstd, dg, db);
  };
  Tensor dg0, db0;
  Tensor dx0 = run(&dg0, &db0);
  int mismatches = 0;
  for (int rep = 0; rep < 200; ++rep) {
    Tensor dg, db;
    Tensor dx = run(&dg, &db);
    if (std::memcmp(dg.data(), dg0.data(), 64 * sizeof(float)) != 0 ||
        std::memcmp(db.data(), db0.data(), 64 * sizeof(float)) != 0 ||
        std::memcmp(dx.data(), dx0.data(), dx.size() * sizeof(float)) != 0) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0);
  // And the reduction still equals the row sum it stands for.
  for (int64_t j = 0; j < 64; ++j) {
    double sum = 0.0;
    for (int64_t r = 0; r < 896; ++r) sum += dy[r * 64 + j];
    EXPECT_NEAR(db0[j], sum, 1e-3);
  }
}

// ---- AllClose helpers ------------------------------------------------------

TEST(AllCloseTest, DetectsDifference) {
  Tensor a({2}, {1, 2});
  Tensor b({2}, {1, 2.1f});
  EXPECT_FALSE(ops::AllClose(a, b, 1e-3f, 1e-3f));
  EXPECT_TRUE(ops::AllClose(a, b, 0.2f, 0.0f));
  EXPECT_NEAR(ops::MaxAbsDiff(a, b), 0.1f, 1e-6);
}

TEST(AllCloseTest, ShapeMismatchNotClose) {
  EXPECT_FALSE(ops::AllClose(Tensor({2}), Tensor({3})));
}

// ---- Memory accounting -----------------------------------------------------

TEST(TensorMemStatsTest, TracksLiveAndPeakBytes) {
  const int64_t base = GetTensorMemStats().live_bytes;
  ResetTensorMemPeak();
  {
    Tensor a({64, 64});  // 16 KiB
    EXPECT_EQ(GetTensorMemStats().live_bytes - base, 64 * 64 * 4);
    {
      Tensor b = a.Clone();  // +16 KiB
      EXPECT_EQ(GetTensorMemStats().live_bytes - base, 2 * 64 * 64 * 4);
    }
    // b released: live drops, peak remembers both.
    EXPECT_EQ(GetTensorMemStats().live_bytes - base, 64 * 64 * 4);
    EXPECT_GE(GetTensorMemStats().peak_bytes - base, 2 * 64 * 64 * 4);
  }
  EXPECT_EQ(GetTensorMemStats().live_bytes, base);
  ResetTensorMemPeak();
  EXPECT_EQ(GetTensorMemStats().peak_bytes, GetTensorMemStats().live_bytes);
}

TEST(TensorMemStatsTest, SharedViewsCountBufferOnce) {
  const int64_t base = GetTensorMemStats().live_bytes;
  Tensor a({8, 8});
  Tensor view = a.Reshape({64});  // shares the buffer
  Tensor copy = a;                // shares the buffer
  EXPECT_EQ(view.data(), a.data());
  EXPECT_EQ(copy.data(), a.data());
  EXPECT_EQ(GetTensorMemStats().live_bytes - base, 8 * 8 * 4);
}

}  // namespace
}  // namespace emx
