#ifndef EMX_TENSOR_KERNEL_MATH_H_
#define EMX_TENSOR_KERNEL_MATH_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace emx {
namespace ops {

/// One rounding behaviour for every accumulation kernel. The default
/// -ffp-contract=fast lets the compiler contract a*b+c into FMA in some
/// loop shapes and split it into mul-then-add in others, which would break
/// the bitwise guarantees between the blocked GEMM, the naive reference and
/// the fused attention kernel; an explicit fused (or explicitly unfused)
/// multiply-add pins the rounding down once for all of them.
inline float MulAdd(float a, float b, float c) {
#if defined(__FMA__) || defined(__ARM_FEATURE_FMA)
  return std::fma(a, b, c);
#else
  return c + a * b;
#endif
}

// The transcendental helpers below are branch-free (selects, min/max and
// bit casts only), so a loop calling them vectorizes; libm's tanhf/expf
// are opaque calls that keep every caller scalar. Every multiply feeding an
// add goes through MulAdd, so a scalar call and a vectorized loop round
// identically and the int8 activation LUT matches the fp32 ops bit for bit.
// Error bounds and edge cases are pinned by tensor_test (KernelMathTest).

/// tanh(x) within 5 ulp on [-20, 20] (7 ulp where MulAdd is not fused):
/// the 13/6 odd/even rational approximation on (-c, c) (Eigen's fast tanh
/// coefficients, c = 7.9988) and exactly +-1 beyond, +-inf included; true
/// tanh is within 4 ulp of +-1 there. |x| < 4e-4 returns x (tanh x = x there to
/// float precision). NaN propagates.
inline float TanhApprox(float x) {
  constexpr float kClamp = 7.99881172180175781f;
  const float x2 = x * x;
  float p = MulAdd(x2, -2.76076847742355e-16f, 2.00018790482477e-13f);
  p = MulAdd(x2, p, -8.60467152213735e-11f);
  p = MulAdd(x2, p, 5.12229709037114e-08f);
  p = MulAdd(x2, p, 1.48572235717979e-05f);
  p = MulAdd(x2, p, 6.37261928875436e-04f);
  p = MulAdd(x2, p, 4.89352455891786e-03f);
  float q = MulAdd(x2, 1.19825839466702e-06f, 1.18534705686654e-04f);
  q = MulAdd(x2, q, 2.26843463243900e-03f);
  q = MulAdd(x2, q, 4.89352518554385e-03f);
  const float r = (p * x) / q;  // NaN or inf/inf only where unselected
  const float ax = std::abs(x);
  return ax < 4e-4f ? x : (ax >= kClamp ? std::copysign(1.0f, x) : r);
}

/// exp(x) within 1 ulp of the correctly rounded result on [-87, 88]:
/// Cephes range reduction x = n ln2 + r (|r| <= ln2/2, ln2 split in two
/// parts), exp(r) = 1 + r + r^2 P(r) with Cephes' six-coefficient P, and
/// 2^n assembled from exponent bits. Results below FLT_MIN flush to 0
/// (x < -87.3365, -inf included); x beyond ln(FLT_MAX) returns +inf; NaN
/// propagates.
inline float ExpApprox(float x) {
  constexpr float kHi = 88.72283172607421875f;  // largest x with finite exp
  constexpr float kLo = -87.33654022216797f;    // ~ln(FLT_MIN)
  // std::max(kLo, NaN) returns kLo, so NaN never reaches the float -> int
  // conversion (which would be undefined); it is restored at the end.
  const float xc = std::min(kHi, std::max(kLo, x));
  const float n = std::nearbyint(xc * 1.44269504088896341f);  // [-126, 128]
  float r = MulAdd(n, -0.693359375f, xc);
  r = MulAdd(n, 2.12194440e-4f, r);
  float y = MulAdd(1.9875691500e-4f, r, 1.3981999507e-3f);
  y = MulAdd(y, r, 8.3334519073e-3f);
  y = MulAdd(y, r, 4.1665795894e-2f);
  y = MulAdd(y, r, 1.6666665459e-1f);
  y = MulAdd(y, r, 5.0000001201e-1f);
  y = MulAdd(y, r * r, r + 1.0f);
  // 2^n as two normal factors 2^(n/2) * 2^(n - n/2): n = 128 (exp near
  // FLT_MAX) has no single-float power of two, n = -126 needs no denormal.
  const int32_t e = static_cast<int32_t>(n);
  const int32_t e1 = e >> 1;
  const float s1 = std::bit_cast<float>((e1 + 127) << 23);
  const float s2 = std::bit_cast<float>((e - e1 + 127) << 23);
  float out = y * s1 * s2;
  out = x < kLo ? 0.0f : out;
  out = x > kHi ? std::numeric_limits<float>::infinity() : out;
  return x != x ? x : out;
}

/// sqrt(2/pi): the tanh-approximated GELU's inner scale.
constexpr float kGeluC = 0.7978845608028654f;

/// tanh-approximated GELU: 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))).
/// The one definition shared by ops::Gelu and the int8 FFN's activation LUT.
/// -inf maps to 0 like every large negative input; the formula alone gives
/// -inf * -1 + -inf = NaN there, so it is selected out (branch-free).
inline float GeluScalar(float x) {
  const float t = TanhApprox(kGeluC * MulAdd(0.044715f * x * x, x, x));
  const float half_x = 0.5f * x;
  const float y = MulAdd(half_x, t, half_x);
  return x == -std::numeric_limits<float>::infinity() ? 0.0f : y;
}

/// d GeluScalar / dx.
inline float GeluGradScalar(float x) {
  const float t = TanhApprox(kGeluC * MulAdd(0.044715f * x * x, x, x));
  const float dinner = kGeluC * MulAdd(3.0f * 0.044715f * x, x, 1.0f);
  const float sech2 = MulAdd(-t, t, 1.0f);
  return MulAdd(0.5f * x * sech2, dinner, MulAdd(0.5f, t, 0.5f));
}

}  // namespace ops
}  // namespace emx

#endif  // EMX_TENSOR_KERNEL_MATH_H_
