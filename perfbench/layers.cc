// Per-layer probes shared by every traced run. Each probe times one public
// entry point of a layer on fixed inputs and reports the median per call,
// so a change to that layer shows here even when the end-to-end number it
// feeds is noisy.

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "core/entity_matcher.h"
#include "harness.h"
#include "nn/layers.h"
#include "quant/int8_gemm.h"
#include "quant/quantize_matcher.h"
#include "tensor/fused_attention.h"
#include "tensor/tensor_ops.h"

namespace perfbench {
namespace {

/// Median µs per call of `fn`, repeated for about `budget_s` (at least 5
/// calls) after one warm-up call.
double MedianUs(const std::function<void()>& fn, double budget_s = 0.25) {
  fn();
  std::vector<double> us;
  const auto start = Clock::now();
  while (us.size() < 5 || SecondsSince(start) < budget_s) {
    const auto t0 = Clock::now();
    fn();
    us.push_back(1e6 * SecondsSince(t0));
    if (us.size() >= 100000) break;
  }
  return Pct(us, 0.5);
}

std::unique_ptr<emx::core::EntityMatcher> MakeMatcher(
    const emx::pretrain::ZooOptions& zoo, int64_t max_seq_len) {
  auto bundle =
      emx::pretrain::GetPretrained(emx::models::Architecture::kBert, zoo);
  if (!bundle.ok()) return nullptr;
  auto m = std::make_unique<emx::core::EntityMatcher>(std::move(bundle).value());
  m->set_eval_max_seq_len(max_seq_len);
  return m;
}

}  // namespace

void RunLayerProbes(const emx::pretrain::ZooOptions& zoo,
                    const std::vector<std::string>& texts_a,
                    const std::vector<std::string>& texts_b,
                    int64_t max_seq_len, Results* out) {
  const size_t n = std::min(texts_a.size(), texts_b.size());
  auto fp32 = MakeMatcher(zoo, max_seq_len);
  auto int8 = MakeMatcher(zoo, max_seq_len);
  if (!fp32 || !int8 || n < 16) {
    out->Check(false, "layer probes: matcher or inputs unavailable");
    return;
  }
  emx::quant::CalibrationData calib;
  calib.texts_a.assign(texts_a.begin(), texts_a.begin() + 16);
  calib.texts_b.assign(texts_b.begin(), texts_b.begin() + 16);
  out->Check(emx::quant::QuantizeMatcher(int8.get(), calib).ok(),
             "layer probes: int8 calibration");

  // ---- tokenizers: one EncodePair per pair over the workload's pairs ----
  size_t next = 0;
  out->Set("tokenizers.encode_us_per_pair", MedianUs([&] {
             const size_t i = next++ % n;
             (void)fp32->tokenizer().EncodePair(texts_a[i], texts_b[i],
                                                max_seq_len);
           }),
           "us");

  // ---- models: grad-free MatchProbabilities on fixed batches -----------
  auto batch = [&](size_t b, size_t offset) {
    std::pair<std::vector<std::string>, std::vector<std::string>> p;
    for (size_t i = 0; i < b; ++i) {
      p.first.push_back(texts_a[(offset + i) % n]);
      p.second.push_back(texts_b[(offset + i) % n]);
    }
    return p;
  };
  const auto b1 = batch(1, 0);
  const auto b16 = batch(16, 0);
  out->Set("models.forward_us_per_pair.b1", MedianUs([&] {
             (void)fp32->MatchProbabilities(b1.first, b1.second);
           }),
           "us");
  out->Set("models.forward_us_per_pair.b16",
           MedianUs([&] {
             (void)fp32->MatchProbabilities(b16.first, b16.second);
           }) / 16,
           "us");
  out->Set("quant.forward_us_per_pair.b16",
           MedianUs([&] {
             emx::nn::QuantModeGuard guard(true);
             (void)int8->MatchProbabilities(b16.first, b16.second);
           }) / 16,
           "us");

  // ---- kernels at the model's own shapes --------------------------------
  // FFN up-projection of a 16-pair batch at the token cap:
  // [B*T, H] x [H, 4H] with B = 16, T = max_seq_len, H = 64.
  const int64_t B = 16, T = max_seq_len, H = 64, F = 4 * H, heads = 2;
  emx::Rng rng(7);
  const emx::Tensor x = emx::Tensor::Randn({B * T, H}, &rng, 0.5f);
  const emx::Tensor w = emx::Tensor::Randn({H, F}, &rng, 0.1f);
  const double mm_us = MedianUs([&] { (void)emx::ops::MatMul(x, w); });
  const double mm_flop = 2.0 * B * T * H * F;
  const double mm_bytes = 4.0 * (B * T * H + H * F + B * T * F);
  out->Set("tensor.matmul_us", mm_us, "us");
  out->Set("tensor.matmul_mflop", mm_flop / 1e6, "MFLOP");
  out->Set("tensor.matmul_mb", mm_bytes / 1e6, "MB");
  out->Set("tensor.matmul_gflop_per_s", mm_flop / mm_us / 1e3, "GFLOP/s");
  // Training adds dX = dY W^T and dW = X^T dY: three GEMMs of one size.
  const emx::Tensor dy = emx::Tensor::Randn({B * T, F}, &rng, 0.5f);
  out->Set("tensor.matmul_fwd_bwd_us", MedianUs([&] {
             (void)emx::ops::MatMul(x, w);
             (void)emx::ops::MatMul(dy, w, false, true);
             (void)emx::ops::MatMul(x, dy, true, false);
           }),
           "us");
  out->Set("tensor.matmul_fwd_bwd_mflop", 3 * mm_flop / 1e6, "MFLOP");
  out->Set("tensor.matmul_fwd_bwd_mb", 3 * mm_bytes / 1e6, "MB");

  const emx::Tensor q = emx::Tensor::Randn({B, T, H}, &rng, 0.5f);
  const emx::Tensor k = emx::Tensor::Randn({B, T, H}, &rng, 0.5f);
  const emx::Tensor v = emx::Tensor::Randn({B, T, H}, &rng, 0.5f);
  const emx::Tensor dout = emx::Tensor::Randn({B, T, H}, &rng, 0.5f);
  emx::ops::FusedAttentionConfig cfg;
  cfg.num_heads = heads;
  cfg.scale = 1.0f / std::sqrt(static_cast<float>(H / heads));
  const emx::Tensor no_mask;
  const double fa_us = MedianUs([&] {
    (void)emx::ops::FusedAttentionForward(q, k, v, no_mask, cfg, nullptr,
                                          nullptr);
  });
  const double fa_fb_us = MedianUs([&] {
    emx::Tensor row_max, row_sum;
    (void)emx::ops::FusedAttentionForward(q, k, v, no_mask, cfg, &row_max,
                                          &row_sum);
    emx::Tensor dq = emx::Tensor::Zeros(q.shape());
    emx::Tensor dk = emx::Tensor::Zeros(k.shape());
    emx::Tensor dv = emx::Tensor::Zeros(v.shape());
    emx::ops::FusedAttentionBackward(dout, q, k, v, no_mask, cfg, row_max,
                                     row_sum, &dq, &dk, &dv);
  });
  // Forward: QK^T and PV, 2 * T * T * dh multiply-adds each per (b, head).
  const double fa_flop = 4.0 * B * T * T * H;
  const double fa_bytes = 4.0 * 4 * B * T * H;  // q, k, v in, out
  out->Set("tensor.fused_attention_us", fa_us, "us");
  out->Set("tensor.fused_attention_mflop", fa_flop / 1e6, "MFLOP");
  out->Set("tensor.fused_attention_mb", fa_bytes / 1e6, "MB");
  out->Set("tensor.fused_attention_fwd_bwd_us", fa_fb_us, "us");
  // Backward recomputes the scores and adds dP, dS->dq, dk, dv: ~2.5x fwd.
  out->Set("tensor.fused_attention_fwd_bwd_mflop", 3.5 * fa_flop / 1e6,
           "MFLOP");
  out->Set("tensor.fused_attention_fwd_bwd_mb", 2.0 * fa_bytes / 1e6, "MB");

  emx::quant::QuantParams act;
  act.scale = 4.0f / 255.0f;
  act.zero_point = 128;
  const emx::Tensor bias = emx::Tensor::Zeros({F});
  const emx::quant::PackedWeights packed = emx::quant::PackWeights(w, bias, act);
  std::vector<float> y(static_cast<size_t>(B * T * F));
  const double i8_us = MedianUs(
      [&] { emx::quant::Int8LinearForward(x.data(), B * T, packed, y.data()); });
  out->Set("quant.int8_gemm_us", i8_us, "us");
  out->Set("quant.int8_gemm_gop_per_s", mm_flop / i8_us / 1e3, "GOP/s");
}

}  // namespace perfbench
