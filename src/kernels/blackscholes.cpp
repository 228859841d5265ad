#include "kernels/blackscholes.hpp"

#include <algorithm>
#include <cmath>

#include "common/math.hpp"
#include "common/status.hpp"

namespace vgpu::kernels {

namespace {

// The lower tail cnd(-|d|). Every step is sign-symmetric in d (fabs, d*d,
// the exp argument), so cnd_tail(-d) == cnd_tail(d) bitwise.
float cnd_tail(float d) {
  // Abramowitz & Stegun 26.2.17, as used by the CUDA SDK sample.
  constexpr float a1 = 0.31938153f;
  constexpr float a2 = -0.356563782f;
  constexpr float a3 = 1.781477937f;
  constexpr float a4 = -1.821255978f;
  constexpr float a5 = 1.330274429f;
  constexpr float rsqrt2pi = 0.39894228040143267794f;

  const float k = 1.0f / (1.0f + 0.2316419f * std::fabs(d));
  return rsqrt2pi * std::exp(-0.5f * d * d) *
         (k * (a1 + k * (a2 + k * (a3 + k * (a4 + k * a5)))));
}

}  // namespace

float cnd(float d) {
  const float c = cnd_tail(d);
  return d > 0 ? 1.0f - c : c;
}

long black_scholes_blocks(long n_options) {
  return ceil_div(n_options, kBsBlock);
}

void black_scholes_blocks(const OptionBatch& batch, std::span<float> call,
                          std::span<float> put, long block_begin,
                          long block_end) {
  const auto n = static_cast<long>(batch.stock_price.size());
  const auto lo = static_cast<std::size_t>(std::min(n, block_begin * kBsBlock));
  const auto hi = static_cast<std::size_t>(std::min(n, block_end * kBsBlock));
  for (std::size_t i = lo; i < hi; ++i) {
    const float s = batch.stock_price[i];
    const float x = batch.strike_price[i];
    const float t = batch.years[i];
    const float sqrt_t = std::sqrt(t);
    const float d1 =
        (std::log(s / x) +
         (batch.riskfree + 0.5f * batch.volatility * batch.volatility) * t) /
        (batch.volatility * sqrt_t);
    const float d2 = d1 - batch.volatility * sqrt_t;
    const float exp_rt = std::exp(-batch.riskfree * t);
    // cnd(d) and cnd(-d) differ only in the final reflection: one tail
    // (one exp) per d serves both, bitwise equal to four cnd() calls.
    const float tail1 = cnd_tail(d1);
    const float tail2 = cnd_tail(d2);
    const float cnd_d1 = d1 > 0 ? 1.0f - tail1 : tail1;
    const float cnd_d2 = d2 > 0 ? 1.0f - tail2 : tail2;
    const float cnd_neg_d1 = d1 < 0 ? 1.0f - tail1 : tail1;
    const float cnd_neg_d2 = d2 < 0 ? 1.0f - tail2 : tail2;
    call[i] = s * cnd_d1 - x * exp_rt * cnd_d2;
    put[i] = x * exp_rt * cnd_neg_d2 - s * cnd_neg_d1;
  }
}

void black_scholes(const OptionBatch& batch, std::span<float> call,
                   std::span<float> put, const ParallelFor& pf) {
  const std::size_t n = batch.stock_price.size();
  VGPU_ASSERT(batch.strike_price.size() == n && batch.years.size() == n);
  VGPU_ASSERT(call.size() == n && put.size() == n);
  pf(black_scholes_blocks(static_cast<long>(n)), [&](long begin, long end) {
    black_scholes_blocks(batch, call, put, begin, end);
  });
}

gpu::KernelLaunch black_scholes_launch(long n_options) {
  gpu::KernelLaunch l;
  l.name = "black_scholes";
  // The SDK kernel uses a fixed 480-block grid-stride loop (paper Table IV).
  l.geometry = gpu::KernelGeometry{480, 128, /*regs*/ 20, /*shmem*/ 0};
  const double opts_per_thread =
      static_cast<double>(n_options) / (480.0 * 128.0);
  // ~55 flops per option (exp/log/sqrt expanded), 5 floats in + 2 out.
  l.cost = gpu::KernelCost{55.0 * opts_per_thread, 28.0 * opts_per_thread,
                           /*efficiency*/ 0.5};
  return l;
}

}  // namespace vgpu::kernels
