// Golden reference sanity tests: the references must themselves behave
// like the DSP operations they specify (impulse responses, Parseval-ish
// energy checks, involution properties) — otherwise kernel "verification"
// would be meaningless.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "ref/ref_dct.h"
#include "ref/ref_fft.h"
#include "ref/ref_fir.h"
#include "ref/ref_iir.h"
#include "ref/ref_mat.h"
#include "ref/ref_sad.h"
#include "ref/workload.h"

using namespace subword::ref;

TEST(Workload, RngIsDeterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  Rng c(43);
  EXPECT_NE(Rng(42).next(), c.next());
}

TEST(Workload, SampleAmplitudeBounded) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto s = rng.sample_q15(12000);
    EXPECT_LE(std::abs(static_cast<int>(s)), 12000);
  }
}

TEST(RefFir, ImpulseResponseIsCoefficients) {
  // x = [1<<15, 0, 0, ...] with shift 15 reproduces the taps.
  std::vector<int16_t> x(32, 0);
  x[0] = 32767;
  const std::vector<int16_t> c{100, -200, 300, -400};
  const auto y = fir(x, c, 15);
  // 32767/32768 scaling loses at most 1 LSB per tap magnitude step.
  for (size_t k = 0; k < c.size(); ++k) {
    EXPECT_NEAR(y[k], c[k], std::abs(c[k]) / 256 + 1) << k;
  }
  for (size_t k = c.size(); k < x.size(); ++k) EXPECT_EQ(y[k], 0);
}

TEST(RefFir, LinearityInInput) {
  const auto c = make_coeffs(12, 1);
  auto x1 = make_samples(64, 2, 4000);
  std::vector<int16_t> x2(64);
  for (size_t i = 0; i < 64; ++i) x2[i] = static_cast<int16_t>(2 * x1[i]);
  const auto y1 = fir(x1, c, 15);
  const auto y2 = fir(x2, c, 15);
  for (size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(y2[i], 2 * y1[i], 2) << i;  // rounding of >> only
  }
}

TEST(RefIir, ZeroFeedbackReducesToFir) {
  const auto x = make_samples(64, 3, 8000);
  const auto b = make_coeffs(5, 4);
  const std::vector<int16_t> a(5, 0);
  const auto y = iir(x, b, a, 14);
  // FIR with the same b and shift must agree exactly.
  const auto want = fir(x, b, 14);
  EXPECT_EQ(y, want);
}

TEST(RefIir, FeedbackDecays) {
  // Simple leaky integrator: y[n] = x[n] + (a1/2^14) y[n-1], a negative
  // a1 in our convention. Impulse input decays geometrically.
  std::vector<int16_t> x(32, 0);
  x[0] = 16384;
  const std::vector<int16_t> b{16384};           // unit gain at shift 14
  const std::vector<int16_t> a{-8192};           // y[n] += y[n-1]/2
  const auto y = iir(x, b, a, 14);
  EXPECT_EQ(y[0], 16384);
  EXPECT_NEAR(y[1], 8192, 1);
  EXPECT_NEAR(y[2], 4096, 1);
  EXPECT_GT(y[5], 0);
}

TEST(RefFft, DcInputConcentratesInBinZero) {
  const size_t n = 64;
  std::vector<int16_t> data(2 * n, 0);
  for (size_t i = 0; i < n; ++i) data[2 * i] = 6400;  // constant real
  const auto t = make_fft_tables(n);
  fft(data, t);
  // With >>1 per stage, bin0 = 6400 (sum/n), all other bins ~0.
  EXPECT_NEAR(data[0], 6400, 8);
  for (size_t k = 1; k < n; ++k) {
    EXPECT_NEAR(data[2 * k], 0, 8) << k;
    EXPECT_NEAR(data[2 * k + 1], 0, 8) << k;
  }
}

TEST(RefFft, SingleToneLandsInItsBin) {
  const size_t n = 128;
  constexpr double kPi = 3.14159265358979323846;
  std::vector<int16_t> data(2 * n, 0);
  const int bin = 5;
  for (size_t i = 0; i < n; ++i) {
    data[2 * i] = static_cast<int16_t>(
        std::lround(12000.0 * std::cos(2.0 * kPi * bin *
                                       static_cast<double>(i) / n)));
    data[2 * i + 1] = static_cast<int16_t>(
        std::lround(12000.0 * std::sin(2.0 * kPi * bin *
                                       static_cast<double>(i) / n)));
  }
  const auto t = make_fft_tables(n);
  fft(data, t);
  // Energy concentrates in `bin` (complex exponential -> one-sided).
  int16_t peak = 0;
  size_t peak_bin = 0;
  for (size_t k = 0; k < n; ++k) {
    const auto mag = static_cast<int16_t>(
        std::abs(data[2 * k]) + std::abs(data[2 * k + 1]));
    if (mag > peak) {
      peak = mag;
      peak_bin = k;
    }
  }
  EXPECT_EQ(peak_bin, static_cast<size_t>(bin));
  EXPECT_NEAR(data[2 * bin], 12000, 64);  // sum/n of the tone amplitude
}

TEST(RefFft, TablesAreWellFormed) {
  const auto t = make_fft_tables(256);
  EXPECT_EQ(t.n, 256u);
  EXPECT_EQ(t.bitrev.size(), 256u);
  // Entries for stages 2..8: 2+4+...+128 = 254 pairs.
  EXPECT_EQ(t.tw_re.size(), 2u * 254u);
  EXPECT_EQ(t.tw_im.size(), 2u * 254u);
  // Bit reversal is an involution.
  for (size_t i = 0; i < 256; ++i) {
    EXPECT_EQ(
        t.bitrev[static_cast<size_t>(t.bitrev[i])],
        static_cast<int32_t>(i));
  }
  // First twiddle of every stage is W^0 = (1, 0).
  EXPECT_EQ(t.tw_re[0], 32767);
  EXPECT_EQ(t.tw_re[1], 0);
  EXPECT_EQ(t.tw_im[0], 0);
  EXPECT_EQ(t.tw_im[1], 32767);
}

TEST(RefDct, ConstantBlockConcentratesInDc) {
  Block8x8 in{};
  in.fill(1000);
  const auto basis = make_dct_basis();
  const auto out = dct2d(in, basis);
  EXPECT_GT(out[0], 5000);  // DC gain 8 * s0^2 = 8 * 1/8 => ~in * 8 scale
  for (int i = 1; i < 64; ++i) {
    EXPECT_NEAR(out[static_cast<size_t>(i)], 0, 24) << i;
  }
}

TEST(RefDct, TransposeIsInvolution) {
  Rng rng(9);
  Block8x8 in{};
  for (auto& v : in) v = static_cast<int16_t>(rng.range(-2000, 2000));
  EXPECT_EQ(transpose8(transpose8(in)), in);
}

TEST(RefMat, IdentityMultiply) {
  const size_t n = 16;
  std::vector<int16_t> ident(n * n, 0);
  // shift 8 => diagonal of 256 acts as identity.
  for (size_t i = 0; i < n; ++i) ident[i * n + i] = 256;
  const auto a = make_matrix(n, n, 11);
  const auto c = matmul(a, ident, n, 8);
  EXPECT_EQ(c, a);
}

TEST(RefMat, TransposeRoundTrip) {
  const auto m = make_matrix(16, 16, 12);
  const auto t = transpose(m, 16, 16);
  EXPECT_EQ(transpose(t, 16, 16), m);
  EXPECT_EQ(t[3 * 16 + 7], m[7 * 16 + 3]);
}

TEST(RefSad, HandComputedBlocks) {
  const std::vector<uint8_t> cur = {10, 0, 255, 7};
  const std::vector<uint8_t> cands = {
      3, 5, 250, 7,    // 7 + 5 + 5 + 0
      10, 0, 255, 7,   // identical block
      0, 255, 0, 0,    // 10 + 255 + 255 + 7
  };
  EXPECT_EQ(sad_blocks(cur, cands, 4, 3), (std::vector<int16_t>{17, 0, 527}));
}

TEST(RefSad, SaturatesLikePaddusw) {
  // 256 * 255 = 65280 still fits; 258 * 255 = 65790 pins at 0xFFFF.
  for (const size_t n : {256u, 257u, 258u, 1000u}) {
    SCOPED_TRACE(n);
    const std::vector<uint8_t> cur(n, 255);
    const std::vector<uint8_t> cand(n, 0);
    const auto got = sad_blocks(cur, cand, n, 1);
    ASSERT_EQ(got.size(), 1u);
    const uint16_t want = n == 256 ? 65280 : 0xFFFF;
    EXPECT_EQ(static_cast<uint16_t>(got[0]), want);
    // Order of the operands does not matter.
    EXPECT_EQ(sad_blocks(cand, cur, n, 1), got);
  }
}

// The reference sums exactly and clamps once; a PADDUSW chain clamps
// after every add. Over random blocks, some past saturation, they agree.
TEST(RefSad, MatchesPerStepSaturatingSum) {
  Rng rng(0x5AD);
  int saturated = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const auto n = static_cast<size_t>(rng.range(1, 1200));
    const auto num_cands = static_cast<size_t>(rng.range(1, 5));
    std::vector<uint8_t> cur(n);
    std::vector<uint8_t> cands(n * num_cands);
    for (auto& v : cur) v = static_cast<uint8_t>(rng.range(0, 255));
    for (auto& v : cands) v = static_cast<uint8_t>(rng.range(0, 255));

    const auto got = sad_blocks(cur, cands, n, num_cands);
    ASSERT_EQ(got.size(), num_cands);
    for (size_t c = 0; c < num_cands; ++c) {
      uint32_t acc = 0;
      for (size_t i = 0; i < n; ++i) {
        acc += static_cast<uint32_t>(std::abs(
            static_cast<int>(cur[i]) - static_cast<int>(cands[c * n + i])));
        if (acc > 0xFFFFu) acc = 0xFFFFu;
      }
      if (acc == 0xFFFFu) ++saturated;
      EXPECT_EQ(static_cast<uint16_t>(got[c]), acc)
          << "trial " << trial << " candidate " << c << " n " << n;
    }
  }
  EXPECT_GT(saturated, 0) << "no trial reached saturation";
}
