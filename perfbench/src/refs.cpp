#include "refs.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "kernels/color_convert.h"
#include "kernels/conv2d.h"
#include "kernels/fir.h"
#include "kernels/motion_est.h"
#include "ref/ref_color.h"
#include "ref/ref_conv2d.h"
#include "ref/ref_fir.h"
#include "ref/ref_sad.h"
#include "sim/memory.h"

namespace perfbench {

namespace sk = subword::kernels;
namespace sr = subword::ref;

const std::vector<std::string>& buffer_kernels() {
  static const std::vector<std::string> names = {
      "FIR12", "FIR22", "Color Convert", "2D Convolution",
      "Motion Estimation"};
  return names;
}

bool is_buffer_kernel(const std::string& kernel) {
  const auto& b = buffer_kernels();
  return std::find(b.begin(), b.end(), kernel) != b.end();
}

namespace {

std::vector<int16_t> lanes(std::span<const uint8_t> bytes) {
  std::vector<int16_t> v(bytes.size() / 2);
  std::memcpy(v.data(), bytes.data(), v.size() * 2);
  return v;
}

// The FIR coefficients as the kernel lays them out in its arena: groups of
// four taps, each group's lanes reversed, at kCoeffAddr.
std::vector<int16_t> fir_coeffs(int taps) {
  const sk::FirKernel k(taps);
  subword::sim::Memory mem(sk::kMemBytes);
  k.init_memory(mem);
  const size_t groups = static_cast<size_t>(taps + 3) / 4;
  const auto rev = mem.read_vector<int16_t>(sk::kCoeffAddr, groups * 4);
  std::vector<int16_t> c(static_cast<size_t>(taps));
  for (size_t i = 0; i < c.size(); ++i) c[i] = rev[(i / 4) * 4 + 3 - i % 4];
  return c;
}

}  // namespace

std::vector<uint8_t> random_input(const std::string& kernel, Rng& rng) {
  if (kernel == "FIR12" || kernel == "FIR22") {
    // Q15 samples, the amplitude of the kernel's own workload.
    return as_bytes(make_samples(rng, sk::FirKernel::kSamples, 12000));
  }
  if (kernel == "Color Convert") {
    return as_bytes(make_pixels(rng, 3 * sk::ColorConvertKernel::kPixels));
  }
  if (kernel == "2D Convolution") {
    return as_bytes(make_pixels(
        rng, static_cast<size_t>(sk::Conv2dKernel::kInW) *
                 sk::Conv2dKernel::kInH));
  }
  if (kernel == "Motion Estimation") {
    return make_bytes(rng, sk::MotionEstKernel::kBlockBytes);
  }
  throw std::invalid_argument("random_input: no buffer contract for " + kernel);
}

std::vector<uint8_t> synthetic_input(const sk::MediaKernel& k) {
  const sk::BufferSpec spec = k.buffer_spec();
  subword::sim::Memory mem(sk::kMemBytes);
  k.init_memory(mem);
  return mem.read_vector<uint8_t>(spec.input_addr, spec.input_bytes);
}

std::vector<uint8_t> reference_output(const std::string& kernel,
                                      std::span<const uint8_t> input) {
  if (kernel == "FIR12" || kernel == "FIR22") {
    static const std::vector<int16_t> c12 = fir_coeffs(12);
    static const std::vector<int16_t> c22 = fir_coeffs(22);
    return as_bytes(sr::fir(lanes(input), kernel == "FIR12" ? c12 : c22,
                            sk::FirKernel::kShift));
  }
  if (kernel == "Color Convert") {
    return as_bytes(sr::rgb_to_ycbcr(lanes(input)).y);
  }
  if (kernel == "2D Convolution") {
    using C = sk::Conv2dKernel;
    return as_bytes(sr::conv2d_3x3(lanes(input), C::kInW, C::kInH,
                                   C::coefficients(), C::kOutW, C::kShift));
  }
  if (kernel == "Motion Estimation") {
    using M = sk::MotionEstKernel;
    return as_bytes(sr::sad_blocks(input, M::candidate_blocks(),
                                   M::kBlockBytes, M::kCandidates));
  }
  throw std::invalid_argument("reference_output: no buffer contract for " +
                              kernel);
}

}  // namespace perfbench
