// ref_color.h — scalar golden RGB -> YCbCr color-space conversion.
//
// Semantics contract shared with the MMX kernel (kernels/color_convert.h),
// using the classic JPEG integer coefficients scaled by 256:
//   Y  = (77*R + 150*G +  29*B + 128) >> 8          (unsigned, rounded)
//   Cb = ((-43*R -  85*G + 128*B) >> 8) + 128       (signed, truncated)
//   Cr = ((128*R - 107*G -  21*B) >> 8) + 128       (signed, truncated)
// Inputs are 0..255 in 16-bit lanes; every product and partial sum fits a
// 16-bit lane (the kernel accumulates with wrapping PADDW and never wraps),
// and the chroma shift is arithmetic (PSRAW) while luma is logical (PSRLW).
// Chroma rounding is omitted because sum+128 could overflow the int16 lane
// at the negative extreme — the reference mirrors the kernel bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace subword::ref {

struct YCbCr {
  int16_t y;
  int16_t cb;
  int16_t cr;
};

// One pixel of the conversion.
[[nodiscard]] constexpr YCbCr rgb_to_ycbcr(int r, int g, int b) {
  // Luma: an unsigned 16-bit sum, rounded, logical shift.
  const int y = (77 * r + 150 * g + 29 * b + 128) >> 8;
  // Chroma: signed 16-bit sums, truncating arithmetic shift, +128 bias.
  const int cb = ((-43 * r - 85 * g + 128 * b) >> 8) + 128;
  const int cr = ((128 * r - 107 * g - 21 * b) >> 8) + 128;
  return {static_cast<int16_t>(y), static_cast<int16_t>(cb),
          static_cast<int16_t>(cr)};
}

struct YCbCrPlanes {
  std::vector<int16_t> y;
  std::vector<int16_t> cb;
  std::vector<int16_t> cr;
};

// `rgb` is pixel-interleaved (R0 G0 B0 R1 G1 B1 ...), 3*n entries for n
// pixels; returns three planar n-entry channels.
[[nodiscard]] YCbCrPlanes rgb_to_ycbcr(std::span<const int16_t> rgb);

}  // namespace subword::ref
