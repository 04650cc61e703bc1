#include "ref/ref_color.h"

namespace subword::ref {

YCbCrPlanes rgb_to_ycbcr(std::span<const int16_t> rgb) {
  const size_t n = rgb.size() / 3;
  YCbCrPlanes out;
  out.y.resize(n);
  out.cb.resize(n);
  out.cr.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const YCbCr p = rgb_to_ycbcr(rgb[3 * i], rgb[3 * i + 1], rgb[3 * i + 2]);
    out.y[i] = p.y;
    out.cb[i] = p.cb;
    out.cr[i] = p.cr;
  }
  return out;
}

}  // namespace subword::ref
