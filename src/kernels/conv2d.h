// conv2d.h — 3x3 2D convolution over a 16-bit image tile (the filtering
// stage of every video pipeline: sharpen/blur/edge kernels).
//
// Baseline: four output pixels per iteration. For each of the three taps
// in a row the kernel needs the same eight loaded pixels shifted by 0, 1,
// 2 words — the classic MMX shifted-window sequence (copy, PSRLQ, copy,
// PSLLQ, POR) re-materializes each window from the two aligned loads, so
// two thirds of the window-building work is copies and shifts that exist
// only to realign data.
//
// SPU variant: the shifted windows are single MOVQ gathers routed across
// the two loaded quadwords (MM0/MM1 word-aligned — realizable under
// configuration D). Each 5-instruction realignment becomes 1 instruction;
// the multiply/accumulate dataflow is untouched (window *reuse*: the loads
// happen once per row regardless of tap count).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "kernels/kernel.h"

namespace subword::kernels {

class Conv2dKernel final : public MediaKernel {
 public:
  static constexpr int kInW = 20;    // input tile width (words)
  static constexpr int kInH = 10;    // input tile height
  static constexpr int kOutW = 16;   // output width (4 quads per row)
  static constexpr int kOutH = kInH - 2;
  static constexpr int kShift = 4;

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::string description() const override;
  [[nodiscard]] isa::Program build_mmx(int repeats) const override;
  [[nodiscard]] std::optional<isa::Program> build_spu(
      const core::CrossbarConfig& cfg, int repeats) const override;
  void init_memory(sim::Memory& mem) const override;
  [[nodiscard]] bool verify(const sim::Memory& mem) const override;
  // Primary input: the kInW x kInH 16-bit tile (pixel-range values, 0..255,
  // for the wrap-free bit-exactness contract). Primary output: the
  // kOutW x kOutH result tile.
  [[nodiscard]] BufferSpec buffer_spec() const override;
  [[nodiscard]] bool verify_bound(const sim::Memory& mem,
                                  std::span<const uint8_t> input)
      const override;

  // The deterministic 3x3 tap matrix (row-major). Public so pipeline
  // consumers can compose the scalar reference end-to-end. It does not
  // depend on any input, so it is built once per process.
  [[nodiscard]] static const std::vector<int16_t>& coefficients();
};

}  // namespace subword::kernels
