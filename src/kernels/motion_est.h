// motion_est.h — block-matching motion estimation (16x16 SAD against a
// candidate list, the inner loop of every MPEG-era encoder's search).
//
// Baseline: the MMX has no PSADBW, so each 8-pixel group costs the classic
// IPP sequence — a MOVQ copy to keep both subtraction orders alive
// (|a-b| = PSUBUSB(a,b) | PSUBUSB(b,a)), then a second copy plus a
// PUNPCKLBW/PUNPCKHBW pair to zero-extend the difference bytes under the
// word accumulator. Four permutation instructions per group, plus two more
// MOVQ copies in the per-candidate horizontal reduction.
//
// SPU variant: the first subtraction takes its minuend through the
// crossbar (the copy disappears), the low-half widen gathers the
// difference register directly into the unpack (the second copy
// disappears), and the horizontal reduction becomes two PADDUSWs with
// fully routed operand pairs (both reduction copies and shifts disappear).
// The widening unpacks themselves must stay: without the §6 zero-inject
// mode the crossbar cannot fabricate the zero bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "kernels/kernel.h"

namespace subword::kernels {

class MotionEstKernel final : public MediaKernel {
 public:
  static constexpr int kBlockDim = 16;   // 16x16 pixels, 8-bit
  static constexpr int kCandidates = 16; // pre-gathered candidate blocks
  static constexpr int kBlockBytes = kBlockDim * kBlockDim;

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::string description() const override;
  [[nodiscard]] isa::Program build_mmx(int repeats) const override;
  [[nodiscard]] std::optional<isa::Program> build_spu(
      const core::CrossbarConfig& cfg, int repeats) const override;
  void init_memory(sim::Memory& mem) const override;
  [[nodiscard]] bool verify(const sim::Memory& mem) const override;
  // Primary input: the 16x16 current block (8-bit pixels). Primary output:
  // one 16-bit SAD per candidate. The candidate list stays synthetic.
  [[nodiscard]] BufferSpec buffer_spec() const override;
  [[nodiscard]] bool verify_bound(const sim::Memory& mem,
                                  std::span<const uint8_t> input)
      const override;

  // The deterministic candidate blocks (kCandidates x kBlockBytes pixels).
  // Public so pipeline consumers can compose the scalar reference. They do
  // not depend on any input, so they are built once per process.
  [[nodiscard]] static const std::vector<uint8_t>& candidate_blocks();
};

}  // namespace subword::kernels
