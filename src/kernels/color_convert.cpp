#include "kernels/color_convert.h"

#include "isa/assembler.h"
#include "kernels/spu_util.h"
#include "ref/ref_color.h"
#include "ref/workload.h"

namespace subword::kernels {

using namespace isa;

namespace {

constexpr uint64_t kSeedRgb = 0x52474259;

// Coefficient table layout at kCoeffAddr: nine broadcast quadwords (four
// identical word lanes each) in matrix order, then the shared 128 quadword
// used both as luma rounding and chroma bias.
constexpr int16_t kCoef[9] = {77, 150, 29, -43, -85, 128, 128, -107, -21};
constexpr int32_t kBiasOff = 9 * 8;

// Register plan:
//   R0 repeat counter  R1 pixel-quad counter  R2 input pointer
//   R3/R5/R6 Y/Cb/Cr plane pointers  R4 coefficient base
//   MM0..MM2 the three interleaved quadwords; after deinterleave
//   Rv=MM5, Gv=MM6, Bv=MM0; MM1/MM2 arithmetic temps.

// One channel's dot product against broadcast coefficients: acc in MM1.
void emit_channel(Assembler& a, int coef_index, bool luma, uint8_t out_ptr) {
  a.movq_load(MM1, R4, coef_index * 8);
  a.pmullw(MM1, MM5);  // * Rv
  a.movq_load(MM2, R4, (coef_index + 1) * 8);
  a.pmullw(MM2, MM6);  // * Gv
  a.paddw(MM1, MM2);
  a.movq_load(MM2, R4, (coef_index + 2) * 8);
  a.pmullw(MM2, MM0);  // * Bv
  a.paddw(MM1, MM2);
  if (luma) {
    a.movq_load(MM2, R4, kBiasOff);  // +128 rounding before the shift
    a.paddw(MM1, MM2);
    a.psrlw(MM1, 8);
  } else {
    a.psraw(MM1, 8);                 // truncating signed shift
    a.movq_load(MM2, R4, kBiasOff);  // +128 bias after the shift
    a.paddw(MM1, MM2);
  }
  a.movq_store(out_ptr, 0, MM1);
}

// The shared arithmetic + pointer-advance tail (identical in both
// variants; only the deinterleave differs).
void emit_convert_tail(Assembler& a, const std::string& loop_label) {
  emit_channel(a, 0, /*luma=*/true, R3);
  emit_channel(a, 3, /*luma=*/false, R5);
  emit_channel(a, 6, /*luma=*/false, R6);
  a.saddi(R2, 24);
  a.saddi(R3, 8);
  a.saddi(R5, 8);
  a.saddi(R6, 8);
  a.loopnz(R1, loop_label);
}

void emit_pointer_reset(Assembler& a) {
  a.li(R4, static_cast<int32_t>(kCoeffAddr));
  a.li(R2, static_cast<int32_t>(kInputAddr));
  a.li(R3, static_cast<int32_t>(kOutputAddr));
  a.li(R5, static_cast<int32_t>(kAuxAddr));
  a.li(R6, static_cast<int32_t>(kAux2Addr));
}

}  // namespace

std::string ColorConvertKernel::name() const { return "Color Convert"; }

std::string ColorConvertKernel::description() const {
  return "RGB to YCbCr 4:4:4, 256 Pixel blocks";
}

isa::Program ColorConvertKernel::build_mmx(int repeats) const {
  Assembler a;
  a.li(R0, repeats);
  a.label("repeat");
  emit_pointer_reset(a);
  a.li(R1, kPixels / 4);
  a.label("quad");
  a.movq_load(MM0, R2, 0);   // [R0 G0 B0 R1]
  a.movq_load(MM1, R2, 8);   // [G1 B1 R2 G2]
  a.movq_load(MM2, R2, 16);  // [B2 R3 G3 B3]
  // Stride-3 deinterleave through the power-of-two unpack tree.
  a.movq(MM3, MM1);
  a.psrlq(MM3, 32);       // [R2 G2 .. ..]
  a.movq(MM4, MM2);
  a.psrlq(MM4, 16);       // [R3 G3 B3 ..]
  a.punpcklwd(MM3, MM4);  // [R2 R3 G2 G3]
  a.movq(MM4, MM0);
  a.psrlq(MM4, 48);       // [R1 .. .. ..]
  a.movq(MM5, MM0);
  a.punpcklwd(MM5, MM4);  // [R0 R1 G0 ..]
  a.movq(MM6, MM5);       // keep [.. .. G0 ..] for the G vector
  a.punpckldq(MM5, MM3);  // Rv = [R0 R1 R2 R3]
  a.movq(MM4, MM1);
  a.psllq(MM4, 32);       // [.. .. G1 B1]
  a.punpckhwd(MM6, MM4);  // [G0 G1 .. B1]
  a.movq(MM7, MM3);
  a.psrlq(MM7, 32);       // [G2 G3 .. ..]
  a.punpckldq(MM6, MM7);  // Gv = [G0 G1 G2 G3]
  a.movq(MM4, MM1);
  a.psllq(MM4, 16);       // [.. G1 B1 R2]
  a.punpckhwd(MM0, MM4);  // [B0 B1 R1 R2]
  a.movq(MM4, MM2);
  a.psrlq(MM4, 48);       // [B3 .. .. ..]
  a.punpcklwd(MM2, MM4);  // [B2 B3 R3 ..]
  a.punpckldq(MM0, MM2);  // Bv = [B0 B1 B2 B3]
  emit_convert_tail(a, "quad");
  a.loopnz(R0, "repeat");
  a.halt();
  return a.take();
}

std::optional<isa::Program> ColorConvertKernel::build_spu(
    const core::CrossbarConfig& cfg, int repeats) const {
  core::MicroBuilder mb(cfg);
  for (int i = 0; i < 3; ++i) mb.add_straight_state();  // the three loads
  // Three channel gathers; the named MOVQ source is immaterial.
  const std::array<std::array<std::pair<int, int>, 4>, 3> lanes = {{
      {{{MM0, 0}, {MM0, 3}, {MM1, 2}, {MM2, 1}}},  // R
      {{{MM0, 1}, {MM1, 0}, {MM1, 3}, {MM2, 2}}},  // G
      {{{MM0, 2}, {MM1, 1}, {MM2, 0}, {MM2, 3}}},  // B
  }};
  for (const auto& g : lanes) {
    core::Route r;
    r.set_operand_both_pipes(1, gather_words(g));
    mb.add_state(r);
  }
  // Arithmetic (3 x 12) + 4 pointer advances + loopnz, all unrouted.
  for (int i = 0; i < 3 * 12 + 5; ++i) mb.add_straight_state();
  mb.seal_simple_loop(kPixels / 4);

  Assembler a;
  emit_spu_prologue(a, {{0, &mb}});
  a.li(R0, repeats);
  a.label("repeat");
  emit_pointer_reset(a);
  a.li(R1, kPixels / 4);
  core::emit_spu_go(a, 0);
  a.label("quad");
  a.movq_load(MM0, R2, 0);
  a.movq_load(MM1, R2, 8);
  a.movq_load(MM2, R2, 16);
  a.movq(MM5, MM0);  // routed: Rv gather
  a.movq(MM6, MM0);  // routed: Gv gather
  a.movq(MM0, MM1);  // routed: Bv gather (overwrites MM0 last)
  emit_convert_tail(a, "quad");
  a.loopnz(R0, "repeat");
  a.halt();
  return a.take();
}

void ColorConvertKernel::init_memory(sim::Memory& mem) const {
  const auto rgb = ref::make_pixels(3 * kPixels, kSeedRgb);
  mem.write_span<int16_t>(kInputAddr, rgb);
  std::vector<int16_t> table(9 * 4 + 4);
  for (int c = 0; c < 9; ++c) {
    for (int lane = 0; lane < 4; ++lane) table[c * 4 + lane] = kCoef[c];
  }
  for (int lane = 0; lane < 4; ++lane) table[9 * 4 + lane] = 128;
  mem.write_span<int16_t>(kCoeffAddr, table);
}

bool ColorConvertKernel::verify(const sim::Memory& mem) const {
  const auto rgb = ref::make_pixels(3 * kPixels, kSeedRgb);
  const auto want = ref::rgb_to_ycbcr(rgb);
  return compare_i16(mem, kOutputAddr, want.y, name() + "/Y") == 0 &&
         compare_i16(mem, kAuxAddr, want.cb, name() + "/Cb") == 0 &&
         compare_i16(mem, kAux2Addr, want.cr, name() + "/Cr") == 0;
}

BufferSpec ColorConvertKernel::buffer_spec() const {
  BufferSpec s;
  s.input_bytes = 3 * kPixels * 2;  // interleaved RGB, 16-bit lanes
  s.output_bytes = kPixels * 2;     // the Y plane (kOutputAddr)
  // Pointwise per pixel: tiles of a larger frame are independent, and a
  // trailing partial tile can be cut at any pixel (6 input bytes -> 2
  // output bytes) and zero-padded — zero is a valid RGB sample.
  s.tileable = true;
  s.tile_unit_input_bytes = 3 * 2;
  s.tile_unit_output_bytes = 2;
  return s;
}

bool ColorConvertKernel::verify_bound(const sim::Memory& mem,
                                      std::span<const uint8_t> input) const {
  const auto rgb = bytes_as_i16(input);
  const auto want = ref::rgb_to_ycbcr(rgb);
  return compare_i16(mem, kOutputAddr, want.y, "Color Convert/bound Y",
                     /*log_mismatches=*/false) == 0 &&
         compare_i16(mem, kAuxAddr, want.cb, "Color Convert/bound Cb",
                     /*log_mismatches=*/false) == 0 &&
         compare_i16(mem, kAux2Addr, want.cr, "Color Convert/bound Cr",
                     /*log_mismatches=*/false) == 0;
}

}  // namespace subword::kernels
