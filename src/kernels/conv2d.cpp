#include "kernels/conv2d.h"

#include "isa/assembler.h"
#include "kernels/spu_util.h"
#include "ref/ref_conv2d.h"
#include "ref/workload.h"

namespace subword::kernels {

using namespace isa;

namespace {

constexpr uint64_t kSeedImg = 0x434f4e32;
constexpr uint64_t kSeedK = 0x434f4e4b;
constexpr int kRowBytes = Conv2dKernel::kInW * 2;

// Register plan:
//   R0 repeat counter  R9 row counter  R1 quad counter
//   R2 window pointer (top-left input word of the current output quad)
//   R3 output pointer  R4 coefficient base
//   MM0/MM1 the row's two aligned quadwords, MM2/MM3 window temps,
//   MM6 product temp, MM7 accumulator.


// Multiply the current window (in `win`) by tap (dy,dx), accumulate.
void emit_mac(Assembler& a, int dy, int dx, uint8_t win, bool first) {
  const uint8_t acc_or_tmp = first ? MM7 : MM6;
  a.movq_load(acc_or_tmp, R4, (3 * dy + dx) * 8);
  a.pmullw(acc_or_tmp, win);
  if (!first) a.paddw(MM7, MM6);
}

// Baseline: materialize the window shifted by `dx` words from MM0/MM1
// into MM2 (dx = 1, 2), the copy/shift/or realignment idiom.
void emit_window_mmx(Assembler& a, int dx) {
  a.movq(MM2, MM0);
  a.psrlq(MM2, static_cast<uint8_t>(16 * dx));
  a.movq(MM3, MM1);
  a.psllq(MM3, static_cast<uint8_t>(64 - 16 * dx));
  a.por(MM2, MM3);
}

void emit_row_mmx(Assembler& a, int dy) {
  a.movq_load(MM0, R2, dy * kRowBytes);
  a.movq_load(MM1, R2, dy * kRowBytes + 8);
  emit_mac(a, dy, 0, MM0, /*first=*/dy == 0);
  emit_window_mmx(a, 1);
  emit_mac(a, dy, 1, MM2, false);
  emit_window_mmx(a, 2);
  emit_mac(a, dy, 2, MM2, false);
}

void emit_row_spu(Assembler& a, int dy) {
  a.movq_load(MM0, R2, dy * kRowBytes);
  a.movq_load(MM1, R2, dy * kRowBytes + 8);
  emit_mac(a, dy, 0, MM0, /*first=*/dy == 0);
  a.movq(MM2, MM0);  // routed: window shifted one word
  emit_mac(a, dy, 1, MM2, false);
  a.movq(MM2, MM0);  // routed: window shifted two words
  emit_mac(a, dy, 2, MM2, false);
}

void emit_quad_tail(Assembler& a, const std::string& loop_label) {
  a.psraw(MM7, Conv2dKernel::kShift);
  a.movq_store(R3, 0, MM7);
  a.saddi(R2, 8);
  a.saddi(R3, 8);
  a.loopnz(R1, loop_label);
}

}  // namespace

std::string Conv2dKernel::name() const { return "2D Convolution"; }

std::string Conv2dKernel::description() const {
  return "3x3 Taps, 16x8 Output tiles";
}

isa::Program Conv2dKernel::build_mmx(int repeats) const {
  Assembler a;
  a.li(R0, repeats);
  a.label("repeat");
  a.li(R4, static_cast<int32_t>(kCoeffAddr));
  a.li(R9, kOutH);
  a.li(R2, static_cast<int32_t>(kInputAddr));
  a.li(R3, static_cast<int32_t>(kOutputAddr));
  a.label("row");
  a.li(R1, kOutW / 4);
  a.label("quad");
  emit_row_mmx(a, 0);
  emit_row_mmx(a, 1);
  emit_row_mmx(a, 2);
  emit_quad_tail(a, "quad");
  a.saddi(R2, kRowBytes - kOutW * 2);  // next input row start
  a.loopnz(R9, "row");
  a.loopnz(R0, "repeat");
  a.halt();
  return a.take();
}

std::optional<isa::Program> Conv2dKernel::build_spu(
    const core::CrossbarConfig& cfg, int repeats) const {
  core::MicroBuilder mb(cfg);
  for (int dy = 0; dy < 3; ++dy) {
    mb.add_straight_state();  // load MM0
    mb.add_straight_state();  // load MM1
    // tap dx=0: load coef, pmullw (+ paddw after the first row)
    for (int i = 0; i < (dy == 0 ? 2 : 3); ++i) mb.add_straight_state();
    for (int dx = 1; dx <= 2; ++dx) {
      core::Route r;  // movq MM2 <- window shifted dx words
      r.set_operand_both_pipes(
          1, dx == 1
                 ? gather_words({{{MM0, 1}, {MM0, 2}, {MM0, 3}, {MM1, 0}}})
                 : gather_words({{{MM0, 2}, {MM0, 3}, {MM1, 0}, {MM1, 1}}}));
      mb.add_state(r);
      for (int i = 0; i < 3; ++i) mb.add_straight_state();  // mac
    }
  }
  for (int i = 0; i < 5; ++i) mb.add_straight_state();  // shift/store/advance
  mb.seal_simple_loop(kOutW / 4);

  Assembler a;
  emit_spu_prologue(a, {{0, &mb}});
  a.li(R0, repeats);
  a.label("repeat");
  a.li(R4, static_cast<int32_t>(kCoeffAddr));
  a.li(R9, kOutH);
  a.li(R2, static_cast<int32_t>(kInputAddr));
  a.li(R3, static_cast<int32_t>(kOutputAddr));
  a.label("row");
  a.li(R1, kOutW / 4);
  core::emit_spu_go(a, 0);
  a.label("quad");
  emit_row_spu(a, 0);
  emit_row_spu(a, 1);
  emit_row_spu(a, 2);
  emit_quad_tail(a, "quad");
  a.saddi(R2, kRowBytes - kOutW * 2);
  a.loopnz(R9, "row");
  a.loopnz(R0, "repeat");
  a.halt();
  return a.take();
}

void Conv2dKernel::init_memory(sim::Memory& mem) const {
  const auto img =
      ref::make_pixels(static_cast<size_t>(kInW) * kInH, kSeedImg);
  mem.write_span<int16_t>(kInputAddr, img);
  const auto& k = coefficients();
  std::vector<int16_t> bc(9 * 4);
  for (int c = 0; c < 9; ++c) {
    for (int lane = 0; lane < 4; ++lane) {
      bc[static_cast<size_t>(c * 4 + lane)] = k[static_cast<size_t>(c)];
    }
  }
  mem.write_span<int16_t>(kCoeffAddr, bc);
}

bool Conv2dKernel::verify(const sim::Memory& mem) const {
  const auto img =
      ref::make_pixels(static_cast<size_t>(kInW) * kInH, kSeedImg);
  const auto want = ref::conv2d_3x3(img, kInW, kInH, coefficients(), kOutW,
                                    kShift);
  return compare_i16(mem, kOutputAddr, want, name()) == 0;
}

BufferSpec Conv2dKernel::buffer_spec() const {
  BufferSpec s;
  s.input_bytes = static_cast<size_t>(kInW) * kInH * 2;
  s.output_bytes = static_cast<size_t>(kOutW) * kOutH * 2;
  // A taller image tiles vertically: each tile re-reads the previous
  // tile's last two rows (the 3x3 window's halo), so consecutive output
  // tiles are seamless — tile k covers input rows [8k, 8k + kInH). The
  // halo couples tiles, so partial tails cannot be zero-padded and the
  // frame must tile exactly (no unit granularity).
  s.tileable = true;
  s.tile_input_halo_bytes = 2 * kInW * 2;  // two overlap rows
  return s;
}

bool Conv2dKernel::verify_bound(const sim::Memory& mem,
                                std::span<const uint8_t> input) const {
  const auto img = bytes_as_i16(input);
  const auto want =
      ref::conv2d_3x3(img, kInW, kInH, coefficients(), kOutW, kShift);
  return compare_i16(mem, kOutputAddr, want, "2D Convolution/bound",
                     /*log_mismatches=*/false) == 0;
}

const std::vector<int16_t>& Conv2dKernel::coefficients() {
  // Small signed taps: |k| <= 8 keeps every lane of the accumulation exact
  // in 16 bits (max |sum| = 9 * 8 * 255 = 18360). A function-local static
  // is initialised once, thread-safely.
  static const std::vector<int16_t> taps =
      ref::make_matrix(3, 3, kSeedK, /*amplitude=*/8);
  return taps;
}

}  // namespace subword::kernels
