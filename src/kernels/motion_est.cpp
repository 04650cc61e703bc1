#include "kernels/motion_est.h"

#include "isa/assembler.h"
#include "kernels/spu_util.h"
#include "ref/ref_sad.h"
#include "ref/workload.h"

namespace subword::kernels {

using namespace isa;

namespace {

constexpr uint64_t kSeedCur = 0x53414443;   // current block pixels
constexpr uint64_t kSeedCand = 0x53414452;  // candidate window pixels

// Register plan:
//   R0 repeat counter  R1 candidate counter  R5 row counter / result scratch
//   R2 current-block pointer  R4 candidate pointer  R3 output pointer
//   MM7 zero (unpack operand), accumulator in MM6 (baseline) / MM3 (SPU —
//   the routed reduction must source it from the configuration-D window).

// Baseline absolute-difference + widen + accumulate for one 8-pixel group.
void emit_sad_group_mmx(Assembler& a, int32_t disp) {
  a.movq_load(MM0, R2, disp);  // a: current
  a.movq_load(MM1, R4, disp);  // b: candidate
  a.movq(MM2, MM0);            // copy keeps `a` alive for the second order
  a.psubusb(MM2, MM1);         // max(a-b, 0)
  a.psubusb(MM1, MM0);         // max(b-a, 0)
  a.por(MM2, MM1);             // |a-b|
  a.movq(MM0, MM2);            // copy feeds the high-half widen
  a.punpcklbw(MM2, MM7);       // low 4 bytes -> words
  a.paddusw(MM6, MM2);
  a.punpckhbw(MM0, MM7);       // high 4 bytes -> words
  a.paddusw(MM6, MM0);
}

// SPU form of the same group: both copies are absorbed by operand routes.
void emit_sad_group_spu(Assembler& a, int32_t disp) {
  a.movq_load(MM0, R2, disp);
  a.movq_load(MM1, R4, disp);
  a.psubusb(MM2, MM1);   // routed: minuend gathered from MM0
  a.psubusb(MM1, MM0);
  a.por(MM2, MM1);
  a.punpcklbw(MM0, MM7); // routed: source gathered from MM2
  a.paddusw(MM3, MM0);
  a.punpckhbw(MM2, MM7);
  a.paddusw(MM3, MM2);
}

}  // namespace

std::string MotionEstKernel::name() const { return "Motion Estimation"; }

std::string MotionEstKernel::description() const {
  return "16x16 SAD, 16 Candidate blocks";
}

isa::Program MotionEstKernel::build_mmx(int repeats) const {
  Assembler a;
  a.li(R0, repeats);
  a.label("repeat");
  a.li(R1, kCandidates);
  a.li(R4, static_cast<int32_t>(kCoeffAddr));
  a.li(R3, static_cast<int32_t>(kOutputAddr));
  a.pxor(MM7, MM7);
  a.label("cand");
  a.li(R2, static_cast<int32_t>(kInputAddr));
  a.pxor(MM6, MM6);
  // Two rows per iteration: the 8-trip loop stays within the local-history
  // predictor's period, as the paper's media loops do.
  a.li(R5, kBlockDim / 2);
  a.label("rows");
  emit_sad_group_mmx(a, 0);
  emit_sad_group_mmx(a, 8);
  emit_sad_group_mmx(a, 16);
  emit_sad_group_mmx(a, 24);
  a.saddi(R2, 2 * kBlockDim);
  a.saddi(R4, 2 * kBlockDim);
  a.loopnz(R5, "rows");
  // Horizontal reduction of the four word lanes: shift-align copies, the
  // permutation/shift cascade the SPU variant routes away.
  a.movq(MM5, MM6);
  a.psrlq(MM5, 32);
  a.paddusw(MM6, MM5);
  a.movq(MM5, MM6);
  a.psrlq(MM5, 16);
  a.paddusw(MM6, MM5);
  a.movd_from_mmx(R5, MM6);
  a.st16(R3, 0, R5);
  a.saddi(R3, 2);
  a.loopnz(R1, "cand");
  a.loopnz(R0, "repeat");
  a.halt();
  return a.take();
}

std::optional<isa::Program> MotionEstKernel::build_spu(
    const core::CrossbarConfig& cfg, int repeats) const {
  // Context 0: the row loop. One state per body instruction; the routed
  // states gather whole word-aligned registers, realizable under
  // configuration D (sources MM0/MM2 only).
  core::MicroBuilder mb0(cfg);
  const auto whole_reg = [](int r) {
    return gather_words({{{r, 0}, {r, 1}, {r, 2}, {r, 3}}});
  };
  for (int group = 0; group < 4; ++group) {
    mb0.add_straight_state();  // movq_load MM0
    mb0.add_straight_state();  // movq_load MM1
    {
      core::Route r;  // psubusb MM2, MM1 : minuend <- MM0
      r.set_operand_both_pipes(0, whole_reg(MM0));
      mb0.add_state(r);
    }
    mb0.add_straight_state();  // psubusb MM1, MM0
    mb0.add_straight_state();  // por MM2, MM1
    {
      core::Route r;  // punpcklbw MM0, MM7 : source <- MM2 (|a-b|)
      r.set_operand_both_pipes(0, whole_reg(MM2));
      mb0.add_state(r);
    }
    mb0.add_straight_state();  // paddusw MM3, MM0
    mb0.add_straight_state();  // punpckhbw MM2, MM7
    mb0.add_straight_state();  // paddusw MM3, MM2
  }
  for (int i = 0; i < 3; ++i) mb0.add_straight_state();  // addi, addi, loopnz
  mb0.seal_simple_loop(kBlockDim / 2);

  // Context 1: the per-candidate reduction, one pass. The two PADDUSWs
  // carry fully routed operand pairs: [s0+s1, s2+s3] then lane 0 + lane 1.
  core::MicroBuilder mb1(cfg);
  {
    core::Route r;
    r.set_operand_both_pipes(
        0, gather_words({{{MM3, 0}, {MM3, 2}, {MM3, 0}, {MM3, 0}}}));
    r.set_operand_both_pipes(
        1, gather_words({{{MM3, 1}, {MM3, 3}, {MM3, 1}, {MM3, 1}}}));
    mb1.add_state(r);
  }
  {
    core::Route r;
    r.set_operand_both_pipes(
        0, gather_words({{{MM0, 0}, {MM0, 0}, {MM0, 0}, {MM0, 0}}}));
    r.set_operand_both_pipes(
        1, gather_words({{{MM0, 1}, {MM0, 1}, {MM0, 1}, {MM0, 1}}}));
    mb1.add_state(r);
  }
  for (int i = 0; i < 4; ++i) mb1.add_straight_state();  // movd, st16, addi, loopnz
  mb1.seal_simple_loop(1);

  Assembler a;
  emit_spu_prologue(a, {{0, &mb0}, {1, &mb1}});
  a.li(R0, repeats);
  a.label("repeat");
  a.li(R1, kCandidates);
  a.li(R4, static_cast<int32_t>(kCoeffAddr));
  a.li(R3, static_cast<int32_t>(kOutputAddr));
  a.pxor(MM7, MM7);
  a.label("cand");
  a.li(R2, static_cast<int32_t>(kInputAddr));
  a.pxor(MM3, MM3);
  a.li(R5, kBlockDim / 2);
  core::emit_spu_go(a, 0);
  a.label("rows");
  emit_sad_group_spu(a, 0);
  emit_sad_group_spu(a, 8);
  emit_sad_group_spu(a, 16);
  emit_sad_group_spu(a, 24);
  a.saddi(R2, 2 * kBlockDim);
  a.saddi(R4, 2 * kBlockDim);
  a.loopnz(R5, "rows");
  core::emit_spu_go(a, 1);
  a.paddusw(MM0, MM3);  // routed: [s0+s1, s2+s3, ., .]
  a.paddusw(MM1, MM0);  // routed: lane 0 = total SAD
  a.movd_from_mmx(R5, MM1);
  a.st16(R3, 0, R5);
  a.saddi(R3, 2);
  a.loopnz(R1, "cand");
  a.loopnz(R0, "repeat");
  a.halt();
  return a.take();
}

void MotionEstKernel::init_memory(sim::Memory& mem) const {
  const auto cur = ref::make_bytes(kBlockBytes, kSeedCur);
  mem.write_span<uint8_t>(kInputAddr, cur);
  mem.write_span<uint8_t>(kCoeffAddr, candidate_blocks());
}

bool MotionEstKernel::verify(const sim::Memory& mem) const {
  const auto cur = ref::make_bytes(kBlockBytes, kSeedCur);
  const auto want =
      ref::sad_blocks(cur, candidate_blocks(), kBlockBytes, kCandidates);
  return compare_i16(mem, kOutputAddr, want, name()) == 0;
}

BufferSpec MotionEstKernel::buffer_spec() const {
  BufferSpec s;
  s.input_bytes = kBlockBytes;
  s.output_bytes = kCandidates * 2;
  // A frame of current blocks scores block-by-block against the same
  // candidate list: tiles are independent whole blocks (no halo, and no
  // finer unit — a fractional 16x16 block is meaningless, so the frame
  // must be a whole number of blocks).
  s.tileable = true;
  return s;
}

bool MotionEstKernel::verify_bound(const sim::Memory& mem,
                                   std::span<const uint8_t> input) const {
  const auto want =
      ref::sad_blocks(input, candidate_blocks(), kBlockBytes, kCandidates);
  return compare_i16(mem, kOutputAddr, want, "Motion Estimation/bound",
                     /*log_mismatches=*/false) == 0;
}

const std::vector<uint8_t>& MotionEstKernel::candidate_blocks() {
  // A function-local static is initialised once, thread-safely.
  static const std::vector<uint8_t> blocks = ref::make_bytes(
      static_cast<size_t>(kCandidates) * kBlockBytes, kSeedCand);
  return blocks;
}

}  // namespace subword::kernels
