#include "kernels/fir.h"

#include <stdexcept>

#include "isa/assembler.h"
#include "kernels/spu_util.h"
#include "ref/ref_fir.h"
#include "ref/workload.h"

namespace subword::kernels {

using namespace isa;

namespace {

constexpr uint64_t kSeedX = 0x46495258;   // input samples
constexpr uint64_t kSeedC = 0x46495243;   // coefficients

// Register plan:
//   R0 repeat counter  R1 sample-pair counter  R2 x pointer  R3 y pointer
//   FIR12: coefficient quadwords preloaded in MM3..MM5 (register-resident,
//   the IPP way); FIR22 streams them from memory through MM3.
constexpr uint64_t kXBase = kInputAddr + FirKernel::kHistoryBytes;

// The two accumulators: MM0 for output n, MM1 for output n+1.
// Memory layout of reversed coefficients: group g holds
// [c(4g+3), c(4g+2), c(4g+1), c(4g)] so that a PMADDWD against the x
// quadword at byte 2(n-4g-3) contributes taps 4g..4g+3 of output n.
void emit_macs_preloaded(Assembler& a, int groups) {
  // Latency-scheduled: all three multiplies issue before the dependent
  // adds consume them (temps MM2/MM6 resp. MM2/MM7).
  (void)groups;  // preloaded form exists for the 3-group FIR12 only
  a.movq_load(MM0, R2, -6);
  a.pmaddwd(MM0, MM3);
  a.movq_load(MM2, R2, -14);
  a.pmaddwd(MM2, MM4);
  a.movq_load(MM6, R2, -22);
  a.pmaddwd(MM6, MM5);
  a.paddd(MM0, MM2);
  a.paddd(MM0, MM6);
  a.movq_load(MM1, R2, -4);
  a.pmaddwd(MM1, MM3);
  a.movq_load(MM2, R2, -12);
  a.pmaddwd(MM2, MM4);
  a.movq_load(MM7, R2, -20);
  a.pmaddwd(MM7, MM5);
  a.paddd(MM1, MM2);
  a.paddd(MM1, MM7);
}

// Baseline FIR12 reduce: both outputs' pair-sums are merged with a single
// unpack cascade — [acc0.d0, acc1.d0] + [acc0.d1, acc1.d1] — the compact
// reduction IPP's hand-tuned FIR uses. This keeps the baseline's
// alignment overhead modest, which is why the paper's FIR gains from the
// SPU are small compared to the matrix kernels.
void emit_fir12_reduce(Assembler& a) {
  a.movq(MM6, MM0);
  a.punpckldq(MM6, MM1);  // [s00, s10]
  a.punpckhdq(MM0, MM1);  // [s01, s11]  (acc0 is dead afterwards)
  a.paddd(MM6, MM0);      // [r0, r1]
  a.psrad(MM6, FirKernel::kShift);
  a.packssdw(MM6, MM6);
  a.movd_store(R3, 0, MM6);
}

void emit_macs_streaming(Assembler& a, int groups) {
  for (int out = 0; out < 2; ++out) {
    const uint8_t acc = out == 0 ? MM0 : MM1;
    const int32_t base = out == 0 ? -6 : -4;
    for (int g = 0; g < groups; ++g) {
      a.movq_load(MM3, R4, 8 * g);  // coefficient group from memory
      a.movq_load(MM2, R2, base - 8 * g);
      a.pmaddwd(MM2, MM3);
      if (g == 0) {
        a.movq(acc, MM2);  // note: a permutation the SPU also absorbs
      } else {
        a.paddd(acc, MM2);
      }
    }
  }
}

}  // namespace

FirKernel::FirKernel(int taps) : taps_(taps) {
  if (taps != 12 && taps != 22) {
    throw std::invalid_argument("FirKernel: supported tap counts are 12/22");
  }
}

std::string FirKernel::name() const {
  return "FIR" + std::to_string(taps_);
}

std::string FirKernel::description() const {
  return std::to_string(taps_) + " TAP, 150 Sample blocks";
}

std::vector<int16_t> FirKernel::coeffs() const {
  return ref::make_coeffs(static_cast<size_t>(taps_), kSeedC + taps_);
}

isa::Program FirKernel::build_mmx(int repeats) const {
  const bool preload = taps_ == 12;
  Assembler a;
  a.li(R0, repeats);
  a.label("repeat");
  a.li(R4, static_cast<int32_t>(kCoeffAddr));
  if (preload) {
    for (int g = 0; g < groups(); ++g) {
      a.movq_load(static_cast<uint8_t>(MM3 + g), R4, 8 * g);
    }
  }
  a.li(R2, static_cast<int32_t>(kXBase));
  a.li(R3, static_cast<int32_t>(kOutputAddr));
  a.li(R1, kSamples / 2);
  a.label("pair");
  if (preload) {
    emit_macs_preloaded(a, groups());
    emit_fir12_reduce(a);
  } else {
    emit_macs_streaming(a, groups());
    // Horizontal reductions: acc.d0 += acc.d1 (Figure-1 style sum of
    // products), then pair the two results, scale and saturate.
    a.movq(MM6, MM0);
    a.punpckhdq(MM6, MM0);  // [acc0.d1, acc0.d1]
    a.paddd(MM0, MM6);
    a.movq(MM7, MM1);
    a.punpckhdq(MM7, MM1);
    a.paddd(MM1, MM7);
    a.movq(MM6, MM0);
    a.punpckldq(MM6, MM1);  // [r0, r1]
    a.psrad(MM6, kShift);
    a.packssdw(MM6, MM6);
    a.movd_store(R3, 0, MM6);
  }
  a.saddi(R2, 4);
  a.saddi(R3, 4);
  a.loopnz(R1, "pair");
  a.loopnz(R0, "repeat");
  a.halt();
  return a.take();
}

std::optional<isa::Program> FirKernel::build_spu(
    const core::CrossbarConfig& cfg, int repeats) const {
  const bool preload = taps_ == 12;

  core::MicroBuilder mb(cfg);
  // States mirror the loop body instruction-for-instruction.
  const int mac_states = preload ? 16 : 2 * 4 * groups();
  for (int i = 0; i < mac_states; ++i) mb.add_straight_state();
  if (preload) {
    // Single routed reduce: paddd gathers [acc0.d0, acc1.d0] against
    // [acc0.d1, acc1.d1], replacing the whole unpack cascade.
    core::Route r;
    r.set_operand_both_pipes(0, gather_dwords({{{MM0, 0}, {MM1, 0}}}));
    r.set_operand_both_pipes(1, gather_dwords({{{MM0, 1}, {MM1, 1}}}));
    mb.add_state(r);
    // psrad, pack, store, 2x saddi, loopnz
    for (int i = 0; i < 6; ++i) mb.add_straight_state();
  } else {
    {
      core::Route r;  // paddd MM0, MM6 : b <- [acc0.d1, acc0.d1]
      r.set_operand_both_pipes(1, gather_dwords({{{MM0, 1}, {MM0, 1}}}));
      mb.add_state(r);
    }
    {
      core::Route r;  // paddd MM1, MM7 : b <- [acc1.d1, acc1.d1]
      r.set_operand_both_pipes(1, gather_dwords({{{MM1, 1}, {MM1, 1}}}));
      mb.add_state(r);
    }
    {
      core::Route r;  // psrad MM6 : a <- [r0, r1]
      r.set_operand_both_pipes(0, gather_dwords({{{MM0, 0}, {MM1, 0}}}));
      mb.add_state(r);
    }
    for (int i = 0; i < 5; ++i) mb.add_straight_state();  // pack..loopnz
  }
  mb.seal_simple_loop(kSamples / 2);

  Assembler a;
  emit_spu_prologue(a, {{0, &mb}});
  a.li(R0, repeats);
  a.label("repeat");
  a.li(R4, static_cast<int32_t>(kCoeffAddr));
  if (preload) {
    for (int g = 0; g < groups(); ++g) {
      a.movq_load(static_cast<uint8_t>(MM3 + g), R4, 8 * g);
    }
  }
  a.li(R2, static_cast<int32_t>(kXBase));
  a.li(R3, static_cast<int32_t>(kOutputAddr));
  a.li(R1, kSamples / 2);
  core::emit_spu_go(a, 0);
  a.label("pair");
  if (preload) {
    emit_macs_preloaded(a, groups());
    a.paddd(MM6, MM7);    // routed: [r0, r1] in one gather-add
    a.psrad(MM6, kShift);
  } else {
    emit_macs_streaming(a, groups());
    a.paddd(MM0, MM6);    // routed: acc0.d0 += acc0.d1
    a.paddd(MM1, MM7);    // routed: acc1.d0 += acc1.d1
    a.psrad(MM6, kShift);  // routed: MM6 = [r0, r1] >> shift
  }
  a.packssdw(MM6, MM6);
  a.movd_store(R3, 0, MM6);
  a.saddi(R2, 4);
  a.saddi(R3, 4);
  a.loopnz(R1, "pair");
  a.loopnz(R0, "repeat");
  a.halt();
  return a.take();
}

void FirKernel::init_memory(sim::Memory& mem) const {
  const auto x = ref::make_samples(kSamples, kSeedX + taps_);
  mem.write_span<int16_t>(kXBase, x);
  // Reversed coefficient quadwords, zero-padded to a multiple of 4 taps.
  const auto c = coeffs();
  std::vector<int16_t> rev(static_cast<size_t>(groups()) * 4, 0);
  for (int k = 0; k < taps_; ++k) {
    const int g = k / 4;
    const int lane = 3 - (k % 4);
    rev[static_cast<size_t>(g * 4 + lane)] = c[static_cast<size_t>(k)];
  }
  mem.write_span<int16_t>(kCoeffAddr, rev);
}

bool FirKernel::verify(const sim::Memory& mem) const {
  const auto x = ref::make_samples(kSamples, kSeedX + taps_);
  const auto c = coeffs();
  const auto want = ref::fir(x, c, kShift);
  return compare_i16(mem, kOutputAddr, want, name()) == 0;
}

BufferSpec FirKernel::buffer_spec() const {
  // Primary input is the sample block after the zeroed history window; the
  // coefficient table stays synthetic.
  BufferSpec s;
  s.input_bytes = kSamples * 2;
  s.output_bytes = kSamples * 2;
  s.input_addr = kXBase;
  // Block-FIR semantics: every tile is an independent 150-sample block
  // starting from the zeroed history window, so a long signal tiles into
  // consecutive blocks with no halo. Partial tails cut at any sample
  // (2 bytes in -> 2 bytes out); the zero padding matches the kernel's
  // own zero-history convention, and a sample's output depends only on
  // samples at or before it, so the valid prefix is unaffected.
  s.tileable = true;
  s.tile_unit_input_bytes = 2;
  s.tile_unit_output_bytes = 2;
  return s;
}

bool FirKernel::verify_bound(const sim::Memory& mem,
                             std::span<const uint8_t> input) const {
  const auto x = bytes_as_i16(input);
  const auto want = ref::fir(x, coeffs(), kShift);
  return compare_i16(mem, kOutputAddr, want, "FIR/bound",
                     /*log_mismatches=*/false) == 0;
}

}  // namespace subword::kernels
