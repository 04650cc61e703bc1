// ref_sad.h — scalar golden sum-of-absolute-differences (motion estimation).
//
// Semantics contract shared with the MMX kernel (kernels/motion_est.h):
//   sad[c] = satu16( sum_i |cur[i] - cand[c][i]| )
// accumulated with unsigned-saturating 16-bit adds (PADDUSW). For the
// 16x16 blocks the kernel uses the sum is at most 256*255 = 65280, so the
// saturation never engages — but the contract keeps the reference honest
// should a future kernel enlarge the block. Because every addend is
// non-negative, the reference sums exactly and clamps once per candidate,
// which gives the same result as clamping after every add.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace subword::ref {

// `cur` holds block_elems pixels; `cands` holds num_cands consecutive
// candidate blocks of block_elems pixels each. Returns one 16-bit SAD per
// candidate (the raw uint16 bit pattern, stored as int16 like every other
// kernel output).
[[nodiscard]] std::vector<int16_t> sad_blocks(std::span<const uint8_t> cur,
                                              std::span<const uint8_t> cands,
                                              size_t block_elems,
                                              size_t num_cands);

}  // namespace subword::ref
