#include "ref/ref_sad.h"

#include <algorithm>
#include <cstdlib>

namespace subword::ref {

std::vector<int16_t> sad_blocks(std::span<const uint8_t> cur,
                                std::span<const uint8_t> cands,
                                size_t block_elems, size_t num_cands) {
  // A 32-bit partial sum holds 2^24 addends of at most 255 without
  // wrapping, and a 32-bit sum of absolute byte differences is the shape
  // compilers lower to PSADBW.
  constexpr size_t kChunk = size_t{1} << 24;
  std::vector<int16_t> out(num_cands);
  for (size_t c = 0; c < num_cands; ++c) {
    const uint8_t* cand = cands.data() + c * block_elems;
    // Every addend is >= 0, so the running sum never decreases and the
    // first add that would pass 0xFFFF pins a PADDUSW chain there for
    // good: clamping the exact sum once equals clamping after every add,
    // and keeps the loop free to vectorise.
    uint64_t acc = 0;
    for (size_t lo = 0; lo < block_elems; lo += kChunk) {
      const size_t hi = std::min(block_elems, lo + kChunk);
      uint32_t part = 0;
      for (size_t i = lo; i < hi; ++i) {
        part += static_cast<uint32_t>(
            std::abs(static_cast<int>(cur[i]) - static_cast<int>(cand[i])));
      }
      acc += part;
    }
    out[c] = static_cast<int16_t>(
        static_cast<uint16_t>(std::min<uint64_t>(acc, 0xFFFFu)));
  }
  return out;
}

}  // namespace subword::ref
