#include "kernels/kernel.h"

#include <cstdio>
#include <cstring>

namespace subword::kernels {

void MediaKernel::bind_input(sim::Memory& mem,
                             std::span<const uint8_t> input) const {
  mem.write_span<uint8_t>(buffer_spec().input_addr, input);
}

bool MediaKernel::verify_bound(const sim::Memory& /*mem*/,
                               std::span<const uint8_t> /*input*/) const {
  // A kernel advertising a BufferSpec must pair it with the matching
  // reference; reaching this default means it did not.
  return false;
}

int compare_i16(const sim::Memory& mem, uint64_t addr,
                const std::vector<int16_t>& expected,
                std::string_view what, bool log_mismatches) {
  // Lanes are stored in host order (sim::Memory), the order of `expected`.
  const std::span<const uint8_t> got = mem.bytes(addr, expected.size() * 2);
  if (expected.empty() ||
      std::memcmp(got.data(), expected.data(), got.size()) == 0) {
    return 0;
  }
  int mismatches = 0;
  for (size_t i = 0; i < expected.size(); ++i) {
    int16_t lane;
    std::memcpy(&lane, got.data() + 2 * i, 2);
    if (lane != expected[i]) {
      if (log_mismatches && mismatches < 5) {
        std::fprintf(stderr, "%.*s: mismatch at %zu: got %d want %d\n",
                     static_cast<int>(what.size()), what.data(), i, lane,
                     expected[i]);
      }
      ++mismatches;
    }
  }
  return mismatches;
}

std::vector<int16_t> bytes_as_i16(std::span<const uint8_t> bytes) {
  std::vector<int16_t> out(bytes.size() / 2);
  std::memcpy(out.data(), bytes.data(), out.size() * 2);
  return out;
}

}  // namespace subword::kernels
