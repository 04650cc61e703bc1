// refs.h — host-side references for the buffer kernels: the expected
// primary output for a given primary input, computed with the scalar
// references in src/ref, outside every timed region.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gen.h"
#include "kernels/kernel.h"

namespace perfbench {

// The five kernels with a user-owned-buffer contract.
[[nodiscard]] const std::vector<std::string>& buffer_kernels();
[[nodiscard]] bool is_buffer_kernel(const std::string& kernel);

// A random primary input within the kernel's data contract.
[[nodiscard]] std::vector<uint8_t> random_input(const std::string& kernel,
                                                Rng& rng);

// The kernel's own synthetic primary input (what it runs with no input
// bound), read back from a freshly initialised arena.
[[nodiscard]] std::vector<uint8_t> synthetic_input(
    const subword::kernels::MediaKernel& k);

// Expected primary output bytes for `input`.
[[nodiscard]] std::vector<uint8_t> reference_output(
    const std::string& kernel, std::span<const uint8_t> input);

}  // namespace perfbench
