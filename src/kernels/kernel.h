// kernel.h — the IPP-style media kernel interface.
//
// Each kernel provides a hand-optimized MMX program (written the way the
// Intel IPP routines were written — without SPU knowledge), a hand-written
// MMX+SPU variant (the paper re-coded each routine to replace permutation
// instructions with SPU routes, §5.2.1), a deterministic workload, and
// bit-exact verification against the scalar references in src/ref.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/crossbar.h"
#include "isa/program.h"
#include "sim/memory.h"

namespace subword::kernels {

// Shared memory map (1 MiB arena; the SPU window lives far above it and is
// reached through the device hook, not the arena).
inline constexpr uint64_t kInputAddr = 0x1000;
inline constexpr uint64_t kCoeffAddr = 0x20000;
inline constexpr uint64_t kOutputAddr = 0x40000;
inline constexpr uint64_t kAuxAddr = 0x60000;
inline constexpr uint64_t kAux2Addr = 0x80000;
inline constexpr size_t kMemBytes = 1u << 20;

// Where a kernel's primary input and output live in the arena, and how big
// they are — the contract behind the user-owned-buffer path. A kernel that
// advertises a non-empty spec accepts caller-supplied input bytes in place
// of its synthetic workload and exposes its primary output region for
// readback, which is what lets api::Pipeline chain one kernel's output
// into the next kernel's input. Auxiliary inputs (coefficient tables,
// candidate lists) keep their deterministic synthetic values.
struct BufferSpec {
  size_t input_bytes = 0;    // primary input region size (0: unsupported)
  size_t output_bytes = 0;   // primary output region size
  uint64_t input_addr = kInputAddr;
  uint64_t output_addr = kOutputAddr;

  // -- Tile geometry (the scatter/gather layer, runtime/tiling.h) -----------
  // A tileable kernel treats its fixed-size primary I/O as one *base tile*
  // of an arbitrarily large frame: input tile k starts at byte
  // k * (input_bytes - tile_input_halo_bytes) of the frame and contributes
  // output_bytes at byte k * output_bytes of the gathered output. A
  // nonzero halo means consecutive input tiles re-read the trailing halo
  // bytes (conv2d re-reads two image rows so its 3x3 window is seamless
  // across tiles); halo'd kernels cannot pad a partial tail tile — the
  // frame must tile exactly. Halo-free kernels may instead declare a unit
  // granularity: a frame remainder that is a whole number of units is
  // zero-padded up to a full tile and only the units' worth of output is
  // gathered back (zero is in-range for every tileable kernel's data
  // contract, so the padded tile still verifies bit-exactly).
  bool tileable = false;
  size_t tile_input_halo_bytes = 0;
  size_t tile_unit_input_bytes = 0;   // 0: partial tail tiles unsupported
  size_t tile_unit_output_bytes = 0;

  [[nodiscard]] bool supported() const {
    return input_bytes != 0 && output_bytes != 0;
  }
};

// Caller-owned views bound to one execution. Spans reference memory the
// caller keeps alive until the run completes (for batch jobs: until the
// job's future resolves). Empty spans mean "use the synthetic workload" /
// "skip output readback" respectively.
struct BufferBinding {
  std::span<const uint8_t> input;
  std::span<uint8_t> output;

  [[nodiscard]] bool empty() const { return input.empty() && output.empty(); }
};

class MediaKernel {
 public:
  virtual ~MediaKernel() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  // The workload description column of the paper's Table 2.
  [[nodiscard]] virtual std::string description() const = 0;

  // Hand-optimized MMX baseline processing the workload `repeats` times.
  [[nodiscard]] virtual isa::Program build_mmx(int repeats) const = 0;

  // Hand-written MMX+SPU variant (self-contained: the program itself
  // programs the SPU through its memory-mapped window). Returns nullopt if
  // the kernel relies on the automatic orchestrator instead.
  [[nodiscard]] virtual std::optional<isa::Program> build_spu(
      const core::CrossbarConfig& cfg, int repeats) const = 0;

  virtual void init_memory(sim::Memory& mem) const = 0;

  // Bit-exact check of the outputs against the scalar reference.
  [[nodiscard]] virtual bool verify(const sim::Memory& mem) const = 0;

  // -- User-owned-buffer path (the api:: facade's data plane) ---------------
  // Kernels opt in by returning a non-empty spec and overriding
  // verify_bound; the base class implements the common placement.

  // Primary I/O regions; default: buffers unsupported.
  [[nodiscard]] virtual BufferSpec buffer_spec() const { return {}; }

  // Place caller-supplied bytes as the primary input. Called after
  // init_memory, so the synthetic primary input is overwritten while
  // auxiliary tables survive. Precondition (checked by the runner):
  // input.size() == buffer_spec().input_bytes.
  virtual void bind_input(sim::Memory& mem,
                          std::span<const uint8_t> input) const;

  // Bit-exact check of the outputs given that the primary input was
  // `input` rather than the synthetic workload. Default: fails — kernels
  // that advertise a spec must implement the matching reference.
  [[nodiscard]] virtual bool verify_bound(
      const sim::Memory& mem, std::span<const uint8_t> input) const;
};

// Compare a region of simulated memory against expected samples; returns
// number of mismatches (0 = verified) and logs the first few to stderr,
// labelled `what`. Pass log_mismatches=false on caller-triggerable paths
// (verify_bound over user data, where out-of-contract values are a normal
// outcome reported through the facade's kVerificationFailed, not a
// simulator bug); such callers pass a literal label, since it is never
// printed.
[[nodiscard]] int compare_i16(const sim::Memory& mem, uint64_t addr,
                              const std::vector<int16_t>& expected,
                              std::string_view what,
                              bool log_mismatches = true);

// Reinterpret caller-supplied bytes as 16-bit lanes (host byte order, the
// same order sim::Memory stores them). Requires bytes.size() % 2 == 0.
[[nodiscard]] std::vector<int16_t> bytes_as_i16(
    std::span<const uint8_t> bytes);

}  // namespace subword::kernels
