// mmio.h — the memory-mapped programming interface of the SPU (paper §3:
// "the SPU has control registers that are memory-mapped").
//
// 32-bit register layout (offsets from the SPU window base):
//
//   0x0000  CONFIG   bit 0 = GO (write 1 activates the selected context,
//                    write 0 stops the SPU), bits 7..1 = context select
//   0x0004  CNTR0    counter 0 reload value (dynamic instruction count)
//   0x0008  CNTR1    counter 1 reload value
//   0x0010 + s*kStateStride + 0x00   state s control word:
//                    bits 0     CNTRx
//                    bits 14..8 NextState0
//                    bits 22..16 NextState1
//   0x0010 + s*kStateStride + 4+4*k  state s route bytes 4k..4k+3
//                    (byte j of the word = selector for bus byte 4k+j;
//                     0xFF = straight)
//
// Reads return the same encoding (plus live status in CONFIG bit 31).
// A state control or route write marks the selected context for
// revalidation at its next GO (Spu::set_state); CNTR and CONFIG writes do
// not.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/spu.h"
#include "sim/memory.h"

namespace subword::core {

class SpuMmio final : public sim::Device {
 public:
  static constexpr uint32_t kConfigReg = 0x0000;
  static constexpr uint32_t kCntr0 = 0x0004;
  static constexpr uint32_t kCntr1 = 0x0008;
  static constexpr uint32_t kStateBase = 0x0010;
  static constexpr uint32_t kStateStride = 64;
  static constexpr uint32_t kRouteWords = kBusBytes / 4;  // 8
  static constexpr uint64_t kWindowSize =
      kStateBase + static_cast<uint64_t>(kNumStates) * kStateStride;

  // Default window placement used by the orchestrator and kernels.
  static constexpr uint64_t kDefaultBase = 0xF0000000ull;

  explicit SpuMmio(Spu* spu) : spu_(spu) {}

  void write32(uint64_t offset, uint32_t value) override;
  uint32_t read32(uint64_t offset) override;

  // Encoding helpers shared with MicroBuilder.
  [[nodiscard]] static uint32_t encode_control(const SpuState& st) {
    return static_cast<uint32_t>(st.cntr_sel & 1) |
           (static_cast<uint32_t>(st.next0 & 0x7F) << 8) |
           (static_cast<uint32_t>(st.next1 & 0x7F) << 16);
  }
  [[nodiscard]] static uint32_t encode_route_word(const Route& r, int word) {
    uint32_t v = 0;
    for (int j = 0; j < 4; ++j) {
      v |= static_cast<uint32_t>(r.sel[static_cast<size_t>(4 * word + j)])
           << (8 * j);
    }
    return v;
  }

 private:
  Spu* spu_;
};

}  // namespace subword::core
