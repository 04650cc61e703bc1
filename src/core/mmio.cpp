#include "core/mmio.h"

#include <stdexcept>

namespace subword::core {

void SpuMmio::write32(uint64_t offset, uint32_t value) {
  if (offset == kConfigReg) {
    const int ctx = static_cast<int>((value >> 1) & 0x7F);
    spu_->select_context(ctx);
    if ((value & 1u) != 0) {
      spu_->go();
      spu_->arm_activation_skip();
    } else {
      spu_->stop();
    }
    return;
  }
  if (offset == kCntr0 || offset == kCntr1) {
    spu_->set_reload(spu_->selected_context(), offset == kCntr0 ? 0 : 1,
                     value);
    return;
  }
  if (offset >= kStateBase && offset < kWindowSize) {
    const uint32_t rel = static_cast<uint32_t>(offset) - kStateBase;
    const uint32_t state = rel / kStateStride;
    const uint32_t field = rel % kStateStride;
    if (state >= kNumStates) {
      throw std::out_of_range("SpuMmio: state index out of range");
    }
    const int ctx = spu_->selected_context();
    SpuState st = spu_->context(ctx).states[state];
    if (field == 0) {
      st.cntr_sel = static_cast<uint8_t>(value & 1);
      st.next0 = static_cast<uint8_t>((value >> 8) & 0x7F);
      st.next1 = static_cast<uint8_t>((value >> 16) & 0x7F);
    } else {
      const uint32_t word = (field - 4) / 4;
      if (field % 4 != 0 || word >= kRouteWords) {
        throw std::out_of_range("SpuMmio: unaligned state field write");
      }
      for (int j = 0; j < 4; ++j) {
        st.route.sel[static_cast<size_t>(4 * word + static_cast<uint32_t>(j))] =
            static_cast<uint8_t>((value >> (8 * j)) & 0xFF);
      }
    }
    // Through set_state, so the context is revalidated at the next GO.
    spu_->set_state(ctx, static_cast<int>(state), st);
    return;
  }
  throw std::out_of_range("SpuMmio: write outside register window");
}

uint32_t SpuMmio::read32(uint64_t offset) {
  if (offset == kConfigReg) {
    uint32_t v = static_cast<uint32_t>(spu_->selected_context()) << 1;
    if (spu_->active()) v |= 1u | (1u << 31);
    return v;
  }
  if (offset == kCntr0 || offset == kCntr1) {
    const auto& prog = spu_->context(spu_->selected_context());
    return prog.reload[offset == kCntr0 ? 0 : 1];
  }
  if (offset >= kStateBase && offset < kWindowSize) {
    const uint32_t rel = static_cast<uint32_t>(offset) - kStateBase;
    const uint32_t state = rel / kStateStride;
    const uint32_t field = rel % kStateStride;
    if (state >= kNumStates) {
      throw std::out_of_range("SpuMmio: state index out of range");
    }
    const auto& st = spu_->context(spu_->selected_context()).states[state];
    if (field == 0) return encode_control(st);
    const uint32_t word = (field - 4) / 4;
    if (field % 4 != 0 || word >= kRouteWords) {
      throw std::out_of_range("SpuMmio: unaligned state field read");
    }
    return encode_route_word(st.route, static_cast<int>(word));
  }
  throw std::out_of_range("SpuMmio: read outside register window");
}

}  // namespace subword::core
