#include "sim/bpred.h"

#include <algorithm>
#include <stdexcept>

namespace subword::sim {

namespace {
bool is_power_of_two(int v) { return v > 0 && (v & (v - 1)) == 0; }
constexpr int kHistoryBits = 8;
// Four 2-bit counters per byte, each at 1 (weakly not-taken).
constexpr uint8_t kWeaklyNotTaken = 0x55;
}  // namespace

BranchPredictor::BranchPredictor(int entries, PredictorKind kind)
    : kind_(kind),
      history_bits_(kind == PredictorKind::LocalHistory ? kHistoryBits : 0),
      history_mask_(static_cast<uint8_t>((1u << history_bits_) - 1)),
      mask_(static_cast<size_t>(entries) - 1) {
  if (!is_power_of_two(entries)) {
    throw std::invalid_argument("BranchPredictor: entries must be 2^k");
  }
  const size_t slots = static_cast<size_t>(entries) << history_bits_;
  history_.assign(static_cast<size_t>(entries), 0);
  counters_.assign((slots + 3) / 4, kWeaklyNotTaken);
}

bool BranchPredictor::predict(uint64_t pc) const {
  return counter(slot(pc)) >= 2;
}

bool BranchPredictor::update(uint64_t pc, bool taken) {
  const size_t s = slot(pc);
  uint8_t c = counter(s);
  const bool correct = (c >= 2) == taken;
  if (taken) {
    if (c < 3) ++c;
  } else {
    if (c > 0) --c;
  }
  const int shift = 2 * static_cast<int>(s & 3);
  uint8_t& packed = counters_[s >> 2];
  packed = static_cast<uint8_t>((packed & ~(3 << shift)) | (c << shift));
  uint8_t& h = history_[pc & mask_];
  h = static_cast<uint8_t>((h << 1) | (taken ? 1 : 0));
  return correct;
}

void BranchPredictor::reset() {
  std::fill(history_.begin(), history_.end(), 0);
  std::fill(counters_.begin(), counters_.end(), kWeaklyNotTaken);
}

}  // namespace subword::sim
