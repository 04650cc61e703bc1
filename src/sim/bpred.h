// bpred.h — branch prediction models.
//
// Two predictors are provided:
//
//  * BranchPredictor — a direct-mapped table of 2-bit saturating counters.
//    Simple, but misses every loop exit, which overstates mispredicts for
//    the short fixed-trip loops media kernels are full of.
//
//  * LocalHistoryPredictor — a P6-class two-level predictor: per-branch
//    local history (8 outcomes) indexing a per-entry pattern table of
//    2-bit counters. This learns periodic taken/not-taken patterns up to
//    period ~8, i.e. it predicts the exits of short fixed-trip loops
//    perfectly once warm — which is what produces the paper's Table 2
//    observation (missed-branch rates well below 1%) on the Pentium III,
//    whose P6 core used exactly this structure.
//
// The machine uses the two-level predictor by default; the 2-bit model is
// kept selectable for the pipeline ablation bench.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace subword::sim {

enum class PredictorKind : uint8_t {
  TwoBit,
  LocalHistory,  // default (P6-class)
};

class BranchPredictor {
 public:
  explicit BranchPredictor(int entries = 1024,
                           PredictorKind kind = PredictorKind::LocalHistory);

  // Predicted direction for the branch at instruction index `pc`.
  [[nodiscard]] bool predict(uint64_t pc) const;

  // Train with the resolved direction; returns true if the prediction was
  // correct.
  bool update(uint64_t pc, bool taken);

  void reset();

  [[nodiscard]] PredictorKind kind() const { return kind_; }

 private:
  // Both kinds share one layout: a pattern table of 2-bit counters, packed
  // four per byte, indexed by (entry, local history). TwoBit keeps one
  // pattern per entry (its history mask is zero), LocalHistory 2^8.
  [[nodiscard]] size_t slot(uint64_t pc) const {
    const size_t e = pc & mask_;
    return (e << history_bits_) | (history_[e] & history_mask_);
  }
  [[nodiscard]] uint8_t counter(size_t slot) const {
    return (counters_[slot >> 2] >> (2 * (slot & 3))) & 3;
  }

  PredictorKind kind_;
  int history_bits_;
  uint8_t history_mask_;
  std::vector<uint8_t> history_;   // per entry: last 8 outcomes, LSB newest
  std::vector<uint8_t> counters_;  // packed 2-bit counters; >=2 predicts taken
  size_t mask_;
};

}  // namespace subword::sim
