// Branch predictor model tests: the 2-bit baseline and the P6-class
// two-level local-history predictor that underpins Table 2.
#include <gtest/gtest.h>

#include "sim/bpred.h"

using subword::sim::BranchPredictor;
using subword::sim::PredictorKind;

namespace {

// Mispredicts over `loops` executions of a trip-`n` loop (pattern
// T^(n-1) N), after a warmup period that is also counted.
int loop_mispredicts(BranchPredictor& bp, int trip, int loops) {
  int miss = 0;
  for (int l = 0; l < loops; ++l) {
    for (int i = 0; i < trip - 1; ++i) {
      if (!bp.update(7, true)) ++miss;
    }
    if (!bp.update(7, false)) ++miss;
  }
  return miss;
}

}  // namespace

TEST(TwoBit, WarmLoopPredictsTaken) {
  BranchPredictor bp(64, PredictorKind::TwoBit);
  for (int i = 0; i < 10; ++i) bp.update(5, true);
  EXPECT_TRUE(bp.predict(5));
}

TEST(TwoBit, MissesEveryLoopExit) {
  BranchPredictor bp(64, PredictorKind::TwoBit);
  const int miss = loop_mispredicts(bp, 10, 20);
  // One miss per exit (20), plus cold start.
  EXPECT_GE(miss, 20);
  EXPECT_LE(miss, 23);
}

TEST(TwoBit, HysteresisSurvivesSingleExit) {
  BranchPredictor bp(64, PredictorKind::TwoBit);
  for (int i = 0; i < 10; ++i) bp.update(3, true);
  bp.update(3, false);
  EXPECT_TRUE(bp.predict(3));
}

TEST(LocalHistory, LearnsShortLoopExits) {
  // Fixed-trip loops up to the history length are perfectly predicted
  // once warm — the P6 behaviour that keeps media kernels' missed-branch
  // rates near zero (paper Table 2: DCT / Matrix Multiply at 0.000%).
  for (int trip : {2, 3, 4, 8}) {
    BranchPredictor bp(64);
    loop_mispredicts(bp, trip, 16);  // warmup
    const int miss = loop_mispredicts(bp, trip, 100);
    EXPECT_EQ(miss, 0) << "trip " << trip;
  }
}

TEST(LocalHistory, LongLoopsMissOncePerExit) {
  BranchPredictor bp(64);
  loop_mispredicts(bp, 50, 4);  // warmup
  const int miss = loop_mispredicts(bp, 50, 20);
  // History (8 bits) cannot disambiguate the exit of a trip-50 loop.
  EXPECT_GE(miss, 19);
  EXPECT_LE(miss, 21);
}

TEST(LocalHistory, AlternatingPatternLearned) {
  BranchPredictor bp(64);
  for (int i = 0; i < 32; ++i) bp.update(9, (i % 2) == 0);  // warmup
  int miss = 0;
  for (int i = 0; i < 100; ++i) {
    if (!bp.update(9, (i % 2) == 0)) ++miss;
  }
  EXPECT_EQ(miss, 0);
}

TEST(Predictor, TableIndexWraps) {
  BranchPredictor bp(16, PredictorKind::TwoBit);
  for (int i = 0; i < 10; ++i) bp.update(0, true);
  EXPECT_TRUE(bp.predict(16));  // aliases entry 0
}

TEST(Predictor, NonPowerOfTwoRejected) {
  EXPECT_THROW(BranchPredictor(100), std::invalid_argument);
  EXPECT_THROW(BranchPredictor(100, PredictorKind::TwoBit),
               std::invalid_argument);
}

TEST(Predictor, ResetRestoresColdState) {
  for (auto kind : {PredictorKind::TwoBit, PredictorKind::LocalHistory}) {
    BranchPredictor bp(64, kind);
    for (int i = 0; i < 10; ++i) bp.update(7, true);
    bp.reset();
    EXPECT_FALSE(bp.predict(7));
  }
}

TEST(Predictor, ResetPredictsLikeAFreshPredictor) {
  // A worker's Machine reuses one predictor across jobs, so reset() must
  // leave no trace of training: over a seeded stream of branch outcomes a
  // trained-then-reset predictor agrees with a fresh one at every step.
  for (auto kind : {PredictorKind::TwoBit, PredictorKind::LocalHistory}) {
    uint64_t seed = 0x9E3779B97F4A7C15ull;
    auto next = [&seed] {
      seed += 0x9E3779B97F4A7C15ull;
      uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      return z ^ (z >> 31);
    };
    BranchPredictor trained(1024, kind);
    for (int i = 0; i < 20000; ++i) {
      const uint64_t r = next();
      trained.update(r % 1500, (r >> 32) % 3 != 0);
    }
    trained.reset();
    BranchPredictor fresh(1024, kind);
    for (int i = 0; i < 20000; ++i) {
      const uint64_t r = next();
      const uint64_t pc = r % 1500;
      // A mix of loop-like (mostly taken) and random outcomes.
      const bool taken = pc % 2 == 0 ? (r >> 32) % 8 != 0 : (r >> 40) % 2 == 0;
      ASSERT_EQ(trained.predict(pc), fresh.predict(pc)) << "step " << i;
      ASSERT_EQ(trained.update(pc, taken), fresh.update(pc, taken))
          << "step " << i;
    }
  }
}

TEST(Predictor, KindIsReported) {
  EXPECT_EQ(BranchPredictor(64).kind(), PredictorKind::LocalHistory);
  EXPECT_EQ(BranchPredictor(64, PredictorKind::TwoBit).kind(),
            PredictorKind::TwoBit);
}
