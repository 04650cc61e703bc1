// Runtime tests: the batch engine must be a pure parallelization of the
// sequential runner — bit-identical stats — while the orchestration cache
// guarantees exactly one preparation per unique configuration, and
// shutdown is graceful with jobs in flight.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <span>
#include <thread>
#include <vector>

#include "kernels/registry.h"
#include "kernels/runner.h"
#include "kernels/video_pipeline_ref.h"
#include "ref/workload.h"
#include "runtime/batch_engine.h"
#include "runtime/orchestration_cache.h"

using namespace subword;
using namespace subword::runtime;
using kernels::KernelRun;
using kernels::SpuMode;

namespace {

// The simulation is deterministic, so a batch run must reproduce the
// sequential runner exactly, field by field.
void expect_same_stats(const sim::RunStats& a, const sim::RunStats& b,
                       const std::string& what) {
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.instructions, b.instructions) << what;
  EXPECT_EQ(a.mmx_instructions, b.mmx_instructions) << what;
  EXPECT_EQ(a.mmx_compute, b.mmx_compute) << what;
  EXPECT_EQ(a.mmx_permutation, b.mmx_permutation) << what;
  EXPECT_EQ(a.mmx_memory, b.mmx_memory) << what;
  EXPECT_EQ(a.scalar_instructions, b.scalar_instructions) << what;
  EXPECT_EQ(a.branches, b.branches) << what;
  EXPECT_EQ(a.branch_mispredicts, b.branch_mispredicts) << what;
  EXPECT_EQ(a.stall_cycles, b.stall_cycles) << what;
  EXPECT_EQ(a.spu_routed_ops, b.spu_routed_ops) << what;
  EXPECT_EQ(a.spu_mmio_stores, b.spu_mmio_stores) << what;
}

KernelJob baseline_job(const std::string& name, int repeats) {
  KernelJob j;
  j.kernel = name;
  j.repeats = repeats;
  j.use_spu = false;
  return j;
}

KernelJob auto_job(const std::string& name, int repeats,
                   const core::CrossbarConfig& cfg = core::kConfigA) {
  KernelJob j;
  j.kernel = name;
  j.repeats = repeats;
  j.use_spu = true;
  j.mode = SpuMode::Auto;
  j.cfg = cfg;
  return j;
}

}  // namespace

TEST(PreparedProgram, ExecuteMatchesRunSpu) {
  const auto k = kernels::make_kernel("FIR12");
  const auto direct = kernels::run_spu(*k, 2, core::kConfigA, SpuMode::Auto);
  const auto prepared =
      kernels::prepare_spu(*k, 2, core::kConfigA, SpuMode::Auto);
  const auto replay1 = kernels::execute_prepared(*k, prepared);
  const auto replay2 = kernels::execute_prepared(*k, prepared);
  EXPECT_TRUE(direct.verified);
  EXPECT_TRUE(replay1.verified);
  expect_same_stats(direct.stats, replay1.stats, "prepare+execute vs run_spu");
  expect_same_stats(replay1.stats, replay2.stats, "replay determinism");
  EXPECT_EQ(replay1.spu.activations, direct.spu.activations);
  EXPECT_EQ(replay1.spu.routed_operands, direct.spu.routed_operands);
}

TEST(PreparedProgram, ScratchMachineReuseIsExact) {
  const auto k = kernels::make_kernel("DCT");
  const auto prepared =
      kernels::prepare_spu(*k, 1, core::kConfigA, SpuMode::Auto);
  const auto fresh = kernels::execute_prepared(*k, prepared);

  sim::Machine scratch(prepared.program, kernels::kMemBytes, prepared.pc);
  // Dirty the machine with an unrelated kernel first, then reuse it.
  const auto other = kernels::make_kernel("IIR");
  const auto other_prep = kernels::prepare_baseline(*other, 1);
  (void)kernels::execute_prepared(*other, other_prep, &scratch);
  const auto reused = kernels::execute_prepared(*k, prepared, &scratch);

  EXPECT_TRUE(reused.verified);
  expect_same_stats(fresh.stats, reused.stats, "scratch reuse");
}

TEST(PreparedProgram, CustomMmioBaseExecutes) {
  // The MMIO prologue is generated against opts.mmio_base; execution must
  // map the SPU window at the same address the program stores to.
  const auto k = kernels::make_kernel("FIR22");
  core::OrchestratorOptions opts;
  opts.mmio_base = 0xE0000000ull;
  const auto moved = kernels::prepare_spu(*k, 1, core::kConfigA,
                                          SpuMode::Auto, {}, &opts);
  EXPECT_EQ(moved.mmio_base, 0xE0000000ull);
  const auto run = kernels::execute_prepared(*k, moved);
  EXPECT_TRUE(run.verified);
  const auto def = kernels::run_spu(*k, 1, core::kConfigA, SpuMode::Auto);
  expect_same_stats(def.stats, run.stats, "relocated MMIO window");
}

TEST(PreparedProgram, ScratchIsDetachedEvenWhenExecutionThrows) {
  const auto k = kernels::make_kernel("FIR12");
  sim::PipelineConfig tiny;
  tiny.max_cycles = 10;  // force a cycle-limit throw mid-run
  const auto doomed =
      kernels::prepare_spu(*k, 1, core::kConfigA, SpuMode::Auto, tiny);
  sim::Machine scratch(doomed.program, kernels::kMemBytes, doomed.pc);
  EXPECT_THROW((void)kernels::execute_prepared(*k, doomed, &scratch),
               std::runtime_error);
  // The stack-local Spu/SpuMmio are gone; the scratch machine must not
  // retain a mapping to them.
  EXPECT_FALSE(scratch.memory().in_device_window(core::SpuMmio::kDefaultBase));
  // And the machine is still serviceable for the next job.
  const auto good = kernels::prepare_spu(*k, 1, core::kConfigA, SpuMode::Auto);
  const auto run = kernels::execute_prepared(*k, good, &scratch);
  EXPECT_TRUE(run.verified);
}

TEST(OrchestrationCache, KeysNormalizeFieldsThatCannotAffectPreparation) {
  core::OrchestratorOptions opts;
  sim::PipelineConfig pc;
  // Baseline jobs ignore crossbar, mode, and orchestrator options.
  const auto b1 = make_key("FIR12", 1, SpuMode::Auto, /*use_spu=*/false,
                           core::kConfigA, opts, pc);
  const auto b2 = make_key("FIR12", 1, SpuMode::Manual, /*use_spu=*/false,
                           core::kConfigD, opts, pc);
  EXPECT_TRUE(b1 == b2);
  // Manual SPU programs ignore the orchestrator options.
  core::OrchestratorOptions other;
  other.max_contexts = 4;
  other.mmio_base = 0xE0000000ull;
  const auto m1 = make_key("FIR12", 1, SpuMode::Manual, true, core::kConfigA,
                           opts, pc);
  const auto m2 = make_key("FIR12", 1, SpuMode::Manual, true, core::kConfigA,
                           other, pc);
  EXPECT_TRUE(m1 == m2);
  // ...but Auto preparations do depend on them.
  const auto a1 = make_key("FIR12", 1, SpuMode::Auto, true, core::kConfigA,
                           opts, pc);
  const auto a2 = make_key("FIR12", 1, SpuMode::Auto, true, core::kConfigA,
                           other, pc);
  EXPECT_FALSE(a1 == a2);
}

TEST(BatchEngine, BitIdenticalToSequentialRunner) {
  const std::vector<std::string> names = {"FIR12", "IIR", "DCT",
                                          "Matrix Transpose"};
  std::vector<KernelJob> jobs;
  for (const auto& n : names) {
    jobs.push_back(baseline_job(n, 2));
    jobs.push_back(auto_job(n, 2));
  }

  BatchEngine engine({.workers = 4, .cache = nullptr});
  const auto results = engine.run_batch(jobs);
  ASSERT_EQ(results.size(), jobs.size());

  for (size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(results[i].ok) << jobs[i].kernel << ": " << results[i].error;
    EXPECT_TRUE(results[i].run.verified) << jobs[i].kernel;
    const auto k = kernels::make_kernel(jobs[i].kernel);
    const KernelRun seq =
        jobs[i].use_spu
            ? kernels::run_spu(*k, jobs[i].repeats, jobs[i].cfg, jobs[i].mode)
            : kernels::run_baseline(*k, jobs[i].repeats);
    expect_same_stats(seq.stats, results[i].run.stats, jobs[i].kernel);
    EXPECT_EQ(seq.spu.routed_operands, results[i].run.spu.routed_operands)
        << jobs[i].kernel;
  }
}

TEST(BatchEngine, UnknownKernelFailsTheJobNotTheEngine) {
  BatchEngine engine({.workers = 2, .cache = nullptr});
  auto bad = engine.submit(baseline_job("NoSuchKernel", 1));
  auto good = engine.submit(baseline_job("FIR12", 1));
  const auto bad_r = bad.get();
  const auto good_r = good.get();
  EXPECT_FALSE(bad_r.ok);
  EXPECT_FALSE(bad_r.error.empty());
  EXPECT_TRUE(good_r.ok) << good_r.error;
}

TEST(OrchestrationCache, ExactlyOnePreparationPerKeyUnderContention) {
  OrchestrationCache cache;
  const auto k = kernels::make_kernel("FIR12");

  constexpr int kThreads = 8;
  constexpr int kCallsPerThread = 25;
  constexpr int kUniqueKeys = 5;  // repeats 1..5

  std::atomic<int> factory_calls{0};
  std::vector<std::thread> threads;
  std::atomic<bool> start{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!start.load()) std::this_thread::yield();
      for (int i = 0; i < kCallsPerThread; ++i) {
        const int repeats = 1 + (i + t) % kUniqueKeys;
        core::OrchestratorOptions opts;
        const auto key =
            make_key("FIR12", repeats, SpuMode::Auto, /*use_spu=*/true,
                     core::kConfigA, opts, sim::PipelineConfig{});
        const auto prepared = cache.get_or_prepare(key, [&] {
          ++factory_calls;
          return kernels::prepare_spu(*k, repeats, core::kConfigA,
                                      SpuMode::Auto);
        });
        ASSERT_NE(prepared, nullptr);
        ASSERT_NE(prepared->program, nullptr);
        EXPECT_EQ(prepared->repeats, repeats);
      }
    });
  }
  start.store(true);
  for (auto& t : threads) t.join();

  EXPECT_EQ(factory_calls.load(), kUniqueKeys);
  const auto s = cache.stats();
  EXPECT_EQ(s.entries, static_cast<uint64_t>(kUniqueKeys));
  EXPECT_EQ(s.misses, static_cast<uint64_t>(kUniqueKeys));
  EXPECT_EQ(s.hits + s.misses,
            static_cast<uint64_t>(kThreads * kCallsPerThread));
}

TEST(OrchestrationCache, DistinctConfigurationsAreDistinctKeys) {
  core::OrchestratorOptions opts;
  sim::PipelineConfig pc;
  const auto base = make_key("FIR12", 1, SpuMode::Auto, true, core::kConfigA,
                             opts, pc);
  auto k2 = base;
  EXPECT_TRUE(base == k2);
  k2 = make_key("FIR12", 1, SpuMode::Auto, true, core::kConfigB, opts, pc);
  EXPECT_FALSE(base == k2);
  k2 = make_key("FIR12", 1, SpuMode::Auto, true,
                core::with_modes(core::kConfigA), opts, pc);
  EXPECT_FALSE(base == k2);
  k2 = make_key("FIR12", 2, SpuMode::Auto, true, core::kConfigA, opts, pc);
  EXPECT_FALSE(base == k2);
  k2 = make_key("FIR12", 1, SpuMode::Manual, true, core::kConfigA, opts, pc);
  EXPECT_FALSE(base == k2);
  sim::PipelineConfig scalar;
  scalar.dual_issue = false;
  k2 = make_key("FIR12", 1, SpuMode::Auto, true, core::kConfigA, opts, scalar);
  EXPECT_FALSE(base == k2);
  sim::PipelineConfig spu_stage;
  spu_stage.extra_spu_stage = true;
  // SPU preparations force the extra stage on, so the incoming value is
  // normalized away for them — but it distinguishes baseline keys.
  k2 = make_key("FIR12", 1, SpuMode::Auto, true, core::kConfigA, opts,
                spu_stage);
  EXPECT_TRUE(base == k2);
  const auto base_off = make_key("FIR12", 1, SpuMode::Auto, false,
                                 core::kConfigA, opts, pc);
  const auto base_on = make_key("FIR12", 1, SpuMode::Auto, false,
                                core::kConfigA, opts, spu_stage);
  EXPECT_FALSE(base_off == base_on);
}

TEST(OrchestrationCache, FailedPreparationIsRetriable) {
  OrchestrationCache cache;
  core::OrchestratorOptions opts;
  const auto key = make_key("FIR12", 1, SpuMode::Auto, true, core::kConfigA,
                            opts, sim::PipelineConfig{});
  EXPECT_THROW(
      (void)cache.get_or_prepare(
          key, []() -> kernels::PreparedProgram {
            throw std::runtime_error("boom");
          }),
      std::runtime_error);
  // The poisoned entry must not stick: a later call retries and succeeds.
  const auto k = kernels::make_kernel("FIR12");
  const auto prepared = cache.get_or_prepare(key, [&] {
    return kernels::prepare_spu(*k, 1, core::kConfigA, SpuMode::Auto);
  });
  ASSERT_NE(prepared, nullptr);
  EXPECT_NE(prepared->program, nullptr);
}

TEST(BatchEngine, CacheHitRateOnRepeatedConfigs) {
  BatchEngine engine({.workers = 4, .cache = nullptr});
  std::vector<KernelJob> jobs;
  for (int i = 0; i < 40; ++i) jobs.push_back(auto_job("FIR12", 1));
  const auto results = engine.run_batch(jobs);
  int hits = 0;
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok) << r.error;
    if (r.cache_hit) ++hits;
  }
  EXPECT_EQ(hits, 39);  // exactly one miss for the unique config
  const auto s = engine.stats();
  EXPECT_EQ(s.cache.misses, 1u);
  EXPECT_EQ(s.cache.hits, 39u);
  EXPECT_GT(s.cache.hit_rate(), 0.9);
}

TEST(BatchEngine, SharedCacheAcrossEngines) {
  auto cache = std::make_shared<OrchestrationCache>();
  {
    BatchEngine a({.workers = 2, .cache = cache});
    ASSERT_TRUE(a.run_batch({auto_job("DCT", 1)})[0].ok);
  }
  {
    BatchEngine b({.workers = 2, .cache = cache});
    const auto r = b.run_batch({auto_job("DCT", 1)});
    ASSERT_TRUE(r[0].ok);
    EXPECT_TRUE(r[0].cache_hit);  // prepared by engine `a`
  }
  EXPECT_EQ(cache->stats().misses, 1u);
  EXPECT_EQ(cache->stats().hits, 1u);
}

TEST(BatchEngine, GracefulShutdownFinishesInFlightAndQueuedJobs) {
  std::vector<std::future<JobResult>> futures;
  {
    BatchEngine engine({.workers = 2, .cache = nullptr});
    for (int i = 0; i < 12; ++i) {
      futures.push_back(engine.submit(auto_job("FIR12", 1 + i % 3)));
    }
    engine.shutdown();  // must drain everything already accepted
    auto rejected = engine.submit(baseline_job("FIR12", 1));
    const auto rr = rejected.get();
    EXPECT_FALSE(rr.ok);
    EXPECT_EQ(rr.kind, JobErrorKind::kRejected);
    const auto s = engine.stats();
    EXPECT_EQ(s.jobs_submitted, 12u);
    EXPECT_EQ(s.jobs_completed, 12u);
    EXPECT_EQ(s.jobs_failed, 0u);
    EXPECT_EQ(s.jobs_rejected, 1u);
  }
  for (auto& f : futures) {
    const auto r = f.get();
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.run.verified);
  }
}

TEST(BatchEngine, DestructorDrainsWithoutExplicitShutdown) {
  std::vector<std::future<JobResult>> futures;
  {
    BatchEngine engine({.workers = 3, .cache = nullptr});
    for (int i = 0; i < 9; ++i) {
      futures.push_back(engine.submit(baseline_job("IIR", 1)));
    }
  }  // ~BatchEngine
  for (auto& f : futures) EXPECT_TRUE(f.get().ok);
}

TEST(BatchEngine, CancelResolvesQueuedJobsAsCancelled) {
  BatchEngine engine({.workers = 1, .cache = nullptr});
  std::vector<std::future<JobResult>> futures;
  // One slow-ish job to occupy the single worker, then a pile behind it.
  for (int i = 0; i < 20; ++i) {
    futures.push_back(engine.submit(auto_job("FFT128", 1)));
  }
  futures[0].wait();  // ensure at least one job ran before cancelling
  engine.cancel();
  int cancelled = 0;
  int completed = 0;
  for (auto& f : futures) {
    const auto r = f.get();
    if (r.ok) {
      EXPECT_EQ(r.kind, JobErrorKind::kNone);
      ++completed;
    } else {
      EXPECT_EQ(r.kind, JobErrorKind::kCancelled);
      EXPECT_EQ(r.error, "cancelled");
      ++cancelled;
    }
  }
  EXPECT_EQ(cancelled + completed, 20);
  EXPECT_GE(completed, 1);  // the in-flight job finishes, not aborted
  const auto s = engine.stats();
  EXPECT_EQ(s.jobs_completed, 20u);
  EXPECT_EQ(s.jobs_failed, static_cast<uint64_t>(cancelled));
}

// Regression for the submit-after-shutdown path: it used to throw
// std::runtime_error from the caller's thread; the contract now is a
// future resolved with kind=kRejected so the facade can surface it as an
// ApiError instead of an exception.
TEST(BatchEngine, SubmitAfterShutdownResolvesAsRejectedNotThrow) {
  BatchEngine engine({.workers = 2, .cache = nullptr});
  engine.shutdown();
  std::future<JobResult> fut;
  EXPECT_NO_THROW(fut = engine.submit(baseline_job("FIR12", 1)));
  ASSERT_TRUE(fut.valid());
  const auto r = fut.get();
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.kind, JobErrorKind::kRejected);
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(engine.stats().jobs_rejected, 1u);
  EXPECT_EQ(engine.stats().jobs_submitted, 0u);
}

// Cancel-while-queued followed by submit: the engine must reject, not
// throw and not deadlock, and stats must distinguish the two outcomes.
TEST(BatchEngine, SubmitAfterCancelIsRejected) {
  BatchEngine engine({.workers = 1, .cache = nullptr});
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(engine.submit(auto_job("FFT128", 1)));
  }
  engine.cancel();
  const auto late = engine.submit(baseline_job("FIR12", 1)).get();
  EXPECT_FALSE(late.ok);
  EXPECT_EQ(late.kind, JobErrorKind::kRejected);
  uint64_t cancelled = 0;
  for (auto& f : futures) {
    if (f.get().kind == JobErrorKind::kCancelled) ++cancelled;
  }
  const auto s = engine.stats();
  EXPECT_EQ(s.jobs_rejected, 1u);
  EXPECT_EQ(s.jobs_failed, cancelled);
}

// -- Chains --------------------------------------------------------------------

namespace {

// A native video-stage job bound to caller buffers, as a pipeline stage.
KernelJob stage_job(const std::string& name, std::span<const uint8_t> in,
                    std::span<uint8_t> out) {
  KernelJob j;
  j.kernel = name;
  j.use_spu = true;
  j.mode = SpuMode::Manual;
  j.cfg = core::kConfigD;
  j.backend = kernels::ExecBackend::kNativeSwar;
  j.buffers = {in, out};
  return j;
}

size_t input_bytes(const std::string& name) {
  return kernels::find_kernel_info(name)->buffers.input_bytes;
}

size_t output_bytes(const std::string& name) {
  return kernels::find_kernel_info(name)->buffers.output_bytes;
}

std::vector<uint8_t> pixel_bytes(uint64_t seed) {
  const auto px = ref::make_pixels(input_bytes("Color Convert") / 2, seed);
  std::vector<uint8_t> out(px.size() * 2);
  std::memcpy(out.data(), px.data(), out.size());
  return out;
}

}  // namespace

// Each job reads the buffer its predecessor wrote: the chain must run the
// jobs in order, on one worker, and occupy a single queue slot.
TEST(BatchEngineChain, RunsInOrderOnOneWorker) {
  BatchEngine engine({.workers = 3, .cache = nullptr});
  const auto rgb = pixel_bytes(0xC4A1);
  std::vector<uint8_t> yuv(output_bytes("Color Convert"));
  std::vector<uint8_t> conv(output_bytes("2D Convolution"));
  std::vector<uint8_t> sad(output_bytes("Motion Estimation"));
  std::vector<KernelJob> jobs;
  jobs.push_back(stage_job("Color Convert", rgb, yuv));
  jobs.push_back(stage_job(
      "2D Convolution",
      std::span<const uint8_t>(yuv).first(input_bytes("2D Convolution")),
      conv));
  jobs.push_back(stage_job(
      "Motion Estimation",
      std::span<const uint8_t>(conv).first(input_bytes("Motion Estimation")),
      sad));

  const auto results = engine.submit_chain(std::move(jobs)).get();
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) {
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.run.verified);
    EXPECT_EQ(r.worker, results[0].worker);
  }
  std::vector<int16_t> rgb_lanes(rgb.size() / 2);
  std::memcpy(rgb_lanes.data(), rgb.data(), rgb.size());
  EXPECT_EQ(kernels::bytes_as_i16(sad),
            kernels::composed_video_pipeline_ref(rgb_lanes));
  const auto s = engine.stats();
  EXPECT_EQ(s.jobs_submitted, 3u);
  EXPECT_EQ(s.jobs_completed, 3u);
  EXPECT_EQ(s.jobs_failed, 0u);
  EXPECT_EQ(s.queue_peak_depth, 1u);
}

TEST(BatchEngineChain, StopsAtTheFirstUnverifiedJob) {
  BatchEngine engine({.workers = 1, .cache = nullptr});
  // 0x7FFF lanes break Color Convert's pixel contract: the job runs but
  // fails verification.
  const std::vector<uint8_t> bad(input_bytes("Color Convert"), 0xFF);
  const auto good = pixel_bytes(0x600D);
  std::vector<uint8_t> out0(output_bytes("Color Convert"));
  std::vector<uint8_t> out1(output_bytes("Color Convert"), 0xAA);
  std::vector<KernelJob> jobs;
  jobs.push_back(stage_job("Color Convert", bad, out0));
  jobs.push_back(stage_job("Color Convert", good, out1));

  const auto results = engine.submit_chain(std::move(jobs)).get();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_FALSE(results[0].run.verified);
  // The second job never ran: had it run, it would have verified and
  // copied its output back.
  EXPECT_EQ(out1, std::vector<uint8_t>(out1.size(), 0xAA));
  const auto s = engine.stats();
  EXPECT_EQ(s.jobs_submitted, 2u);
  EXPECT_EQ(s.jobs_completed, 2u);
  EXPECT_EQ(s.jobs_failed, 1u);  // the skipped job
}

TEST(BatchEngineChain, QueuedChainIsCancelledAsOneUnit) {
  BatchEngine engine({.workers = 1, .cache = nullptr});
  // Enough simulator work ahead of the chain that it is still queued when
  // cancel() runs.
  std::vector<std::future<JobResult>> ahead;
  for (int i = 0; i < 20; ++i) {
    ahead.push_back(engine.submit(auto_job("FFT1024", 4)));
  }
  auto chain = engine.submit_chain(
      {baseline_job("FIR12", 1), baseline_job("IIR", 1),
       baseline_job("DCT", 1)});
  ahead[0].wait();
  engine.cancel();
  const auto results = chain.get();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_EQ(results[0].kind, JobErrorKind::kCancelled);
  uint64_t cancelled = 0;
  for (auto& f : ahead) {
    if (f.get().kind == JobErrorKind::kCancelled) ++cancelled;
  }
  const auto s = engine.stats();
  EXPECT_EQ(s.jobs_submitted, 23u);
  EXPECT_EQ(s.jobs_completed, 23u);
  EXPECT_EQ(s.jobs_failed, cancelled + 3);
}

TEST(BatchEngineChain, ChainAfterShutdownIsRejectedAsOneUnit) {
  BatchEngine engine({.workers = 2, .cache = nullptr});
  engine.shutdown();
  const auto results =
      engine.submit_chain({baseline_job("FIR12", 1), baseline_job("IIR", 1)})
          .get();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_EQ(results[0].kind, JobErrorKind::kRejected);
  const auto s = engine.stats();
  EXPECT_EQ(s.jobs_rejected, 2u);
  EXPECT_EQ(s.jobs_submitted, 0u);
}

TEST(BatchEngineChain, EmptyChainResolvesWithNoResults) {
  BatchEngine engine({.workers = 1, .cache = nullptr});
  EXPECT_TRUE(engine.submit_chain({}).get().empty());
  EXPECT_EQ(engine.stats().jobs_submitted, 0u);
}
