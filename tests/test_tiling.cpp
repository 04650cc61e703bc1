// Tiling tests: the scatter/gather layer must be byte-identical to running
// each tile as its own untiled request (the defining semantics of a tile),
// on both execution backends, including halo'd windows and zero-padded
// partial tail tiles; every tile of a fan-out must share one cached
// PreparedProgram; and the streamed pipeline must equal the per-tile
// composition of its stages while stages overlap across tiles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "kernels/registry.h"
#include "kernels/video_pipeline_ref.h"
#include "ref/workload.h"
#include "runtime/tiling.h"

using namespace subword;
using api::ErrorCode;
using api::Result;
using api::ExecBackend;
using api::Session;

namespace {

// In-contract frame bytes for a tileable kernel: pixels for the video
// kernels, bounded-amplitude samples for FIR, raw pixel bytes for SAD.
std::vector<uint8_t> make_frame(const kernels::KernelInfo& info, size_t bytes,
                                uint64_t seed) {
  if (info.name == "Motion Estimation") return ref::make_bytes(bytes, seed);
  const auto lanes = info.name == "FIR12"
                         ? ref::make_samples(bytes / 2, seed)
                         : ref::make_pixels(bytes / 2, seed);
  std::vector<uint8_t> out(bytes);
  std::memcpy(out.data(), lanes.data(), bytes);
  return out;
}

// The reference semantics of tiling: every tile run as its own ordinary
// untiled request over its window of the frame (zero-padded for the tail),
// outputs concatenated in tile order.
std::vector<uint8_t> per_tile_reference(Session& session,
                                        const kernels::KernelInfo& info,
                                        ExecBackend backend,
                                        std::span<const uint8_t> frame) {
  const auto geom = runtime::plan_tiles(info.buffers, frame.size());
  EXPECT_TRUE(geom.has_value());
  if (!geom) return {};
  std::vector<uint8_t> out(geom->frame_output_bytes, 0);
  const auto run_tile = [&](std::span<const uint8_t> in,
                            std::span<uint8_t> dst) {
    auto resp = session.request(info.name)
                    .spu(core::kConfigD)
                    .auto_orchestrate()
                    .backend(backend)
                    .input(in)
                    .output(dst)
                    .run();
    EXPECT_TRUE(resp.ok()) << info.name << ": " << resp.error().to_string();
  };
  for (size_t k = 0; k < geom->full_tiles; ++k) {
    run_tile(frame.subspan(k * geom->input_stride, geom->tile_input_bytes),
             std::span<uint8_t>(out).subspan(k * geom->tile_output_bytes,
                                             geom->tile_output_bytes));
  }
  if (geom->tail_units != 0) {
    std::vector<uint8_t> padded(geom->tile_input_bytes, 0);
    const auto rem = frame.subspan(geom->full_tiles * geom->input_stride);
    std::copy(rem.begin(), rem.end(), padded.begin());
    std::vector<uint8_t> tail_out(geom->tile_output_bytes, 0);
    run_tile(padded, tail_out);
    std::copy_n(tail_out.begin(), geom->tail_valid_output,
                out.begin() + static_cast<ptrdiff_t>(geom->full_tiles *
                                                     geom->tile_output_bytes));
  }
  return out;
}

}  // namespace

// -- Geometry planning -------------------------------------------------------

TEST(PlanTiles, HaloFreeUnitKernelAcceptsWholeUnitRemainders) {
  const auto* cc = kernels::find_kernel_info("Color Convert");
  ASSERT_NE(cc, nullptr);
  ASSERT_TRUE(cc->buffers.tileable);

  // Exact fit: 4 tiles, no tail.
  auto g = runtime::plan_tiles(cc->buffers, 4 * cc->buffers.input_bytes);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->tiles, 4u);
  EXPECT_EQ(g->full_tiles, 4u);
  EXPECT_EQ(g->tail_units, 0u);
  EXPECT_EQ(g->input_stride, cc->buffers.input_bytes);
  EXPECT_EQ(g->frame_output_bytes, 4 * cc->buffers.output_bytes);

  // One extra interleaved pixel (6 bytes) rides a zero-padded tail tile
  // contributing one 2-byte Y value.
  g = runtime::plan_tiles(cc->buffers, 4 * cc->buffers.input_bytes +
                                           cc->buffers.tile_unit_input_bytes);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->tiles, 5u);
  EXPECT_EQ(g->full_tiles, 4u);
  EXPECT_EQ(g->tail_units, 1u);
  EXPECT_EQ(g->tail_valid_output, cc->buffers.tile_unit_output_bytes);
  EXPECT_EQ(g->frame_output_bytes,
            4 * cc->buffers.output_bytes + cc->buffers.tile_unit_output_bytes);

  // A remainder that is not a whole unit cannot tile.
  std::string err;
  EXPECT_FALSE(runtime::plan_tiles(cc->buffers,
                                   4 * cc->buffers.input_bytes + 3, &err)
                   .has_value());
  EXPECT_NE(err.find("unit"), std::string::npos);
}

TEST(PlanTiles, HaloKernelOverlapsWindowsAndNeedsAnExactFit) {
  const auto* conv = kernels::find_kernel_info("2D Convolution");
  ASSERT_NE(conv, nullptr);
  ASSERT_TRUE(conv->buffers.tileable);
  ASSERT_GT(conv->buffers.tile_input_halo_bytes, 0u);
  const size_t stride =
      conv->buffers.input_bytes - conv->buffers.tile_input_halo_bytes;

  const auto g = runtime::plan_tiles(conv->buffers,
                                     conv->buffers.input_bytes + 2 * stride);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->tiles, 3u);
  EXPECT_EQ(g->input_stride, stride);
  EXPECT_EQ(g->tail_units, 0u);
  EXPECT_EQ(g->frame_output_bytes, 3 * conv->buffers.output_bytes);

  // Anything that is not base + k*stride would convolve against
  // fabricated zeros mid-frame.
  std::string err;
  EXPECT_FALSE(runtime::plan_tiles(conv->buffers,
                                   conv->buffers.input_bytes + 100, &err)
                   .has_value());
  EXPECT_NE(err.find("halo"), std::string::npos);
}

TEST(PlanTiles, RejectsNonTileableSpecsAndTinyFrames) {
  const auto* dct = kernels::find_kernel_info("DCT");
  ASSERT_NE(dct, nullptr);
  EXPECT_FALSE(runtime::plan_tiles(dct->buffers, 4096).has_value());

  const auto* fir = kernels::find_kernel_info("FIR12");
  ASSERT_NE(fir, nullptr);
  std::string err;
  EXPECT_FALSE(runtime::plan_tiles(fir->buffers,
                                   fir->buffers.input_bytes - 2, &err)
                   .has_value());
  EXPECT_NE(err.find("base tile"), std::string::npos);
}

// -- Tiled requests ----------------------------------------------------------

// The defining property: a tiled request is byte-identical to running each
// tile untiled, for every tileable kernel, on both backends, across tile
// counts including a non-divisible remainder where the kernel supports one.
TEST(TiledRequest, MatchesPerTileUntiledRunsOnBothBackends) {
  Session session({.workers = 2, .cache = nullptr});
  for (const auto& info : session.kernels()) {
    if (!info.buffers.tileable) continue;
    const size_t base = info.buffers.input_bytes;
    const size_t stride = base - info.buffers.tile_input_halo_bytes;
    std::vector<size_t> frames = {base, base + 2 * stride};
    if (info.buffers.tile_unit_input_bytes != 0) {
      frames.push_back(base + 2 * stride +
                       3 * info.buffers.tile_unit_input_bytes);
    }
    for (const auto backend :
         {ExecBackend::kSimulator, ExecBackend::kNativeSwar}) {
      for (const size_t frame_bytes : frames) {
        SCOPED_TRACE(info.name + " / " +
                     (backend == ExecBackend::kSimulator ? "sim" : "native") +
                     " / " + std::to_string(frame_bytes) + "B");
        const auto frame = make_frame(info, frame_bytes, 0x7117 + frame_bytes);
        const auto want =
            per_tile_reference(session, info, backend, frame);

        const auto geom = runtime::plan_tiles(info.buffers, frame.size());
        ASSERT_TRUE(geom.has_value());
        std::vector<uint8_t> got(geom->frame_output_bytes, 0xEE);
        auto resp = session.request(info.name)
                        .spu(core::kConfigD)
                        .auto_orchestrate()
                        .backend(backend)
                        .tile()
                        .input(std::span<const uint8_t>(frame))
                        .output(std::span<uint8_t>(got))
                        .run();
        ASSERT_TRUE(resp.ok()) << resp.error().to_string();
        EXPECT_EQ(got, want);
        EXPECT_TRUE(resp->run.verified);
        EXPECT_EQ(resp->jobs_fanned_out, geom->tiles);
        EXPECT_GE(resp->workers_used, 1);
        EXPECT_LE(resp->workers_used, 2);
        // The native backend has no cycle model; the aggregate must stay
        // poisoned, never a fabricated partial sum.
        EXPECT_EQ(resp->cycles().has_value(),
                  backend == ExecBackend::kSimulator);
      }
    }
  }
}

// All tiles of a fan-out share one OrchestrationKey: a cold frame costs
// exactly one preparation, every other tile replays it.
TEST(TiledRequest, TilesShareOnePreparedProgram) {
  Session session({.workers = 2, .cache = nullptr});
  const auto* cc = kernels::find_kernel_info("Color Convert");
  ASSERT_NE(cc, nullptr);
  const size_t kTiles = 8;
  const auto frame =
      make_frame(*cc, kTiles * cc->buffers.input_bytes, 0xA11CE);
  auto resp = session.request("Color Convert")
                  .spu(core::kConfigD)
                  .auto_orchestrate()
                  .tile()
                  .input(std::span<const uint8_t>(frame))
                  .run();
  ASSERT_TRUE(resp.ok()) << resp.error().to_string();
  EXPECT_EQ(resp->jobs_fanned_out, kTiles);
  EXPECT_EQ(resp->tile_cache_hits, kTiles - 1);
  const auto stats = session.stats();
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.cache.hits, kTiles - 1);
  EXPECT_EQ(stats.cache.entries, 1u);
  EXPECT_EQ(stats.jobs_submitted, kTiles);
}

TEST(TiledRequest, TypedErrorsForEveryMisuse) {
  Session session({.workers = 1, .cache = nullptr});

  // tile() needs a bound input frame to derive the geometry from.
  auto no_input = session.request("Color Convert").tile().run();
  ASSERT_FALSE(no_input.ok());
  EXPECT_EQ(no_input.error().code, ErrorCode::kInvalidArgument);

  // A kernel without a buffer contract cannot tile.
  std::vector<uint8_t> junk(4096, 1);
  auto no_buffers = session.request("DCT")
                        .tile()
                        .input(std::span<const uint8_t>(junk))
                        .run();
  ASSERT_FALSE(no_buffers.ok());
  EXPECT_EQ(no_buffers.error().code, ErrorCode::kBuffersUnsupported);

  // A halo'd kernel's frame must tile exactly.
  const auto* conv = kernels::find_kernel_info("2D Convolution");
  const auto odd = make_frame(*conv, conv->buffers.input_bytes + 100, 1);
  auto inexact = session.request("2D Convolution")
                     .tile()
                     .input(std::span<const uint8_t>(odd))
                     .run();
  ASSERT_FALSE(inexact.ok());
  EXPECT_EQ(inexact.error().code, ErrorCode::kTilingUnsupported);

  // The output must be the gathered frame size, not the base tile size.
  const auto* cc = kernels::find_kernel_info("Color Convert");
  const auto frame = make_frame(*cc, 2 * cc->buffers.input_bytes, 2);
  std::vector<uint8_t> small_out(cc->buffers.output_bytes);
  auto bad_out = session.request("Color Convert")
                     .tile()
                     .input(std::span<const uint8_t>(frame))
                     .output(std::span<uint8_t>(small_out))
                     .run();
  ASSERT_FALSE(bad_out.ok());
  EXPECT_EQ(bad_out.error().code, ErrorCode::kBufferSizeMismatch);
}

// -- Streamed tiled pipelines ------------------------------------------------

// A tiled pipeline equals running the untiled pipeline once per tile —
// which for the video chain is also the composed scalar reference per
// tile — while each stage's Response aggregates its tile fan-out.
TEST(TiledPipeline, StreamedVideoPipelineMatchesPerTileRuns) {
  Session session({.workers = 2, .cache = nullptr});
  const size_t kTiles = 4;
  std::vector<int16_t> rgb;
  for (size_t k = 0; k < kTiles; ++k) {
    const auto tile = ref::make_pixels(3 * 256, 0xF00D + k);
    rgb.insert(rgb.end(), tile.begin(), tile.end());
  }

  const auto build_stages = [&](api::Pipeline p) -> api::Pipeline {
    p.then(session.request("Color Convert").spu(core::kConfigD))
        .then(session.request("2D Convolution").spu(core::kConfigD))
        .then(session.request("Motion Estimation").spu(core::kConfigD));
    return p;
  };
  auto tiled = build_stages(session.pipeline())
                   .tile()
                   .input(std::span<const int16_t>(rgb))
                   .run();
  ASSERT_TRUE(tiled.ok()) << tiled.error().to_string();
  EXPECT_EQ(tiled->tiles, kTiles);
  ASSERT_EQ(tiled->stages.size(), 3u);
  for (const auto& st : tiled->stages) {
    EXPECT_EQ(st.response.jobs_fanned_out, kTiles) << st.kernel;
    EXPECT_TRUE(st.response.run.verified) << st.kernel;
  }

  std::vector<uint8_t> want;
  for (size_t k = 0; k < kTiles; ++k) {
    const std::span<const int16_t> window(rgb.data() + k * 3 * 256, 3 * 256);
    auto per_tile = build_stages(session.pipeline()).input(window).run();
    ASSERT_TRUE(per_tile.ok()) << per_tile.error().to_string();
    want.insert(want.end(), per_tile->output.begin(),
                per_tile->output.end());

    const auto ref_out = kernels::composed_video_pipeline_ref(
        std::vector<int16_t>(window.begin(), window.end()));
    const auto got_tile = kernels::bytes_as_i16(per_tile->output);
    EXPECT_EQ(ref_out, got_tile) << "tile " << k;
  }
  EXPECT_EQ(tiled->output, want);
}

TEST(TiledPipeline, PartialTailTileIsATypedError) {
  Session session({.workers = 1, .cache = nullptr});
  // 1.5 color-convert tiles: Request::tile() would accept the remainder,
  // but a streamed pipeline cannot feed a fragment downstream.
  const auto rgb = ref::make_pixels(3 * 256 + 3 * 128, 0xBAD);
  auto run = session.pipeline()
                 .then(session.request("Color Convert").spu(core::kConfigD))
                 .then(session.request("2D Convolution").spu(core::kConfigD))
                 .tile()
                 .input(std::span<const int16_t>(rgb))
                 .run();
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.error().code, ErrorCode::kTilingUnsupported);
}

// submit() runs the same streamed pipeline on a driver thread; wait()
// resolves exactly once.
TEST(TiledPipeline, SubmitMatchesSyncRunAndConsumesOnce) {
  Session session({.workers = 2, .cache = nullptr});
  const size_t kTiles = 3;
  std::vector<int16_t> rgb;
  for (size_t k = 0; k < kTiles; ++k) {
    const auto tile = ref::make_pixels(3 * 256, 0x5EED + k);
    rgb.insert(rgb.end(), tile.begin(), tile.end());
  }
  const auto make = [&] {
    return session.pipeline()
        .then(session.request("Color Convert").spu(core::kConfigD))
        .then(session.request("2D Convolution").spu(core::kConfigD))
        .then(session.request("Motion Estimation").spu(core::kConfigD))
        .tile()
        .input(std::span<const int16_t>(rgb));
  };
  auto sync = make().run();
  ASSERT_TRUE(sync.ok()) << sync.error().to_string();

  auto submitted = make().submit();
  ASSERT_TRUE(submitted.ok()) << submitted.error().to_string();
  auto async = submitted->wait();
  ASSERT_TRUE(async.ok()) << async.error().to_string();
  EXPECT_EQ(async->output, sync->output);
  EXPECT_EQ(async->tiles, kTiles);

  auto again = submitted->wait();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().code, ErrorCode::kInvalidArgument);
}

// Two sessions streaming tiled pipelines concurrently over one shared
// cache: both bit-exact, and each unique stage shape prepared exactly once
// across both (3 stages -> 3 misses, everything else hits).
TEST(TiledPipeline, ConcurrentStreamsShareOneCache) {
  auto cache = std::make_shared<runtime::OrchestrationCache>();
  Session a({.workers = 2, .cache = cache});
  Session b({.workers = 2, .cache = cache});
  const size_t kTiles = 3;

  const auto stream = [&](Session& s, uint64_t seed) {
    std::vector<int16_t> rgb;
    for (size_t k = 0; k < kTiles; ++k) {
      const auto tile = ref::make_pixels(3 * 256, seed + k);
      rgb.insert(rgb.end(), tile.begin(), tile.end());
    }
    auto run = s.pipeline()
                   .then(s.request("Color Convert").spu(core::kConfigD))
                   .then(s.request("2D Convolution").spu(core::kConfigD))
                   .then(s.request("Motion Estimation").spu(core::kConfigD))
                   .tile()
                   .input(std::span<const int16_t>(rgb))
                   .run();
    ASSERT_TRUE(run.ok()) << run.error().to_string();
    std::vector<uint8_t> want;
    for (size_t k = 0; k < kTiles; ++k) {
      const auto ref_out = kernels::composed_video_pipeline_ref(
          std::vector<int16_t>(rgb.begin() + static_cast<ptrdiff_t>(k * 768),
                               rgb.begin() +
                                   static_cast<ptrdiff_t>((k + 1) * 768)));
      const auto* p = reinterpret_cast<const uint8_t*>(ref_out.data());
      want.insert(want.end(), p, p + ref_out.size() * 2);
    }
    EXPECT_EQ(run->output, want);
  };

  std::thread ta([&] { stream(a, 0x1000); });
  std::thread tb([&] { stream(b, 0x2000); });
  ta.join();
  tb.join();

  const auto stats = cache->stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.entries, 3u);
  // 2 streams x 3 stages x kTiles jobs, minus the 3 preparations.
  EXPECT_EQ(stats.hits, 2 * 3 * kTiles - 3);
}

// Each tile of a streamed pipeline is one engine chain. Lanes of 0x7FFF
// are outside Color Convert's [0, 255] pixel contract, so a poisoned tile
// fails verification at stage 0.
std::vector<int16_t> video_frame(size_t tiles, uint64_t seed,
                                 std::initializer_list<size_t> poisoned) {
  std::vector<int16_t> rgb;
  for (size_t k = 0; k < tiles; ++k) {
    const auto tile = ref::make_pixels(3 * 256, seed + k);
    rgb.insert(rgb.end(), tile.begin(), tile.end());
  }
  for (const size_t k : poisoned) {
    std::fill_n(rgb.begin() + static_cast<ptrdiff_t>(k * 3 * 256), 3 * 256,
                int16_t{0x7FFF});
  }
  return rgb;
}

Result<api::PipelineRun> run_video_tiled(Session& session,
                                         const std::vector<int16_t>& rgb) {
  const auto stage = [&](const char* kernel) {
    return session.request(kernel).spu(core::kConfigD).backend(
        ExecBackend::kNativeSwar);
  };
  return session.pipeline()
      .then(stage("Color Convert"))
      .then(stage("2D Convolution"))
      .then(stage("Motion Estimation"))
      .tile()
      .input(std::span<const int16_t>(rgb))
      .run();
}

TEST(TiledPipeline, FailedStageStopsItsTilesChain) {
  Session session({.workers = 2, .cache = nullptr});
  constexpr size_t kTiles = 4;
  constexpr size_t kStages = 3;

  const auto s0 = session.stats();
  auto clean = run_video_tiled(session, video_frame(kTiles, 0xC1EA, {}));
  ASSERT_TRUE(clean.ok()) << clean.error().to_string();
  const auto s1 = session.stats();
  EXPECT_EQ(s1.jobs_submitted - s0.jobs_submitted, kStages * kTiles);
  EXPECT_EQ(s1.jobs_completed - s0.jobs_completed, kStages * kTiles);
  EXPECT_EQ(s1.jobs_failed - s0.jobs_failed, 0u);
  // Instructions each stage's job replays (the same for every tile).
  std::vector<uint64_t> per_job;
  for (const auto& st : clean->stages) {
    per_job.push_back(st.response.run.stats.instructions / kTiles);
  }

  auto poisoned = run_video_tiled(session, video_frame(kTiles, 0xC1EA, {1}));
  ASSERT_FALSE(poisoned.ok());
  EXPECT_EQ(poisoned.error().code, ErrorCode::kVerificationFailed);
  EXPECT_NE(poisoned.error().context.find("stage 0"), std::string::npos)
      << poisoned.error().context;
  const auto s2 = session.stats();
  // Every job is accounted for; tile 1's stages 1 and 2 were skipped, so
  // they count as failed and retired no instructions.
  EXPECT_EQ(s2.jobs_completed - s1.jobs_completed, kStages * kTiles);
  EXPECT_EQ(s2.jobs_failed - s1.jobs_failed, kStages - 1);
  EXPECT_EQ(s2.instructions_retired - s1.instructions_retired,
            kTiles * (per_job[0] + per_job[1] + per_job[2]) -
                (per_job[1] + per_job[2]));
}

TEST(TiledPipeline, ReportsTheFirstFailingTile) {
  Session session({.workers = 2, .cache = nullptr});
  auto run = run_video_tiled(session, video_frame(6, 0xF1257, {4, 2}));
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.error().code, ErrorCode::kVerificationFailed);
  const std::string& ctx = run.error().context;
  EXPECT_NE(ctx.find("tile 2"), std::string::npos) << ctx;
  EXPECT_EQ(ctx.find("tile 4"), std::string::npos) << ctx;
}

// -- Engine-level contention counters ----------------------------------------

TEST(SessionOptions, BoundedQueueAppliesBackpressure) {
  Session session(
      Session::Options{.workers = 1, .queue_capacity = 2, .cache = nullptr});
  const auto* cc = kernels::find_kernel_info("Color Convert");
  const size_t kTiles = 8;
  const auto frame =
      make_frame(*cc, kTiles * cc->buffers.input_bytes, 0xCAFE);
  auto resp = session.request("Color Convert")
                  .spu(core::kConfigD)
                  .auto_orchestrate()
                  .tile()
                  .input(std::span<const uint8_t>(frame))
                  .run();
  ASSERT_TRUE(resp.ok()) << resp.error().to_string();
  EXPECT_EQ(resp->jobs_fanned_out, kTiles);
  const auto stats = session.stats();
  EXPECT_EQ(stats.jobs_completed, kTiles);
  // The bound is a hard ceiling on queue depth, by construction.
  EXPECT_LE(stats.queue_peak_depth, 2u);
}

TEST(EngineCounters, ScratchAllocationsPlateauAtWorkerCount) {
  Session session({.workers = 2, .cache = nullptr});
  const auto* fir = kernels::find_kernel_info("FIR12");
  const auto frame = make_frame(*fir, 6 * fir->buffers.input_bytes, 0x5CA7);
  for (int round = 0; round < 3; ++round) {
    auto sim = session.request("FIR12")
                   .spu(core::kConfigD)
                   .auto_orchestrate()
                   .tile()
                   .input(std::span<const uint8_t>(frame))
                   .run();
    ASSERT_TRUE(sim.ok()) << sim.error().to_string();
    auto native = session.request("FIR12")
                      .spu(core::kConfigD)
                      .auto_orchestrate()
                      .backend(ExecBackend::kNativeSwar)
                      .tile()
                      .input(std::span<const uint8_t>(frame))
                      .run();
    ASSERT_TRUE(native.ok()) << native.error().to_string();
  }
  const auto stats = session.stats();
  // Reset-not-reallocate: one Machine and one arena per worker, ever,
  // regardless of how many jobs flowed through.
  EXPECT_LE(stats.scratch_machine_allocs, 2u);
  EXPECT_LE(stats.scratch_arena_allocs, 2u);
  EXPECT_GE(stats.scratch_machine_allocs, 1u);
  EXPECT_GE(stats.scratch_arena_allocs, 1u);
  // Lock-wait is accounted (possibly zero on an uncontended run, but the
  // counter must exist and be finite alongside the hit/miss economics).
  EXPECT_EQ(stats.cache.misses, 2u);
}
