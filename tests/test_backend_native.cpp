// test_backend_native.cpp — differential verification of the native-SWAR
// execution backend against the cycle-level simulator.
//
// The backend's whole contract is bit-exactness: replaying a lowered trace
// must leave the memory arena and the MMX register file byte-identical to
// simulating the program it was lowered from. The suite checks that for
// every lowerable registry kernel across baseline / manual SPU / auto-
// orchestrated preparations under crossbar configs A and D, with both
// synthetic and caller-bound buffers, at the runner, engine (cache) and
// facade (Request/Pipeline) levels — plus the lowering walker's rejection
// paths for programs that genuinely cannot be lowered.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <latch>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "backend/lowering.h"
#include "backend/native.h"
#include "core/mmio.h"
#include "core/setup.h"
#include "core/spu.h"
#include "isa/assembler.h"
#include "kernels/registry.h"
#include "kernels/runner.h"
#include "kernels/video_pipeline_ref.h"
#include "ref/workload.h"
#include "sim/machine.h"

namespace subword {
namespace {

using kernels::ExecBackend;
using kernels::MediaKernel;
using kernels::PreparedProgram;
using kernels::SpuMode;

// Simulate a prepared program on a fresh machine (the runner's attach
// logic, kept local so the test can inspect the machine afterwards).
struct SimResult {
  std::vector<uint8_t> arena;
  sim::MmxRegFile regs;
  bool verified = false;
};

SimResult simulate(const MediaKernel& k, const PreparedProgram& p) {
  sim::Machine m(p.program, kernels::kMemBytes, p.pc);
  std::optional<core::Spu> spu;
  std::optional<core::SpuMmio> mmio;
  if (p.use_spu) {
    spu.emplace(p.cfg, p.num_contexts);
    mmio.emplace(&*spu);
    m.memory().map_device(p.mmio_base, core::SpuMmio::kWindowSize, &*mmio);
    m.set_router(&*spu);
  }
  k.init_memory(m.memory());
  m.run();
  SimResult r;
  r.arena = m.memory().read_vector<uint8_t>(0, kernels::kMemBytes);
  r.regs = m.mmx();
  r.verified = k.verify(m.memory());
  return r;
}

// Replay the same preparation natively and compare arena + register file.
void expect_bitexact(const MediaKernel& k, PreparedProgram p,
                     const std::string& what) {
  SCOPED_TRACE(what);
  const SimResult sim = simulate(k, p);
  ASSERT_TRUE(sim.verified) << "simulator run failed verification";

  ASSERT_NO_THROW(kernels::lower_native(k, p));
  sim::Memory mem(kernels::kMemBytes);
  k.init_memory(mem);
  backend::NativeState st;
  st.mem = &mem;
  backend::run_trace(*p.native, st);

  EXPECT_TRUE(k.verify(mem)) << "native run failed verification";
  const auto native_arena = mem.read_vector<uint8_t>(0, kernels::kMemBytes);
  ASSERT_EQ(sim.arena.size(), native_arena.size());
  // Whole-arena comparison: every byte the program touched — outputs,
  // scratch, everything — must match, not just the verified region.
  size_t mismatches = 0;
  for (size_t i = 0; i < sim.arena.size(); ++i) {
    if (sim.arena[i] != native_arena[i] && ++mismatches <= 4) {
      ADD_FAILURE() << "arena byte " << i << ": sim "
                    << static_cast<int>(sim.arena[i]) << " native "
                    << static_cast<int>(native_arena[i]);
    }
  }
  EXPECT_EQ(mismatches, 0u) << "total arena mismatches";
  for (int r = 0; r < isa::kNumMmxRegs; ++r) {
    EXPECT_EQ(sim.regs.read(static_cast<uint8_t>(r)).bits(),
              st.regs.read(static_cast<uint8_t>(r)).bits())
        << "MM" << r;
  }
}

// -- Bound-verification oracle ------------------------------------------------
// verify_bound is the only check a caller-bound native run gets. It
// recomputes the reference from the bound bytes on every call; only tables
// that depend on no input (candidate blocks, convolution taps) are built
// once per process. These tests pin that it still accepts a correct run,
// rejects any single flipped output bit, and gives the same answer when
// threads race on the tables' first use.

// The kernels that accept caller-bound buffers.
const std::vector<std::string> kBufferKernels = {
    "FIR12", "FIR22", "Color Convert", "2D Convolution", "Motion Estimation"};

// A seeded in-contract input: 8-bit pixels for Motion Estimation, 16-bit
// lanes in [0, 255] for the others.
std::vector<uint8_t> random_bound_input(const MediaKernel& k, uint64_t seed) {
  const kernels::BufferSpec spec = k.buffer_spec();
  std::vector<uint8_t> in(spec.input_bytes, 0);
  ref::Rng rng(seed);
  if (k.name() == "Motion Estimation") {
    for (auto& b : in) b = static_cast<uint8_t>(rng.range(0, 255));
  } else {
    for (size_t i = 0; i < in.size(); i += 2) {
      const auto lane = static_cast<int16_t>(rng.range(0, 255));
      std::memcpy(&in[i], &lane, 2);
    }
  }
  return in;
}

struct BoundRun {
  sim::Memory mem{kernels::kMemBytes};
  std::vector<uint8_t> output;
  bool verified = false;
};

// Prepare, lower and execute `k` natively on `input`, leaving the arena in
// `out` for further verify_bound calls.
void run_bound_native(const MediaKernel& k, std::span<const uint8_t> input,
                      BoundRun& out) {
  PreparedProgram p =
      kernels::prepare_spu(k, 1, core::kConfigD, SpuMode::Auto);
  kernels::lower_native(k, p);
  out.output.assign(k.buffer_spec().output_bytes, 0);
  kernels::BufferBinding b;
  b.input = input;
  b.output = out.output;
  out.verified = kernels::execute_native(k, p, &out.mem, &b).verified;
}

// Defined first so that, in a run of the whole suite, these threads make
// the first use of the static reference tables.
TEST(BackendNativeOracle, ConcurrentFirstUseAgrees) {
  constexpr int kThreads = 4;
  struct PerThread {
    std::vector<std::vector<uint8_t>> outputs;
    std::vector<bool> accepted;  // verify_bound on the untouched arena
  };
  std::vector<PerThread> results(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (size_t i = 0; i < kBufferKernels.size(); ++i) {
        const auto k = kernels::make_kernel(kBufferKernels[i]);
        const auto input = random_bound_input(*k, 0x0AC1E + i);
        BoundRun run;
        run_bound_native(*k, input, run);
        results[static_cast<size_t>(t)].outputs.push_back(run.output);
        results[static_cast<size_t>(t)].accepted.push_back(
            run.verified && k->verify_bound(run.mem, input));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    const auto& r = results[static_cast<size_t>(t)];
    ASSERT_EQ(r.accepted.size(), kBufferKernels.size());
    for (size_t i = 0; i < kBufferKernels.size(); ++i) {
      SCOPED_TRACE(kBufferKernels[i] + " thread " + std::to_string(t));
      EXPECT_TRUE(r.accepted[i]);
      EXPECT_EQ(r.outputs[i], results[0].outputs[i]);
    }
  }
}

TEST(BackendNativeOracle, BufferKernelsAreTheOnesCovered) {
  std::vector<std::string> with_buffers;
  for (const auto& info : kernels::kernel_infos()) {
    if (info.buffers.supported()) with_buffers.push_back(info.name);
  }
  std::vector<std::string> covered = kBufferKernels;
  std::sort(with_buffers.begin(), with_buffers.end());
  std::sort(covered.begin(), covered.end());
  EXPECT_EQ(with_buffers, covered);
}

TEST(BackendNativeOracle, AcceptsTheRunAndRejectsAnyFlippedOutputBit) {
  for (size_t i = 0; i < kBufferKernels.size(); ++i) {
    SCOPED_TRACE(kBufferKernels[i]);
    const auto k = kernels::make_kernel(kBufferKernels[i]);
    const kernels::BufferSpec spec = k->buffer_spec();
    const auto input = random_bound_input(*k, 0x0BAC1E + i);
    BoundRun run;
    run_bound_native(*k, input, run);
    ASSERT_TRUE(run.verified);
    ASSERT_TRUE(k->verify_bound(run.mem, input));
    EXPECT_EQ(run.output, run.mem.read_vector<uint8_t>(spec.output_addr,
                                                       spec.output_bytes));

    // The reference follows the bound bytes: another input's reference
    // does not match this arena.
    EXPECT_FALSE(k->verify_bound(run.mem, random_bound_input(*k, 0xD1FF)));

    // First, last and a seeded sample of output bytes, each with one bit
    // flipped, then restored.
    ref::Rng rng(0xF11D + i);
    std::vector<size_t> sample = {0, spec.output_bytes - 1};
    for (int s = 0; s < 24; ++s) {
      sample.push_back(static_cast<size_t>(
          rng.range(0, static_cast<int32_t>(spec.output_bytes) - 1)));
    }
    for (const size_t at : sample) {
      const uint64_t addr = spec.output_addr + at;
      const uint8_t orig = run.mem.read8(addr);
      const auto bit = static_cast<uint8_t>(1u << rng.range(0, 7));
      run.mem.write8(addr, static_cast<uint8_t>(orig ^ bit));
      EXPECT_FALSE(k->verify_bound(run.mem, input))
          << "byte " << at << " bit mask " << static_cast<int>(bit);
      run.mem.write8(addr, orig);
    }
    EXPECT_TRUE(k->verify_bound(run.mem, input));
  }
}

// Every lowerable registry kernel, every preparation shape the facade can
// produce, configs A and D, with loop re-entry (repeats=2).
TEST(BackendNativeDifferential, EveryLowerableKernelEveryPreparation) {
  constexpr int kRepeats = 2;
  for (const auto& info : kernels::kernel_infos()) {
    if (!info.native_backend()) continue;
    const auto k = kernels::make_kernel(info.name);
    expect_bitexact(*k, kernels::prepare_baseline(*k, kRepeats),
                    info.name + "/baseline");
    for (const auto& cfg : {core::kConfigA, core::kConfigD}) {
      const std::string cfg_name(cfg.name);
      if (info.has_manual_spu()) {
        try {
          auto manual =
              kernels::prepare_spu(*k, kRepeats, cfg, SpuMode::Manual);
          expect_bitexact(*k, std::move(manual),
                          info.name + "/manual/" + cfg_name);
        } catch (const std::logic_error&) {
          // Manual variant not realizable under this geometry; the
          // simulator cannot run it either.
        }
      }
      expect_bitexact(*k,
                      kernels::prepare_spu(*k, kRepeats, cfg, SpuMode::Auto),
                      info.name + "/auto/" + cfg_name);
    }
  }
}

// The whole registry lowers today — lock that in so a kernel change that
// silently loses native support fails loudly here instead of falling back.
TEST(BackendNativeDifferential, WholeRegistryIsLowerable) {
  for (const auto& info : kernels::kernel_infos()) {
    EXPECT_TRUE(info.native_backend()) << info.name;
  }
}

// Caller-bound buffers: the native path must honor bind_input/verify_bound
// and produce the same output bytes the simulator produces for the same
// input, end to end through one Session.
TEST(BackendNativeDifferential, BoundBuffersMatchSimulatorThroughFacade) {
  api::Session session({.workers = 2, .cache = nullptr});
  for (const auto& info : session.kernels()) {
    if (!info.native_backend() || !info.buffers.supported()) continue;
    SCOPED_TRACE(info.name);
    // In-contract input: the kernel's own synthetic workload bytes.
    sim::Memory staging(kernels::kMemBytes);
    kernels::make_kernel(info.name)->init_memory(staging);
    const auto input = staging.read_vector<uint8_t>(
        info.buffers.input_addr, info.buffers.input_bytes);

    std::vector<uint8_t> sim_out(info.buffers.output_bytes, 0xAA);
    std::vector<uint8_t> native_out(info.buffers.output_bytes, 0x55);
    auto sim_resp = session.request(info.name)
                        .spu(core::kConfigD)
                        .auto_orchestrate()
                        .input(std::span<const uint8_t>(input))
                        .output(std::span<uint8_t>(sim_out))
                        .run();
    ASSERT_TRUE(sim_resp.ok()) << sim_resp.error().to_string();
    auto native_resp = session.request(info.name)
                           .spu(core::kConfigD)
                           .auto_orchestrate()
                           .backend(ExecBackend::kNativeSwar)
                           .input(std::span<const uint8_t>(input))
                           .output(std::span<uint8_t>(native_out))
                           .run();
    ASSERT_TRUE(native_resp.ok()) << native_resp.error().to_string();
    EXPECT_EQ(sim_out, native_out);
  }
}

// Regression (cache keying): one Session, the same kernel/config under
// both backends — exactly one cache entry and one miss per (kernel, cfg,
// backend) key; replays hit.
TEST(BackendNative, OneCacheEntryPerBackendKey) {
  api::Session session({.workers = 2, .cache = nullptr});
  for (int round = 0; round < 2; ++round) {
    for (const auto backend :
         {ExecBackend::kSimulator, ExecBackend::kNativeSwar}) {
      auto resp = session.request("fir12")
                      .repeats(2)
                      .spu(core::kConfigA)
                      .auto_orchestrate()
                      .backend(backend)
                      .run();
      ASSERT_TRUE(resp.ok()) << resp.error().to_string();
      EXPECT_EQ(resp->cache_hit, round > 0);
    }
  }
  const auto stats = session.stats();
  EXPECT_EQ(stats.cache.entries, 2u);
  EXPECT_EQ(stats.cache.misses, 2u);
  EXPECT_EQ(stats.cache.hits, 2u);
}

// The native backend runs no cycle model: stats report the dynamic
// instruction count of the replaced stream and zero cycles.
TEST(BackendNative, StatsReportInstructionsNotCycles) {
  api::Session session({.workers = 1, .cache = nullptr});
  auto sim_resp = session.request("fir12").repeats(2).run();
  ASSERT_TRUE(sim_resp.ok()) << sim_resp.error().to_string();
  auto native_resp = session.request("fir12")
                         .repeats(2)
                         .backend(ExecBackend::kNativeSwar)
                         .run();
  ASSERT_TRUE(native_resp.ok()) << native_resp.error().to_string();
  EXPECT_EQ(native_resp->run.stats.cycles, 0u);
  EXPECT_EQ(native_resp->run.stats.instructions,
            sim_resp->run.stats.instructions);
}

// Pipeline-level differential: the whole video path executed on the native
// backend matches the composed scalar reference and the simulator-backend
// pipeline, frame for frame.
TEST(BackendNativeDifferential, VideoPipelineFullyNative) {
  api::Session session({.workers = 2, .cache = nullptr});
  for (uint64_t frame = 0; frame < 3; ++frame) {
    SCOPED_TRACE("frame " + std::to_string(frame));
    const auto rgb = ref::make_pixels(3 * 256, 0x56494452 + frame);
    auto build = [&](ExecBackend backend) {
      return session.pipeline()
          .then(session.request("Color Convert")
                    .spu(core::kConfigD)
                    .backend(backend))
          .then(session.request("2D Convolution")
                    .spu(core::kConfigD)
                    .backend(backend))
          .then(session.request("Motion Estimation")
                    .spu(core::kConfigD)
                    .backend(backend))
          .input(std::span<const int16_t>(rgb))
          .run();
    };
    auto sim_run = build(ExecBackend::kSimulator);
    ASSERT_TRUE(sim_run.ok()) << sim_run.error().to_string();
    auto native_run = build(ExecBackend::kNativeSwar);
    ASSERT_TRUE(native_run.ok()) << native_run.error().to_string();
    EXPECT_EQ(sim_run->output, native_run->output);

    const auto want = kernels::composed_video_pipeline_ref(rgb);
    const auto got = kernels::bytes_as_i16(native_run->output);
    EXPECT_EQ(want, got);
  }
}

// -- Arena restore -------------------------------------------------------------
// execute_native starts from the image lower_native captured after
// init_memory, not from clear() + init_memory(). These tests pin the
// equivalence on one reused scratch arena, the way an engine worker uses
// it.

// Every native preparation of the lowerable registry kernels at
// repeats=1: {baseline, manual, auto} x {A, D}.
struct NativeShape {
  std::string name;
  std::shared_ptr<const MediaKernel> kernel;
  PreparedProgram prepared;
};

std::vector<std::vector<NativeShape>> native_shapes_by_kind() {
  std::vector<std::vector<NativeShape>> by_kind(5);
  for (const auto& info : kernels::kernel_infos()) {
    if (!info.native_backend()) continue;
    std::shared_ptr<const MediaKernel> k = kernels::make_kernel(info.name);
    auto add = [&](size_t kind, const std::string& what, PreparedProgram p) {
      kernels::lower_native(*k, p);
      by_kind[kind].push_back({info.name + "/" + what, k, std::move(p)});
    };
    add(0, "baseline", kernels::prepare_baseline(*k, 1));
    size_t kind = 1;
    for (const auto& cfg : {core::kConfigA, core::kConfigD}) {
      const std::string cfg_name(cfg.name);
      if (info.has_manual_spu()) {
        try {
          add(kind, "manual/" + cfg_name,
              kernels::prepare_spu(*k, 1, cfg, SpuMode::Manual));
        } catch (const std::logic_error&) {
          // Not realizable under this geometry.
        }
      }
      add(kind + 1, "auto/" + cfg_name,
          kernels::prepare_spu(*k, 1, cfg, SpuMode::Auto));
      kind += 2;
    }
  }
  return by_kind;
}

TEST(BackendNativeArena, InterleavedRestoresMatchAFreshInit) {
  // Interleave: every kernel's shape of one kind, then the next kind, so
  // consecutive replays on the scratch arena are different kernels; then
  // the whole sequence again backwards.
  std::vector<const NativeShape*> order;
  const auto by_kind = native_shapes_by_kind();
  for (const auto& kind : by_kind) {
    for (const auto& shape : kind) order.push_back(&shape);
  }
  ASSERT_GT(order.size(), 20u);
  const size_t forward = order.size();
  for (size_t i = forward; i-- > 0;) order.push_back(order[i]);

  sim::Memory scratch(kernels::kMemBytes);
  for (const NativeShape* shape : order) {
    SCOPED_TRACE(shape->name);
    const MediaKernel& k = *shape->kernel;
    sim::Memory fresh(kernels::kMemBytes);
    fresh.clear();
    k.init_memory(fresh);

    // The arena execute_native binds into, after the previous job.
    scratch.restore(shape->prepared.native->image);
    ASSERT_EQ(std::memcmp(scratch.bytes().data(), fresh.bytes().data(),
                          kernels::kMemBytes),
              0)
        << "restored arena differs from clear() + init_memory()";

    // Then the whole execution, bound where the kernel accepts buffers,
    // against the same execution on a never-used arena.
    const kernels::BufferSpec spec = k.buffer_spec();
    std::vector<uint8_t> input;
    if (spec.supported()) {
      input = fresh.read_vector<uint8_t>(spec.input_addr, spec.input_bytes);
    }
    std::vector<uint8_t> out_scratch(spec.output_bytes);
    std::vector<uint8_t> out_fresh(spec.output_bytes);
    kernels::BufferBinding bind_scratch{input, out_scratch};
    kernels::BufferBinding bind_fresh{input, out_fresh};
    const bool bound = spec.supported();
    const auto run = kernels::execute_native(
        k, shape->prepared, &scratch, bound ? &bind_scratch : nullptr);
    sim::Memory unused(kernels::kMemBytes);
    const auto ref = kernels::execute_native(
        k, shape->prepared, &unused, bound ? &bind_fresh : nullptr);
    EXPECT_TRUE(run.verified);
    EXPECT_TRUE(ref.verified);
    EXPECT_EQ(out_scratch, out_fresh);
    ASSERT_EQ(std::memcmp(scratch.bytes().data(), unused.bytes().data(),
                          kernels::kMemBytes),
              0)
        << "reused arena ends differently from a never-used one";
  }
}

// A caller may write the scratch arena between executions (the way a
// phase probe re-runs init by hand). The next restore must undo it, even
// in a page no kernel image or trace ever touches.
TEST(BackendNativeArena, ForeignWriteIsUndoneByTheNextRestore) {
  const auto k = kernels::make_kernel("FIR12");
  auto p = kernels::prepare_baseline(*k, 1);
  kernels::lower_native(*k, p);
  constexpr uint64_t kForeign = kernels::kMemBytes - 4096;

  sim::Memory scratch(kernels::kMemBytes);
  ASSERT_TRUE(kernels::execute_native(*k, p, &scratch).verified);
  sim::Memory reference(kernels::kMemBytes);
  ASSERT_TRUE(kernels::execute_native(*k, p, &reference).verified);
  ASSERT_EQ(scratch.read64(kForeign), 0u);

  scratch.write64(kForeign, ~0ull);
  ASSERT_TRUE(kernels::execute_native(*k, p, &scratch).verified);
  EXPECT_EQ(scratch.read64(kForeign), 0u);
  EXPECT_EQ(std::memcmp(scratch.bytes().data(), reference.bytes().data(),
                        kernels::kMemBytes),
            0);
}

// -- Once-per-replay checks --------------------------------------------------
// run_trace checks the arena once and marks the trace's precomputed
// written pages once, instead of bounds-checking and marking per op.

bool all_zero(const sim::Memory& mem) {
  const auto b = mem.bytes();
  return std::all_of(b.begin(), b.end(), [](uint8_t v) { return v == 0; });
}

void replay(const PreparedProgram& p, sim::Memory& mem) {
  backend::NativeState st;
  st.mem = &mem;
  backend::run_trace(*p.native, st);
}

// clear() zeroes only the marked pages, so an all-zero arena after a replay
// proves the written-page mask covers every store; restoring the image
// over a replayed arena must give back exactly the image.
TEST(BackendNativeArena, WrittenPageMaskCoversEveryStore) {
  for (const auto& kind : native_shapes_by_kind()) {
    for (const NativeShape& shape : kind) {
      SCOPED_TRACE(shape.name);
      const backend::NativeTrace& t = *shape.prepared.native;
      sim::Memory image(kernels::kMemBytes);
      image.restore(t.image);

      sim::Memory mem(kernels::kMemBytes);
      mem.restore(t.image);
      replay(shape.prepared, mem);
      ASSERT_TRUE(shape.kernel->verify(mem));
      mem.restore(t.image);
      EXPECT_EQ(std::memcmp(mem.bytes().data(), image.bytes().data(),
                            kernels::kMemBytes),
                0)
          << "a second restore does not reproduce the image";
      replay(shape.prepared, mem);
      mem.clear();
      EXPECT_TRUE(all_zero(mem)) << "a store wrote outside the marked pages";
    }
  }
}

// A device that must never be reached: a replay checks its window first.
class UntouchableDevice : public sim::Device {
 public:
  void write32(uint64_t, uint32_t) override { ADD_FAILURE() << "write32"; }
  uint32_t read32(uint64_t) override {
    ADD_FAILURE() << "read32";
    return 0;
  }
};

// A wrong-size arena, or a device window over the trace's accesses, is
// rejected before the replay writes anything. A window clear of the
// accesses is fine.
TEST(BackendNativeArena, ReplayRejectsAMismatchedArenaUntouched) {
  UntouchableDevice dev;
  for (const auto& kind : native_shapes_by_kind()) {
    for (const NativeShape& shape : kind) {
      SCOPED_TRACE(shape.name);
      const backend::NativeTrace& t = *shape.prepared.native;
      ASSERT_LT(t.span_lo, t.span_hi);

      sim::Memory small(kernels::kMemBytes / 2);
      EXPECT_THROW(replay(shape.prepared, small), std::invalid_argument);
      EXPECT_TRUE(all_zero(small));

      for (const uint64_t base : {t.span_lo, t.span_hi - 4}) {
        sim::Memory mem(kernels::kMemBytes);
        mem.restore(t.image);
        const std::vector<uint8_t> before(mem.bytes().begin(),
                                          mem.bytes().end());
        mem.map_device(base, 4, &dev);
        EXPECT_THROW(replay(shape.prepared, mem), std::invalid_argument)
            << "window at " << base;
        EXPECT_TRUE(std::equal(before.begin(), before.end(),
                               mem.bytes().begin()));
      }

      if (t.span_hi + 8 <= kernels::kMemBytes) {
        sim::Memory mem(kernels::kMemBytes);
        mem.restore(t.image);
        mem.map_device(t.span_hi, 8, &dev);
        replay(shape.prepared, mem);
        EXPECT_TRUE(shape.kernel->verify(mem));
      }
    }
  }
}

// The trace optimiser's effect on the frame pipeline's three stages (manual
// SPU programs, config D), pinned. Before it these traces held 2,688, 1,280
// and 4,689 ops: each stage still replaces the same source instructions,
// in fewer ops.
TEST(BackendLowering, FrameStageTraceLengthsArePinned) {
  struct Stage {
    const char* kernel;
    size_t ops;
  };
  for (const Stage& s : {Stage{"Color Convert", 1921},
                         Stage{"2D Convolution", 992},
                         Stage{"Motion Estimation", 3665}}) {
    SCOPED_TRACE(s.kernel);
    const auto k = kernels::make_kernel(s.kernel);
    PreparedProgram p =
        kernels::prepare_spu(*k, 1, core::kConfigD, SpuMode::Manual);
    kernels::lower_native(*k, p);
    EXPECT_EQ(p.native->ops.size(), s.ops);
    EXPECT_GT(p.native->source_instructions, p.native->ops.size());
  }
}

// -- Lowering rejection paths ------------------------------------------------

backend::LoweringSpec plain_spec() {
  backend::LoweringSpec spec;
  spec.mem_bytes = kernels::kMemBytes;
  return spec;
}

TEST(BackendLowering, RejectsDataDependentBranch) {
  isa::Assembler a;
  a.li(isa::R1, 5);
  a.movd_to_mmx(isa::MM0, isa::R1);
  a.movd_from_mmx(isa::R2, isa::MM0);  // R2 is data from here on
  a.label("loop");
  a.nop();
  a.loopnz(isa::R2, "loop");  // data-dependent trip count
  a.halt();
  EXPECT_THROW((void)backend::lower(a.take(), plain_spec()),
               backend::LoweringError);
}

TEST(BackendLowering, RejectsDataDependentAddress) {
  isa::Assembler a;
  a.li(isa::R1, 0x1000);
  a.movd_to_mmx(isa::MM0, isa::R1);
  a.movd_from_mmx(isa::R2, isa::MM0);
  a.movq_load(isa::MM1, isa::R2, 0);  // base register carries data
  a.halt();
  EXPECT_THROW((void)backend::lower(a.take(), plain_spec()),
               backend::LoweringError);
}

TEST(BackendLowering, RejectsDataDependentSpuProgramming) {
  isa::Assembler a;
  core::emit_spu_base(a, core::SpuMmio::kDefaultBase);
  a.li(isa::R1, 7);
  a.movd_to_mmx(isa::MM0, isa::R1);
  a.movd_from_mmx(isa::R2, isa::MM0);
  a.st32(core::kSpuBaseReg, 0, isa::R2);  // CONFIG <- data
  a.halt();
  auto spec = plain_spec();
  spec.use_spu = true;
  EXPECT_THROW((void)backend::lower(a.take(), spec), backend::LoweringError);
}

TEST(BackendLowering, RejectsRunawayStreams) {
  isa::Assembler a;
  a.li(isa::R1, 1 << 20);
  a.label("spin");
  a.nop();
  a.loopnz(isa::R1, "spin");
  a.halt();
  auto spec = plain_spec();
  spec.max_ops = 1024;
  EXPECT_THROW((void)backend::lower(a.take(), spec), backend::LoweringError);
}

// Data may flow through the scalar pipe — the walker defers those
// instructions as native GP ops instead of bailing. Exercise the
// mechanism in isolation (the IIR/SAD kernels exercise it at scale):
// MMX data spilled to GP, shifted, mixed with a constant, stored, and
// moved back into MMX; the replay must match the simulator byte for byte.
TEST(BackendLowering, DefersDataDependentScalarComputation) {
  isa::Assembler a;
  a.li(isa::R1, 0x7BCD);
  a.movd_to_mmx(isa::MM0, isa::R1);
  a.paddw(isa::MM0, isa::MM0);         // MM0 now counts as data
  a.movd_from_mmx(isa::R2, isa::MM0);  // deferred from here on
  a.sshli(isa::R2, 3);
  a.saddi(isa::R2, 17);
  a.li(isa::R4, 21);
  a.smul(isa::R2, isa::R4);            // deferred x concrete
  a.li(isa::R3, 0x2000);
  a.st32(isa::R3, 0, isa::R2);
  a.st16(isa::R3, 8, isa::R2);
  a.movd_to_mmx(isa::MM1, isa::R2);
  a.halt();
  const isa::Program prog = a.take();

  sim::Machine m(prog, kernels::kMemBytes);
  m.run();

  const auto trace = backend::lower(prog, plain_spec());
  sim::Memory mem(kernels::kMemBytes);
  backend::NativeState st;
  st.mem = &mem;
  backend::run_trace(trace, st);

  EXPECT_EQ(m.memory().read_vector<uint8_t>(0x2000, 16),
            mem.read_vector<uint8_t>(0x2000, 16));
  EXPECT_EQ(m.mmx().read(isa::MM1).bits(), st.regs.read(isa::MM1).bits());
}

}  // namespace
}  // namespace subword
