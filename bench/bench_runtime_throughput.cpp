// Batch-runtime throughput: the paper's prologue-amortization economy at
// service level.
//
// A fixed request mix (every registry kernel, auto-orchestrated, a handful
// of distinct configurations) is pushed through the BatchEngine at
// increasing worker counts. Two effects are on display:
//
//  * throughput scales with workers, because jobs are independent and the
//    per-worker Machine is reset, not reallocated, between jobs;
//  * the orchestration cache turns the expensive half (provenance analysis
//    + program rewriting) into a one-time cost per unique configuration —
//    the same shape as the SPU's MMIO prologue amortizing over loop trips.
//
// It also records each kernel's native trace length, the deterministic
// measure of the native backend's work per job.
#include <chrono>
#include <cstdio>
#include <span>
#include <thread>
#include <vector>

#include "backend/native.h"
#include "bench_common.h"
#include "kernels/registry.h"
#include "ref/workload.h"
#include "runtime/batch_engine.h"
#include "runtime/tiling.h"

using namespace subword;
using namespace subword::bench;
using Clock = std::chrono::steady_clock;

namespace {

std::vector<runtime::KernelJob> request_mix(
    int copies, int repeats = 1,
    kernels::ExecBackend backend = kernels::ExecBackend::kSimulator) {
  // Every registry kernel x 2 configs, replicated `copies` times — a
  // repeated-config workload like a service hot set.
  std::vector<runtime::KernelJob> jobs;
  for (int c = 0; c < copies; ++c) {
    for (const auto& k : kernels::all_kernels()) {
      for (const auto& cfg : {core::kConfigA, core::kConfigD}) {
        runtime::KernelJob j;
        j.kernel = k->name();
        j.repeats = repeats;
        j.use_spu = true;
        j.mode = kernels::SpuMode::Auto;
        j.backend = backend;
        j.cfg = cfg;
        jobs.push_back(j);
      }
    }
  }
  return jobs;
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  constexpr int kCopies = 24;
  const auto jobs = request_mix(kCopies);
  std::printf(
      "Batch runtime throughput — %zu jobs (%zu unique configurations x %d "
      "replays)\nhardware concurrency: %u (speedup saturates there)\n\n",
      jobs.size(), jobs.size() / static_cast<size_t>(kCopies), kCopies,
      std::thread::hardware_concurrency());

  prof::Table t({"workers", "wall ms", "jobs/s", "speedup", "cache hits",
                 "misses", "hit rate", "prep ms (sum)", "exec ms (sum)"});
  BenchJson json("runtime_throughput");
  double base_ms = 0.0;
  double final_hit_rate = 0.0;
  for (const int workers : {1, 2, 4, 8}) {
    runtime::BatchEngine engine({.workers = workers, .cache = nullptr});
    const auto t0 = Clock::now();
    const auto results = engine.run_batch(jobs);
    const double wall = ms_since(t0);
    if (workers == 1) base_ms = wall;

    uint64_t prep_ns = 0;
    uint64_t exec_ns = 0;
    for (const auto& r : results) {
      check(r.ok && r.run.verified, "job on " + std::to_string(workers) +
                                        " workers (" + r.error + ")");
      prep_ns += r.prepare_ns;
      exec_ns += r.execute_ns;
    }
    const auto s = engine.stats();
    final_hit_rate = s.cache.hit_rate();
    t.add_row({std::to_string(workers), prof::fixed(wall, 1),
               prof::fixed(1000.0 * static_cast<double>(jobs.size()) / wall, 0),
               prof::fixed(base_ms / wall, 2), std::to_string(s.cache.hits),
               std::to_string(s.cache.misses), prof::pct(final_hit_rate, 1),
               prof::fixed(static_cast<double>(prep_ns) / 1e6, 1),
               prof::fixed(static_cast<double>(exec_ns) / 1e6, 1)});
    json.record(
        {{"kind", BenchJson::str("scaling")},
         {"workers", BenchJson::num(workers)},
         {"jobs", BenchJson::num(static_cast<uint64_t>(jobs.size()))},
         {"wall_ms", BenchJson::num(wall)},
         {"jobs_per_s",
          BenchJson::num(1000.0 * static_cast<double>(jobs.size()) / wall)},
         {"speedup_vs_1_worker", BenchJson::num(base_ms / wall)},
         {"cache_hits", BenchJson::num(s.cache.hits)},
         {"cache_misses", BenchJson::num(s.cache.misses)},
         {"hit_rate", BenchJson::num(final_hit_rate)},
         {"prepare_ms_sum",
          BenchJson::num(static_cast<double>(prep_ns) / 1e6)},
         {"execute_ms_sum",
          BenchJson::num(static_cast<double>(exec_ns) / 1e6)}});
  }
  std::printf("%s\n", t.render().c_str());

  // Cold vs warm on one engine: the amortization curve itself.
  runtime::BatchEngine warm({.workers = 4, .cache = nullptr});
  const auto cold0 = Clock::now();
  const auto cold_jobs = request_mix(1);
  (void)warm.run_batch(cold_jobs);
  const double cold_ms = ms_since(cold0);
  const auto warm0 = Clock::now();
  (void)warm.run_batch(request_mix(1));
  const double warm_ms = ms_since(warm0);
  std::printf(
      "Cold pass (%zu jobs, every config orchestrated): %.1f ms; warm pass "
      "(all cached): %.1f ms (%.2fx)\n\n",
      cold_jobs.size(), cold_ms, warm_ms, cold_ms / warm_ms);
  json.record({{"kind", BenchJson::str("amortization")},
               {"jobs", BenchJson::num(static_cast<uint64_t>(cold_jobs.size()))},
               {"cold_ms", BenchJson::num(cold_ms)},
               {"warm_ms", BenchJson::num(warm_ms)},
               {"cold_over_warm", BenchJson::num(cold_ms / warm_ms)}});
  // Backend dimension: the same request mix executed by the cycle-level
  // simulator vs the native-SWAR trace backend. Larger per-job repeats so
  // execution (not per-job fixed costs) dominates; one warm-up pass per
  // backend pays the prepare+lowering cost, the timed pass is all-cached —
  // the batch path a hot service actually runs.
  constexpr int kBackendCopies = 4;
  constexpr int kBackendRepeats = 16;
  std::printf("Backend dimension — same mix, repeats=%d, warm cache:\n",
              kBackendRepeats);
  prof::Table bt({"backend", "jobs", "wall ms", "jobs/s", "exec ms (sum)",
                  "prep ms (sum)"});
  double exec_ms[2] = {0.0, 0.0};
  double wall_ms[2] = {0.0, 0.0};
  for (const auto backend : {kernels::ExecBackend::kSimulator,
                             kernels::ExecBackend::kNativeSwar}) {
    const int idx = backend == kernels::ExecBackend::kSimulator ? 0 : 1;
    runtime::BatchEngine engine({.workers = 4, .cache = nullptr});
    (void)engine.run_batch(request_mix(1, kBackendRepeats, backend));
    const auto t0 = Clock::now();
    const auto results =
        engine.run_batch(request_mix(kBackendCopies, kBackendRepeats,
                                     backend));
    wall_ms[idx] = ms_since(t0);
    uint64_t prep_ns = 0;
    uint64_t exec_ns = 0;
    // Cycle stats are backend-optional (RunStats::has_cycles): the native
    // records carry JSON null instead of a poisonous zero, and the
    // simulator total only sums genuine measurements.
    uint64_t cycles_total = 0;
    bool all_cycles = true;
    for (const auto& r : results) {
      check(r.ok && r.run.verified,
            std::string("backend job (") + kernels::to_string(backend) +
                ", " + r.error + ")");
      check(r.cache_hit, "warm backend pass replays the cache");
      prep_ns += r.prepare_ns;
      exec_ns += r.execute_ns;
      if (const auto c = r.run.stats.cycles_opt()) {
        cycles_total += *c;
      } else {
        all_cycles = false;
      }
    }
    exec_ms[idx] = static_cast<double>(exec_ns) / 1e6;
    const double jobs_per_s =
        1000.0 * static_cast<double>(results.size()) / wall_ms[idx];
    bt.add_row({kernels::to_string(backend),
                std::to_string(results.size()), prof::fixed(wall_ms[idx], 1),
                prof::fixed(jobs_per_s, 0), prof::fixed(exec_ms[idx], 1),
                prof::fixed(static_cast<double>(prep_ns) / 1e6, 1)});
    json.record(
        {{"kind", BenchJson::str("backend")},
         {"backend", BenchJson::str(kernels::to_string(backend))},
         {"jobs", BenchJson::num(static_cast<uint64_t>(results.size()))},
         {"repeats", BenchJson::num(kBackendRepeats)},
         {"wall_ms", BenchJson::num(wall_ms[idx])},
         {"jobs_per_s", BenchJson::num(jobs_per_s)},
         {"cycles_total",
          all_cycles ? BenchJson::num(cycles_total) : "null"},
         {"execute_ms_sum", BenchJson::num(exec_ms[idx])},
         {"prepare_ms_sum",
          BenchJson::num(static_cast<double>(prep_ns) / 1e6)}});
  }
  const double exec_speedup = exec_ms[0] / exec_ms[1];
  const double wall_speedup = wall_ms[0] / wall_ms[1];
  std::printf("%s\n", bt.render().c_str());
  std::printf(
      "native-SWAR backend speedup over the simulator: %.1fx execution, "
      "%.1fx wall\n\n",
      exec_speedup, wall_speedup);
  json.record({{"kind", BenchJson::str("backend_speedup")},
               {"execute_speedup", BenchJson::num(exec_speedup)},
               {"wall_speedup", BenchJson::num(wall_speedup)}});

  // Native trace length per kernel (auto-orchestrated, config D): the ops a
  // replay dispatches, deterministic, so the regression gate fails on any
  // lowering change that lengthens a trace. `instructions` is the source
  // stream the trace replaces.
  std::printf("Native trace length — auto-orchestrated, config D:\n");
  prof::Table nt({"kernel", "trace ops", "source instructions"});
  for (const auto& k : kernels::all_kernels()) {
    auto p = kernels::prepare_spu(*k, 1, core::kConfigD,
                                  kernels::SpuMode::Auto);
    kernels::lower_native(*k, p);
    const auto ops = static_cast<uint64_t>(p.native->ops.size());
    nt.add_row({k->name(), std::to_string(ops),
                std::to_string(p.native->source_instructions)});
    json.record({{"kind", BenchJson::str("native_trace")},
                 {"kernel", BenchJson::str(k->name())},
                 {"trace_ops", BenchJson::num(ops)},
                 {"instructions",
                  BenchJson::num(p.native->source_instructions)}});
  }
  std::printf("%s\n", nt.render().c_str());

  // -- Frame tiling: ONE request sharded across the engine -------------------
  // A 1080p interleaved-RGB frame (2,073,600 pixels in 16-bit lanes) cut by
  // the color-convert kernel's base tile (256 pixels) into 8100 jobs that
  // all replay one cached preparation, executed on the native backend so
  // per-tile execution — not simulation — is what has to scale. The
  // contention counters attribute any flat spot: time queued vs time
  // acquiring the cache's shared_mutex vs scratch-arena churn.
  constexpr size_t kFramePixels = 1920ull * 1080;
  const auto frame_lanes =
      ref::make_pixels(3 * kFramePixels, /*seed=*/0x1080);
  const std::span<const uint8_t> frame(
      reinterpret_cast<const uint8_t*>(frame_lanes.data()),
      frame_lanes.size() * 2);
  const auto* cc = kernels::find_kernel_info("Color Convert");
  check(cc != nullptr && cc->buffers.tileable, "Color Convert is tileable");
  const auto geom = runtime::plan_tiles(cc->buffers, frame.size());
  check(geom.has_value() && geom->tail_units == 0,
        "a 1080p frame tiles exactly");
  std::vector<uint8_t> y_plane(geom->frame_output_bytes);

  runtime::KernelJob proto;
  proto.kernel = cc->name;
  proto.use_spu = true;
  proto.mode = kernels::SpuMode::Auto;
  proto.backend = kernels::ExecBackend::kNativeSwar;
  proto.cfg = core::kConfigD;

  std::printf(
      "Tiled 1080p color convert — %zu tiles of %zu bytes, native backend, "
      "one shared preparation:\n",
      geom->tiles, geom->tile_input_bytes);
  prof::Table tt({"workers", "wall ms", "tiles/s", "speedup", "spread",
                  "queue wait ms", "peak depth", "lock wait ms",
                  "scratch allocs"});
  double tiled_base_ms = 0.0;
  double tiled_speedup_4w = 0.0;
  for (const int workers : {1, 2, 4, 8}) {
    runtime::BatchEngine engine({.workers = workers, .cache = nullptr});
    // One warm-up job (same OrchestrationKey; buffers are not part of it)
    // pays the preparation, so the sweep times pure fan-out and every tile
    // is a cache hit — deterministic economics for the regression gate.
    (void)engine.run_batch({proto});
    const auto t0 = Clock::now();
    auto gathered = runtime::gather_tiled(
        runtime::submit_tiled(engine, proto, *geom, frame, y_plane));
    const double wall = ms_since(t0);
    check(gathered.result.ok && gathered.result.run.verified,
          "tiled 1080p fan-out on " + std::to_string(workers) + " workers");
    check(gathered.jobs == geom->tiles && gathered.cache_hits == geom->tiles,
          "every tile replays the one cached preparation");
    if (workers == 1) tiled_base_ms = wall;
    const double speedup = tiled_base_ms / wall;
    if (workers == 4) tiled_speedup_4w = speedup;
    const auto s = engine.stats();
    const double tiles_per_s =
        1000.0 * static_cast<double>(geom->tiles) / wall;
    tt.add_row({std::to_string(workers), prof::fixed(wall, 1),
                prof::fixed(tiles_per_s, 0), prof::fixed(speedup, 2),
                std::to_string(gathered.workers_used),
                prof::fixed(static_cast<double>(s.queue_wait_ns) / 1e6, 1),
                std::to_string(s.queue_peak_depth),
                prof::fixed(static_cast<double>(s.cache.lock_wait_ns) / 1e6,
                            2),
                std::to_string(s.scratch_arena_allocs +
                               s.scratch_machine_allocs)});
    json.record(
        {{"kind", BenchJson::str("tiled_scaling")},
         {"workers", BenchJson::num(workers)},
         {"jobs", BenchJson::num(static_cast<uint64_t>(geom->tiles))},
         {"wall_ms", BenchJson::num(wall)},
         {"tiles_per_s", BenchJson::num(tiles_per_s)},
         {"speedup_vs_1_worker", BenchJson::num(speedup)},
         {"tile_cache_hits",
          BenchJson::num(static_cast<uint64_t>(gathered.cache_hits))},
         {"workers_spread", BenchJson::num(gathered.workers_used)},
         {"queue_wait_ms",
          BenchJson::num(static_cast<double>(s.queue_wait_ns) / 1e6)},
         {"queue_peak_depth", BenchJson::num(s.queue_peak_depth)},
         {"submit_block_ms",
          BenchJson::num(static_cast<double>(s.submit_block_ns) / 1e6)},
         {"cache_lock_wait_ms",
          BenchJson::num(static_cast<double>(s.cache.lock_wait_ns) / 1e6)},
         {"scratch_alloc_count", BenchJson::num(s.scratch_arena_allocs +
                                                s.scratch_machine_allocs)}});
  }
  std::printf("%s\n", tt.render().c_str());
  // The scaling claim is hardware-gated: on a box with < 4 cores the sweep
  // cannot demonstrate 4-way scaling, so it reports instead of asserting.
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw >= 4) {
    check(tiled_speedup_4w >= 2.0,
          "tiled fan-out >= 2x at 4 workers (got " +
              std::to_string(tiled_speedup_4w) + "x)");
  } else {
    std::printf(
        "hardware limits: only %u core(s) — 4-worker tiling speedup was "
        "%.2fx, scaling assertion skipped (needs >= 4 cores)\n\n",
        hw, tiled_speedup_4w);
  }

  if (want_json(argc, argv)) {
    const auto path = json.write();
    check(!path.empty(), "writing BENCH_runtime_throughput.json");
    std::printf("wrote %s\n", path.c_str());
  }

  std::printf(
      "Reading: each unique (kernel, size, crossbar, options) is "
      "orchestrated exactly once\nand replayed from the shared cache "
      "thereafter — the MMIO-prologue economy of the\npaper, lifted from "
      "loop trips to request volume.\n");

  check(final_hit_rate > 0.9, "orchestration-cache hit rate > 90%");
  check(exec_speedup >= 10.0,
        "native backend >= 10x simulator execution throughput");
  return 0;
}
