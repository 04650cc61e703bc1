#include "api/pipeline.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "api/session.h"
#include "kernels/registry.h"
#include "runtime/tiling.h"

namespace subword::api {

namespace {

std::string stage_context(size_t i, const std::string& kernel) {
  return "pipeline stage " + std::to_string(i) + " (" + kernel + ")";
}

}  // namespace

Pipeline& Pipeline::then(Request stage) {
  stages_.push_back(std::move(stage));
  return *this;
}

Pipeline& Pipeline::input(std::span<const uint8_t> bytes) {
  input_ = bytes;
  return *this;
}

Pipeline& Pipeline::input(std::span<const int16_t> samples) {
  input_ = detail::as_byte_span(samples);
  return *this;
}

Pipeline& Pipeline::output(std::span<uint8_t> bytes) {
  output_ = bytes;
  return *this;
}

Pipeline& Pipeline::output(std::span<int16_t> samples) {
  output_ = detail::as_writable_byte_span(samples);
  return *this;
}

Pipeline& Pipeline::tile() {
  tile_ = true;
  return *this;
}

Result<Pipeline::Validated> Pipeline::validate() const {
  if (stages_.empty()) {
    return ApiError{ErrorCode::kInvalidArgument, "pipeline has no stages",
                    "pipeline"};
  }

  Validated v;
  v.jobs.reserve(stages_.size());
  v.specs.reserve(stages_.size());
  for (size_t i = 0; i < stages_.size(); ++i) {
    const Request& st = stages_[i];
    const std::string context = stage_context(i, st.kernel_name());
    if (st.session_ != session_) {
      return ApiError{ErrorCode::kInvalidArgument,
                      "stage was built on a different Session", context};
    }
    if (!st.buffers_.empty()) {
      return ApiError{ErrorCode::kInvalidArgument,
                      "stages must not bind buffers directly; the pipeline "
                      "owns the inter-stage buffers (use Pipeline::input/"
                      "output for the endpoints)",
                      context};
    }
    auto job = st.build();
    if (!job.ok()) return job.error();
    const auto* info = kernels::find_kernel_info(job->kernel);
    if (info == nullptr) {  // unreachable: build() canonicalized the name
      return ApiError{ErrorCode::kUnknownKernel,
                      "kernel vanished from the registry", context};
    }
    if (!info->buffers.supported()) {
      return ApiError{ErrorCode::kBuffersUnsupported,
                      "kernel does not accept user-owned buffers, so it "
                      "cannot be a pipeline stage",
                      context};
    }
    v.specs.push_back(info->buffers);
    v.jobs.push_back(*std::move(job));
  }

  for (size_t i = 1; i < v.specs.size(); ++i) {
    // A downstream stage may consume a prefix of the upstream output, but
    // never more than the upstream produced. In a tiled run the rule is
    // the same, applied per tile.
    if (v.specs[i - 1].output_bytes < v.specs[i].input_bytes) {
      return ApiError{
          ErrorCode::kPipelineMismatch,
          v.jobs[i - 1].kernel + " produces " +
              std::to_string(v.specs[i - 1].output_bytes) + " bytes but " +
              v.jobs[i].kernel + " needs " +
              std::to_string(v.specs[i].input_bytes),
          "pipeline stage " + std::to_string(i)};
    }
  }

  if (tile_) {
    const std::string context = stage_context(0, v.jobs.front().kernel);
    std::string terr;
    const auto geom =
        runtime::plan_tiles(v.specs.front(), input_.size(), &terr);
    if (!geom) {
      return ApiError{ErrorCode::kTilingUnsupported, std::move(terr),
                      context};
    }
    if (geom->tail_units != 0) {
      // A padded tail tile's valid output is a fragment of a tile, which
      // cannot feed a downstream stage expecting a full upstream tile.
      return ApiError{ErrorCode::kTilingUnsupported,
                      "frame leaves a partial tail tile; a streamed "
                      "pipeline needs the frame to tile exactly",
                      context};
    }
    v.geom = *geom;
    const size_t want = geom->tiles * v.specs.back().output_bytes;
    if (!output_.empty() && output_.size() != want) {
      return ApiError{
          ErrorCode::kBufferSizeMismatch,
          "pipeline output is " + std::to_string(output_.size()) +
              " bytes, the gathered tiled output is " + std::to_string(want),
          stage_context(v.specs.size() - 1, v.jobs.back().kernel)};
    }
    return v;
  }

  if (input_.size() != v.specs.front().input_bytes) {
    return ApiError{
        ErrorCode::kBufferSizeMismatch,
        "pipeline input is " + std::to_string(input_.size()) +
            " bytes, first stage wants " +
            std::to_string(v.specs.front().input_bytes),
        stage_context(0, v.jobs.front().kernel)};
  }
  if (!output_.empty() && output_.size() != v.specs.back().output_bytes) {
    return ApiError{
        ErrorCode::kBufferSizeMismatch,
        "pipeline output is " + std::to_string(output_.size()) +
            " bytes, last stage produces " +
            std::to_string(v.specs.back().output_bytes),
        stage_context(v.specs.size() - 1, v.jobs.back().kernel)};
  }
  return v;
}

Result<PipelineRun> Pipeline::run() {
  auto v = validate();
  if (!v.ok()) return v.error();
  return tile_ ? run_tiled(*std::move(v)) : run_untiled(*std::move(v));
}

Result<SubmittedPipeline> Pipeline::submit() {
  auto v = validate();
  if (!v.ok()) return v.error();
  // The driver thread owns a moved-in copy of this Pipeline (stages,
  // spans, tiling flag); the spans still view caller memory, which must
  // outlive wait(). run() revalidates — cheap, and it keeps one code path.
  auto state = std::make_shared<Pipeline>(std::move(*this));
  std::promise<Result<PipelineRun>> promise;
  auto fut = promise.get_future();
  std::thread driver([state, promise = std::move(promise)]() mutable {
    promise.set_value(state->run());
  });
  return SubmittedPipeline(std::move(driver), std::move(fut));
}

SubmittedPipeline::~SubmittedPipeline() {
  if (driver_.joinable()) driver_.join();
}

Result<PipelineRun> SubmittedPipeline::wait() {
  if (driver_.joinable()) driver_.join();
  if (!fut_.valid()) {
    return ApiError{ErrorCode::kInvalidArgument,
                    "wait() already consumed this SubmittedPipeline",
                    "pipeline"};
  }
  return fut_.get();
}

namespace {

// Append one stage's response to the run's stage list and fold it into
// the run totals.
void add_stage(PipelineRun& out, std::string kernel,
               const kernels::BufferSpec& spec, Response resp) {
  if (const auto c = resp.run.stats.cycles_opt(); c && out.total_cycles) {
    *out.total_cycles += *c;
  } else {
    out.total_cycles.reset();  // a cycle-less stage voids the total
  }
  out.total_routed_operands += resp.run.stats.spu_routed_ops;
  out.all_cache_hits = out.all_cache_hits && resp.cache_hit;
  StageRun sr;
  sr.kernel = std::move(kernel);
  sr.response = std::move(resp);
  sr.input_bytes = spec.input_bytes;
  sr.output_bytes = spec.output_bytes;
  out.stages.push_back(std::move(sr));
}

}  // namespace

std::vector<runtime::KernelJob> Pipeline::chain(
    const Validated& v, std::span<const uint8_t> input,
    std::vector<std::vector<uint8_t>>& bufs) {
  std::vector<runtime::KernelJob> jobs = v.jobs;
  bufs.resize(jobs.size());
  for (size_t s = 0; s < jobs.size(); ++s) {
    bufs[s].assign(v.specs[s].output_bytes, 0);
    jobs[s].buffers.input =
        s == 0 ? input
               : std::span<const uint8_t>(bufs[s - 1])
                     .first(v.specs[s].input_bytes);
    jobs[s].buffers.output = bufs[s];
  }
  return jobs;
}

Result<PipelineRun> Pipeline::run_untiled(Validated v) {
  // One chain: the engine runs the stages back to back on one worker, each
  // reading (a prefix of) the buffer its predecessor wrote.
  std::vector<std::vector<uint8_t>> bufs;
  auto results =
      session_->engine_.submit_chain(chain(v, input_, bufs)).get();

  PipelineRun out;
  out.stages.reserve(v.jobs.size());
  out.all_cache_hits = true;
  out.total_cycles = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    // to_response maps a failed stage verification to kVerificationFailed,
    // so an ok() response here is bit-exact for the data the stage saw.
    auto resp = detail::to_response(std::move(results[i]),
                                    stage_context(i, v.jobs[i].kernel));
    if (!resp.ok()) return resp.error();
    add_stage(out, v.jobs[i].kernel, v.specs[i], *std::move(resp));
  }
  if (!output_.empty()) {
    std::copy(bufs.back().begin(), bufs.back().end(), output_.begin());
  }
  out.output = std::move(bufs.back());
  return out;
}

Result<PipelineRun> Pipeline::run_tiled(Validated v) {
  const size_t S = v.jobs.size();       // stages
  const size_t K = v.geom.tiles;        // tiles (exact fit; no tail)
  const size_t out_bytes = v.specs.back().output_bytes;

  // One chain per tile: tile k's stages run in order on whichever worker
  // picks the chain up, so stage s starts tile k the moment stage s-1
  // finished it, with no round trip through this thread. bufs[k] holds
  // the tile's per-stage outputs and must outlive its chain.
  std::vector<std::vector<std::vector<uint8_t>>> bufs(K);
  std::vector<std::future<std::vector<runtime::JobResult>>> futs;
  futs.reserve(K);
  for (size_t k = 0; k < K; ++k) {
    const auto input =
        input_.subspan(k * v.geom.input_stride, v.geom.tile_input_bytes);
    futs.push_back(session_->engine_.submit_chain(chain(v, input, bufs[k])));
  }

  // Gather in tile order. Every chain is waited for, even after a
  // failure, because each references buffers that die with this frame;
  // the first failing tile's typed error is the run's.
  PipelineRun out;
  out.tiles = K;
  out.output.resize(K * out_bytes);
  std::vector<runtime::JobResultAccumulator> acc(S);
  std::optional<ApiError> failure;
  for (size_t k = 0; k < K; ++k) {
    auto results = futs[k].get();
    for (size_t s = 0; s < results.size() && !failure; ++s) {
      runtime::JobResult& r = results[s];
      if (r.ok && r.run.verified) {
        acc[s].add(std::move(r));
      } else {
        failure = detail::to_response(std::move(r),
                                      stage_context(s, v.jobs[s].kernel) +
                                          ", tile " + std::to_string(k))
                      .error();
      }
    }
    if (!failure) {
      std::copy(bufs[k].back().begin(), bufs[k].back().end(),
                out.output.begin() + static_cast<ptrdiff_t>(k * out_bytes));
    }
  }
  if (failure) return *failure;

  out.all_cache_hits = true;
  out.total_cycles = 0;
  for (size_t s = 0; s < S; ++s) {
    const size_t jobs = acc[s].jobs();
    const size_t hits = acc[s].cache_hits();
    const int workers = acc[s].workers_used();
    auto resp = detail::to_response(std::move(acc[s]).take(),
                                    stage_context(s, v.jobs[s].kernel));
    if (!resp.ok()) return resp.error();  // unreachable: every tile settled ok
    resp->jobs_fanned_out = jobs;
    resp->tile_cache_hits = hits;
    resp->workers_used = workers;
    add_stage(out, v.jobs[s].kernel, v.specs[s], *std::move(resp));
  }
  if (!output_.empty()) {
    std::copy(out.output.begin(), out.output.end(), output_.begin());
  }
  return out;
}

}  // namespace subword::api
