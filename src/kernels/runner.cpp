#include "kernels/runner.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "backend/lowering.h"
#include "backend/native.h"
#include "core/mmio.h"

namespace subword::kernels {

PreparedProgram prepare_baseline(const MediaKernel& k, int repeats,
                                 sim::PipelineConfig pc) {
  PreparedProgram p;
  p.program = std::make_shared<const isa::Program>(k.build_mmx(repeats));
  p.pc = pc;
  p.use_spu = false;
  p.repeats = repeats;
  return p;
}

PreparedProgram prepare_spu(const MediaKernel& k, int repeats,
                            const core::CrossbarConfig& cfg, SpuMode mode,
                            sim::PipelineConfig pc,
                            const core::OrchestratorOptions* opts) {
  PreparedProgram p;
  p.cfg = cfg;
  p.pc = pc;
  p.pc.extra_spu_stage = true;
  p.use_spu = true;
  p.repeats = repeats;

  if (mode == SpuMode::Manual) {
    auto manual = k.build_spu(cfg, repeats);
    if (!manual.has_value()) {
      throw std::logic_error("prepare_spu: kernel '" + k.name() +
                             "' has no manual SPU variant");
    }
    p.program = std::make_shared<const isa::Program>(std::move(*manual));
  } else {
    core::OrchestratorOptions o;
    if (opts != nullptr) o = *opts;
    o.config = cfg;
    p.mmio_base = o.mmio_base;
    core::Orchestrator orch(o);
    auto result = std::make_shared<core::OrchestrationResult>(
        orch.run(k.build_mmx(repeats)));
    p.num_contexts =
        std::max<int>(1, static_cast<int>(result->contexts.size()));
    p.program = std::shared_ptr<const isa::Program>(result, &result->program);
    p.orchestration = std::move(result);
  }
  return p;
}

namespace {

// Validate a non-empty binding against the kernel's spec before touching
// the machine; the facade pre-validates, this is the layer's own guard.
void check_binding(const MediaKernel& k, const BufferSpec& spec,
                   const BufferBinding& b) {
  if (!spec.supported()) {
    throw std::invalid_argument("execute_prepared: kernel '" + k.name() +
                                "' does not support user-owned buffers");
  }
  if (!b.input.empty() && b.input.size() != spec.input_bytes) {
    throw std::invalid_argument(
        "execute_prepared: input buffer for '" + k.name() + "' is " +
        std::to_string(b.input.size()) + " bytes, spec wants " +
        std::to_string(spec.input_bytes));
  }
  if (!b.output.empty() && b.output.size() != spec.output_bytes) {
    throw std::invalid_argument(
        "execute_prepared: output buffer for '" + k.name() + "' is " +
        std::to_string(b.output.size()) + " bytes, spec wants " +
        std::to_string(spec.output_bytes));
  }
}

}  // namespace

KernelRun execute_prepared(const MediaKernel& k, const PreparedProgram& p,
                           sim::Machine* scratch,
                           const BufferBinding* buffers) {
  const bool bound = buffers != nullptr && !buffers->empty();
  BufferSpec spec;
  if (bound) {
    spec = k.buffer_spec();
    check_binding(k, spec, *buffers);
  }

  KernelRun out;
  out.orchestration = p.orchestration;

  std::optional<sim::Machine> local;
  sim::Machine* m;
  if (scratch != nullptr && scratch->memory().size() == kMemBytes) {
    scratch->reset(p.program, p.pc);
    m = scratch;
  } else {
    local.emplace(p.program, kMemBytes, p.pc);
    m = &*local;
  }

  // The Spu/SpuMmio live on this stack frame: a reused scratch machine
  // must never leave pointers to them behind, including on exception
  // unwind (e.g. a max_cycles overrun throwing out of run()).
  struct DetachGuard {
    sim::Machine* m;
    ~DetachGuard() {
      if (m != nullptr) {
        m->set_router(nullptr);
        m->memory().unmap_device();
      }
    }
  } guard{m == scratch ? m : nullptr};

  std::optional<core::Spu> spu;
  std::optional<core::SpuMmio> mmio;
  if (p.use_spu) {
    spu.emplace(p.cfg, p.num_contexts);
    mmio.emplace(&*spu);
    m->memory().map_device(p.mmio_base, core::SpuMmio::kWindowSize, &*mmio);
    m->set_router(&*spu);
  }
  k.init_memory(m->memory());
  const bool bound_input = bound && !buffers->input.empty();
  if (bound_input) k.bind_input(m->memory(), buffers->input);
  out.stats = m->run();
  out.verified = bound_input ? k.verify_bound(m->memory(), buffers->input)
                             : k.verify(m->memory());
  // Copy back only verified outputs: a failed verification must never
  // clobber the caller's buffer with divergent data.
  if (bound && out.verified && !buffers->output.empty()) {
    const auto bytes = m->memory().read_vector<uint8_t>(spec.output_addr,
                                                        spec.output_bytes);
    std::copy(bytes.begin(), bytes.end(), buffers->output.begin());
  }
  if (spu) out.spu = spu->run_stats();
  return out;
}

void lower_native(const MediaKernel& k, PreparedProgram& p) {
  backend::LoweringSpec spec;
  spec.cfg = p.cfg;
  spec.use_spu = p.use_spu;
  spec.num_contexts = p.num_contexts;
  spec.mmio_base = p.mmio_base;
  spec.mem_bytes = kMemBytes;
  spec.init = [&k](sim::Memory& mem) { k.init_memory(mem); };
  const BufferSpec bs = k.buffer_spec();
  if (bs.supported()) {
    // Only the primary input window varies per execution; auxiliary
    // tables keep their deterministic synthetic values (kernel.h).
    spec.data_regions.push_back({bs.input_addr, bs.input_bytes});
  }
  p.native = std::make_shared<const backend::NativeTrace>(
      backend::lower(*p.program, spec));
}

KernelRun execute_native(const MediaKernel& k, const PreparedProgram& p,
                         sim::Memory* scratch, const BufferBinding* buffers) {
  if (p.native == nullptr) {
    throw std::logic_error("execute_native: prepared program for '" +
                           k.name() + "' carries no native trace; prepare "
                           "with lower_native first");
  }
  const bool bound = buffers != nullptr && !buffers->empty();
  BufferSpec spec;
  if (bound) {
    spec = k.buffer_spec();
    check_binding(k, spec, *buffers);
  }

  KernelRun out;
  out.orchestration = p.orchestration;

  std::optional<sim::Memory> local;
  sim::Memory* mem;
  if (scratch != nullptr && scratch->size() == kMemBytes) {
    scratch->unmap_device();
    mem = scratch;
  } else {
    local.emplace(kMemBytes);
    mem = &*local;
  }

  // The post-init arena captured at lowering time stands in for
  // clear() + init_memory(): only the pages the last job or the image
  // touch are rewritten.
  mem->restore(p.native->image);
  const bool bound_input = bound && !buffers->input.empty();
  if (bound_input) k.bind_input(*mem, buffers->input);

  backend::NativeState st;
  st.mem = mem;
  backend::run_trace(*p.native, st);

  // No cycle model ran; report the dynamic instruction count the trace
  // replaced so throughput accounting stays meaningful, and mark the cycle
  // stats absent so mixed-backend aggregation cannot absorb the zero.
  out.stats.instructions = p.native->source_instructions;
  out.stats.has_cycles = false;
  out.verified = bound_input ? k.verify_bound(*mem, buffers->input)
                             : k.verify(*mem);
  if (bound && out.verified && !buffers->output.empty()) {
    const auto bytes =
        mem->read_vector<uint8_t>(spec.output_addr, spec.output_bytes);
    std::copy(bytes.begin(), bytes.end(), buffers->output.begin());
  }
  return out;
}

KernelRun run_baseline(const MediaKernel& k, int repeats,
                       sim::PipelineConfig pc) {
  return execute_prepared(k, prepare_baseline(k, repeats, pc));
}

KernelRun run_spu(const MediaKernel& k, int repeats,
                  const core::CrossbarConfig& cfg, SpuMode mode,
                  sim::PipelineConfig pc) {
  return execute_prepared(k, prepare_spu(k, repeats, cfg, mode, pc));
}

}  // namespace subword::kernels
