#include "runtime/batch_engine.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "backend/lowering.h"
#include "kernels/registry.h"

namespace subword::runtime {

namespace {

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Deterministic exploration sampling: hash the per-engine sequence number
// to a uniform [0,1) double. Reproducible across runs, unlike rand().
uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double unit_hash(uint64_t seq) {
  return static_cast<double>(splitmix64(seq) >> 11) * 0x1.0p-53;
}

}  // namespace

BatchEngine::BatchEngine(Options opts) {
  cache_ = opts.cache ? std::move(opts.cache)
                      : std::make_shared<OrchestrationCache>();
  queue_capacity_ =
      opts.queue_capacity > 0 ? static_cast<size_t>(opts.queue_capacity) : 0;
  shed_queue_depth_ =
      opts.shed_queue_depth > 0 ? static_cast<size_t>(opts.shed_queue_depth)
                                : 0;
  shed_max_block_ns_ = opts.shed_max_block_ns;
  explore_rate_ = opts.explore_rate < 0   ? 0
                  : opts.explore_rate > 1 ? 1
                                          : opts.explore_rate;
  int n = opts.workers;
  if (n <= 0) {
    n = static_cast<int>(std::thread::hardware_concurrency());
    if (n <= 0) n = 1;
  }
  threads_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

BatchEngine::~BatchEngine() { shutdown(); }

void BatchEngine::Task::deliver(JobResult&& r) {
  if (chain.empty()) {
    std::get<0>(promise).set_value(std::move(r));
  } else {
    if (results.empty()) results.reserve(chain.size());
    results.push_back(std::move(r));
  }
}

void BatchEngine::Task::close() {
  if (!chain.empty()) std::get<1>(promise).set_value(std::move(results));
}

void BatchEngine::Task::abandon(JobErrorKind kind, std::string error) {
  JobResult r;
  r.ok = false;
  r.kind = kind;
  r.error = std::move(error);
  deliver(std::move(r));
  close();
}

std::future<JobResult> BatchEngine::submit(KernelJob job) {
  Task task;
  task.job = std::move(job);
  std::future<JobResult> fut = std::get<0>(task.promise).get_future();
  enqueue(std::move(task));
  return fut;
}

std::future<std::vector<JobResult>> BatchEngine::submit_chain(
    std::vector<KernelJob> jobs) {
  Task task;
  auto& promise =
      task.promise.emplace<std::promise<std::vector<JobResult>>>();
  std::future<std::vector<JobResult>> fut = promise.get_future();
  if (jobs.empty()) {
    promise.set_value({});
    return fut;
  }
  task.chain = std::move(jobs);
  enqueue(std::move(task));
  return fut;
}

void BatchEngine::enqueue(Task&& task) {
  const size_t jobs = task.size();
  {
    std::unique_lock lock(mu_);
    // Admission control: shed instead of queueing once the depth threshold
    // is crossed. Decided under the queue mutex, so the depth read cannot
    // race a concurrent push — the policy is exact, not advisory.
    if (accepting_ && shed_queue_depth_ != 0 &&
        queue_.size() >= shed_queue_depth_) {
      agg_.jobs_shed += jobs;
      task.abandon(JobErrorKind::kOverloaded,
                   "shed: engine queue depth " +
                       std::to_string(queue_.size()) + " >= shed threshold " +
                       std::to_string(shed_queue_depth_));
      return;
    }
    if (queue_capacity_ != 0 && accepting_ &&
        queue_.size() >= queue_capacity_) {
      // Bounded queue: block the submitter (backpressure) until a worker
      // makes room or shutdown begins. Workers never wait on submitters,
      // so this cannot deadlock a pipeline driver feeding the engine.
      // With shed_max_block_ns the wait is bounded: a submission that
      // would block longer is shed with kOverloaded instead.
      const uint64_t b0 = now_ns();
      const auto have_room = [this] {
        return !accepting_ || queue_.size() < queue_capacity_;
      };
      bool room = true;
      if (shed_max_block_ns_ != 0) {
        room = cv_space_.wait_for(
            lock, std::chrono::nanoseconds(shed_max_block_ns_), have_room);
      } else {
        cv_space_.wait(lock, have_room);
      }
      agg_.submit_block_ns += now_ns() - b0;
      if (!room) {
        agg_.jobs_shed += jobs;
        task.abandon(JobErrorKind::kOverloaded,
                     "shed: blocked on a full queue (capacity " +
                         std::to_string(queue_capacity_) + ") longer than " +
                         std::to_string(shed_max_block_ns_) + " ns");
        return;
      }
    }
    if (!accepting_) {
      agg_.jobs_rejected += jobs;
      task.abandon(JobErrorKind::kRejected,
                   "submit after shutdown: engine is not accepting jobs");
      return;
    }
    agg_.jobs_submitted += jobs;
    task.enqueue_ns = now_ns();
    queue_.push_back(std::move(task));
    queue_depth_.store(queue_.size(), std::memory_order_relaxed);
    agg_.queue_peak_depth =
        std::max(agg_.queue_peak_depth, static_cast<uint64_t>(queue_.size()));
  }
  cv_.notify_one();
}

std::vector<JobResult> BatchEngine::run_batch(std::vector<KernelJob> jobs) {
  std::vector<std::future<JobResult>> futures;
  futures.reserve(jobs.size());
  for (auto& j : jobs) futures.push_back(submit(std::move(j)));
  std::vector<JobResult> out;
  out.reserve(futures.size());
  for (auto& f : futures) out.push_back(f.get());
  return out;
}

void BatchEngine::shutdown() {
  bool join_here = false;
  {
    std::lock_guard lock(mu_);
    accepting_ = false;
    draining_ = true;
    if (!joined_) {
      joined_ = true;
      join_here = true;
    }
  }
  cv_.notify_all();
  cv_space_.notify_all();
  if (join_here) {
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }
}

void BatchEngine::cancel() {
  std::deque<Task> dropped;
  {
    std::lock_guard lock(mu_);
    accepting_ = false;
    draining_ = true;
    dropped.swap(queue_);
    queue_depth_.store(0, std::memory_order_relaxed);
  }
  cv_.notify_all();
  cv_space_.notify_all();
  for (auto& task : dropped) {
    {
      std::lock_guard lock(mu_);
      agg_.jobs_completed += task.size();
      agg_.jobs_failed += task.size();
    }
    task.abandon(JobErrorKind::kCancelled, "cancelled");
  }
  shutdown();
}

EngineStats BatchEngine::stats() const {
  EngineStats s;
  {
    std::lock_guard lock(mu_);
    s = agg_;
  }
  s.scratch_machine_allocs =
      scratch_machine_allocs_.load(std::memory_order_relaxed);
  s.scratch_arena_allocs =
      scratch_arena_allocs_.load(std::memory_order_relaxed);
  s.cache = cache_->stats();
  return s;
}

void BatchEngine::worker_loop(int worker_id) {
  WorkerScratch scratch;
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return !queue_.empty() || draining_; });
      if (queue_.empty()) {
        if (draining_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      queue_depth_.store(queue_.size(), std::memory_order_relaxed);
      agg_.queue_wait_ns += (now_ns() - task.enqueue_ns) * task.size();
    }
    if (queue_capacity_ != 0) cv_space_.notify_one();
    // A chain stops at its first job that fails or does not verify: the
    // jobs after it would consume that job's output.
    const size_t n = task.size();
    size_t ran = 0;
    while (ran < n) {
      JobResult result = run_job(task.at(ran++), worker_id, scratch);
      const bool stop = !result.ok || !result.run.verified;
      account(result);
      task.deliver(std::move(result));
      if (stop) break;
    }
    if (ran < n) {
      std::lock_guard lock(mu_);
      agg_.jobs_completed += n - ran;
      agg_.jobs_failed += n - ran;
    }
    task.close();
  }
}

JobResult BatchEngine::run_job(const KernelJob& job, int worker_id,
                               WorkerScratch& scratch) {
  JobResult r;
  r.worker = worker_id;
  try {
    const auto kernel = kernels::make_kernel(job.kernel);
    const uint64_t t0 = now_ns();

    // Planner-driven jobs resolve their execution shape first; the
    // decision is cached under PlanKey so concurrent sessions sharing this
    // cache plan each unique request shape exactly once.
    bool use_spu = job.use_spu;
    kernels::SpuMode mode = job.mode;
    core::CrossbarConfig cfg = job.cfg;
    kernels::ExecBackend backend = job.backend;
    if (job.plan) {
      PlanKey pk;
      pk.kernel = job.kernel;
      pk.repeats = job.repeats;
      pk.area_budget_mm2 = job.area_budget_mm2;
      pk.max_delay_ns = job.max_delay_ns;
      pk.pinned_backend =
          job.backend_pinned ? static_cast<int>(job.backend) : -1;
      const auto plan = cache_->get_or_plan(pk, [&] {
        PlanOptions po;
        po.budget.area_mm2 = job.area_budget_mm2;
        po.budget.delay_ns = job.max_delay_ns;
        if (job.backend_pinned) po.backend = job.backend;
        po.history = &cache_->history();
        return plan_kernel(*kernel, job.repeats, po);
      });
      use_spu = plan->use_spu;
      mode = plan->mode;
      cfg = plan->cfg;
      backend = plan->backend;
      r.plan = std::shared_ptr<const PlanSummary>(plan, &plan->summary);
      // Exploration: occasionally run the runner-up instead of the winner
      // so its history keeps accumulating (a shape nobody measures can
      // never unseat a model mistake). Deterministic hash sampling —
      // explore_rate == 0 provably never deviates from the planned path.
      if (explore_rate_ > 0 && plan->runner_up.has_value() &&
          unit_hash(explore_seq_.fetch_add(1, std::memory_order_relaxed)) <
              explore_rate_) {
        const PlanShape& ru = *plan->runner_up;
        use_spu = ru.use_spu;
        mode = ru.mode;
        cfg = ru.cfg;
        backend = ru.backend;
        r.explored = true;
      }
    }
    const bool native = backend == kernels::ExecBackend::kNativeSwar;

    const OrchestrationKey key = make_key(job.kernel, job.repeats, mode,
                                          use_spu, cfg, job.opts, job.pc,
                                          backend);
    bool prepared_here = false;
    const auto prepared = cache_->get_or_prepare(key, [&] {
      prepared_here = true;
      auto p = use_spu
                   ? kernels::prepare_spu(*kernel, job.repeats, cfg,
                                          mode, job.pc, &job.opts)
                   : kernels::prepare_baseline(*kernel, job.repeats, job.pc);
      // Lowering is part of the prepare half: the trace is cached with the
      // program and replayed decode-free ever after.
      if (native) kernels::lower_native(*kernel, p);
      return p;
    });
    const uint64_t t1 = now_ns();
    r.cache_hit = !prepared_here;
    r.prepare_ns = t1 - t0;

    if (native) {
      if (!scratch.arena) {
        scratch.arena = std::make_unique<sim::Memory>(kernels::kMemBytes);
        scratch_arena_allocs_.fetch_add(1, std::memory_order_relaxed);
      }
      r.run = kernels::execute_native(*kernel, *prepared,
                                      scratch.arena.get(), &job.buffers);
    } else {
      if (!scratch.machine) {
        scratch.machine = std::make_unique<sim::Machine>(
            prepared->program, kernels::kMemBytes, prepared->pc);
        scratch_machine_allocs_.fetch_add(1, std::memory_order_relaxed);
      }
      r.run = kernels::execute_prepared(*kernel, *prepared,
                                        scratch.machine.get(), &job.buffers);
    }
    r.execute_ns = now_ns() - t1;
    r.ok = true;

    // Close the measure->plan loop: every successful execution feeds the
    // history table keyed by the shape that actually ran (for explored
    // jobs, the runner-up). Simulator runs record cycles — the unit the
    // planner can blend with its Table-1 estimates; native runs record
    // wall-ns, kept in separate entries so the units never mix.
    cache_->history().record(
        HistoryKey::from_shape(job.kernel, job.repeats, use_spu, mode, cfg,
                               backend),
        r.run.stats.has_cycles ? static_cast<double>(r.run.stats.cycles)
                               : static_cast<double>(r.execute_ns));
  } catch (const backend::LoweringError& e) {
    r.ok = false;
    r.kind = JobErrorKind::kBackendUnsupported;
    r.error = e.what();
  } catch (const std::exception& e) {
    r.ok = false;
    r.kind = JobErrorKind::kFailed;
    r.error = e.what();
  }
  return r;
}

void BatchEngine::account(const JobResult& result) {
  std::lock_guard lock(mu_);
  ++agg_.jobs_completed;
  if (!result.ok) ++agg_.jobs_failed;
  // Native-backend runs carry no cycle model (has_cycles=false); only
  // genuine simulator cycles may enter the aggregate.
  if (result.run.stats.has_cycles) {
    agg_.cycles_simulated += result.run.stats.cycles;
  }
  agg_.instructions_retired += result.run.stats.instructions;
}

}  // namespace subword::runtime
