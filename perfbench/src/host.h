// host.h — the host block every result carries (so numbers from different
// machines are never compared blindly) and process-level measurements.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct HostInfo {
  int nproc = 1;            // CPUs this process may run on
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  std::string commit;       // git commit, or "unknown" outside a checkout
  std::string source_digest;  // sha256 over the sources that were built
  double steal_pct = 0;       // CPU steal during the run (see steal_pct())
};

// `commit` and `source_digest` come from the launcher (run.py), which can
// see the checkout; the rest is read here.
[[nodiscard]] HostInfo host_info(std::string commit, std::string digest);
[[nodiscard]] std::string host_json(const HostInfo& h);

// CPUs in this process's affinity mask (what `nproc` prints), at least 1.
[[nodiscard]] int available_cpus();

// Peak resident set size of this process so far, in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

// Machine-wide CPU time in clock ticks (/proc/stat): all of it, and the
// part the hypervisor ran other guests on this guest's CPUs (steal).
struct CpuTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
[[nodiscard]] CpuTicks cpu_ticks();

// Steal as a percentage of the CPU time between two readings. A run with
// much steal shared its host with other guests; its timings are not
// comparable with a quiet run's.
[[nodiscard]] double steal_pct(const CpuTicks& before, const CpuTicks& after);

// Keeps this guest's idle CPUs polling instead of halting, for as long as
// it lives. On a virtual machine a halted vCPU has to be rescheduled by the
// hypervisor before a woken thread can run on it; on a shared host that
// wait reaches milliseconds and shows up as CPU steal. The workloads hand
// work between threads thousands of times a second, so those waits, not
// the program, would set their latency. One SCHED_IDLE thread per CPU
// spins; the guest scheduler runs it only when nothing else is runnable
// and preempts it on every wake-up. Where SCHED_IDLE cannot be set, the
// thread exits rather than compete with the workload.
class IdlePoller {
 public:
  explicit IdlePoller(int cpus);
  ~IdlePoller();

  IdlePoller(const IdlePoller&) = delete;
  IdlePoller& operator=(const IdlePoller&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace perfbench
