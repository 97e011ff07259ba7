#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <sys/types.h>

#include <cstdint>
#include <string>

#include "common.h"

namespace perfbench {

/// CPU seconds (user + system, all threads) of process `pid` from
/// /proc/<pid>/stat; clock-tick resolution.
double ProcessCpuSeconds(pid_t pid);

/// CPU seconds of the calling process (nanosecond resolution).
double SelfCpuSeconds();

/// Fields of /proc/<pid>/status, in MiB and threads.
struct ProcStatus {
  double vm_hwm_mb = 0.0;
  double vm_size_mb = 0.0;
  int threads = 0;
};
ProcStatus ReadProcStatus(pid_t pid);

/// Cumulative TCP active opens (connect calls) of this network namespace,
/// from /proc/net/snmp.
uint64_t TcpActiveOpens();

/// Host record of one timed window: online cores, CPU / wall of the
/// measured processes, and the share of host CPU time stolen by the
/// hypervisor (/proc/stat steal delta).
class HostWindow {
 public:
  /// Starts the window; `pid` is a second process whose CPU counts (0 for
  /// none).
  explicit HostWindow(pid_t pid = 0);

  /// Closes the window and prints its record, prefixed by `label`.
  void Finish(const std::string& label);

  double online_cores() const { return online_cores_; }
  double cpu_per_wall() const { return cpu_per_wall_; }
  double steal_pct() const { return steal_pct_; }
  double wall_seconds() const { return wall_seconds_; }

 private:
  pid_t pid_;
  Clock::time_point start_;
  double self_cpu_ = 0.0;
  double other_cpu_ = 0.0;
  uint64_t total_jiffies_ = 0;
  uint64_t steal_jiffies_ = 0;
  double online_cores_ = 0.0;
  double cpu_per_wall_ = 0.0;
  double steal_pct_ = 0.0;
  double wall_seconds_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
