#include "host.h"

#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {

namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Total and steal jiffies over all CPUs from the first line of /proc/stat.
void ReadStealJiffies(uint64_t* total, uint64_t* steal) {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  *total = 0;
  *steal = 0;
  // user nice system idle iowait irq softirq steal guest guest_nice; the
  // guest fields are already counted in user and nice.
  for (int field = 0; field < 8; ++field) {
    uint64_t value = 0;
    if (!(in >> value)) break;
    *total += value;
    if (field == 7) *steal = value;
  }
}

}  // namespace

double ProcessCpuSeconds(pid_t pid) {
  const std::string text =
      ReadFile("/proc/" + std::to_string(static_cast<long>(pid)) + "/stat");
  // The command name may contain spaces; fields resume after the last ')'.
  const size_t paren = text.rfind(')');
  if (paren == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(paren + 2));
  std::string field;
  double utime = 0.0;
  double stime = 0.0;
  // After ")": state is field 3; utime and stime are fields 14 and 15.
  for (int index = 3; index <= 15 && (fields >> field); ++index) {
    if (index == 14) utime = std::stod(field);
    if (index == 15) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double SelfCpuSeconds() {
  struct timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

ProcStatus ReadProcStatus(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(static_cast<long>(pid)) +
                   "/status");
  ProcStatus status;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    double value = 0.0;
    fields >> key >> value;
    if (key == "VmHWM:") status.vm_hwm_mb = value / 1024.0;
    if (key == "VmSize:") status.vm_size_mb = value / 1024.0;
    if (key == "Threads:") status.threads = static_cast<int>(value);
  }
  return status;
}

uint64_t TcpActiveOpens() {
  // Two "Tcp:" lines: a header naming the columns, then the values.
  std::ifstream in("/proc/net/snmp");
  std::string line;
  std::vector<std::string> header;
  while (std::getline(in, line)) {
    if (line.rfind("Tcp:", 0) != 0) continue;
    std::istringstream fields(line);
    std::vector<std::string> row;
    std::string token;
    while (fields >> token) row.push_back(token);
    if (header.empty()) {
      header = row;
      continue;
    }
    for (size_t i = 0; i < header.size() && i < row.size(); ++i) {
      if (header[i] == "ActiveOpens") return std::stoull(row[i]);
    }
  }
  return 0;
}

HostWindow::HostWindow(pid_t pid) : pid_(pid), start_(Clock::now()) {
  self_cpu_ = SelfCpuSeconds();
  other_cpu_ = pid_ > 0 ? ProcessCpuSeconds(pid_) : 0.0;
  ReadStealJiffies(&total_jiffies_, &steal_jiffies_);
}

void HostWindow::Finish(const std::string& label) {
  wall_seconds_ = MillisBetween(start_, Clock::now()) / 1000.0;
  const double cpu = (SelfCpuSeconds() - self_cpu_) +
                     (pid_ > 0 ? ProcessCpuSeconds(pid_) - other_cpu_ : 0.0);
  uint64_t total = 0;
  uint64_t steal = 0;
  ReadStealJiffies(&total, &steal);
  online_cores_ = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  cpu_per_wall_ = wall_seconds_ > 0.0 ? cpu / wall_seconds_ : 0.0;
  steal_pct_ = total > total_jiffies_
                   ? 100.0 * static_cast<double>(steal - steal_jiffies_) /
                         static_cast<double>(total - total_jiffies_)
                   : 0.0;
  char line[256];
  std::snprintf(line, sizeof(line),
                "host[%s]: online_cores=%.0f cpu_per_wall=%.3f "
                "steal_pct=%.2f wall_s=%.3f",
                label.c_str(), online_cores_, cpu_per_wall_, steal_pct_,
                wall_seconds_);
  Note(line);
}

}  // namespace perfbench
