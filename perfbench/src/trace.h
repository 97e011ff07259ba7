#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// One timed call into a layer's public function, recorded from the
/// benchmark's own code. Times are milliseconds since the tracer started.
struct Span {
  std::string name;
  int id = 0;
  int parent = -1;   // -1 for a root span.
  int64_t job = -1;  // Spans of one job or batch call share this id.
  double start_ms = 0.0;
  double end_ms = 0.0;
};

/// In-memory span recorder. Every call is a no-op when disabled, so the
/// untraced runs pay one branch per call site. Thread-safe.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span now; returns its id (-1 when disabled).
  int Begin(const std::string& name, int parent = -1, int64_t job = -1);
  void End(int id);

  /// Records a span whose start and end were taken elsewhere.
  int Record(const std::string& name, Clock::time_point start,
             Clock::time_point end, int parent = -1, int64_t job = -1);

  /// Durations (ms) of every span called `name`.
  std::vector<double> Durations(const std::string& name) const;

  /// Self times (ms) of every span called `name`: its duration minus the
  /// part of its interval covered by its child spans.
  std::vector<double> SelfTimes(const std::string& name) const;

  /// Summed duration (ms) of the spans called `name`, per job id.
  std::map<int64_t, double> DurationByJob(const std::string& name) const;

  /// Writes every span, with its self time, as one JSON object per line.
  bool Write(const std::string& path) const;

 private:
  std::vector<double> SelfTimesLocked(const std::string& name) const;

  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // Guarded by mutex_; index == Span::id.
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
