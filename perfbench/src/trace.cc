#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

int Tracer::Begin(const std::string& name, int parent, int64_t job) {
  if (!enabled_) return -1;
  const double start = MillisBetween(epoch_, Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = name;
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.job = job;
  span.start_ms = start;
  span.end_ms = start;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void Tracer::End(int id) {
  if (!enabled_ || id < 0) return;
  const double end = MillisBetween(epoch_, Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id)].end_ms = end;
}

int Tracer::Record(const std::string& name, Clock::time_point start,
                   Clock::time_point end, int parent, int64_t job) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.name = name;
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.job = job;
  span.start_ms = MillisBetween(epoch_, start);
  span.end_ms = MillisBetween(epoch_, end);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.end_ms - span.start_ms);
  }
  return out;
}

std::vector<double> Tracer::SelfTimes(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return SelfTimesLocked(name);
}

std::vector<double> Tracer::SelfTimesLocked(const std::string& name) const {
  std::map<int, std::vector<std::pair<double, double>>> children;
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[span.parent].push_back({span.start_ms, span.end_ms});
    }
  }
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (!name.empty() && span.name != name) continue;
    double covered = 0.0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      // Union of the child intervals, clipped to the parent's interval.
      std::vector<std::pair<double, double>> intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      double reach = span.start_ms;
      for (const auto& [start, end] : intervals) {
        const double lo = std::max(start, reach);
        const double hi = std::min(end, span.end_ms);
        if (hi > lo) covered += hi - lo;
        reach = std::max(reach, std::min(end, span.end_ms));
      }
    }
    out.push_back(span.end_ms - span.start_ms - covered);
  }
  return out;
}

std::map<int64_t, double> Tracer::DurationByJob(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<int64_t, double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out[span.job] += span.end_ms - span.start_ms;
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::vector<double> self = SelfTimesLocked("");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "{\"name\": \"%s\", \"id\": %d, \"parent\": %d, "
                 "\"job\": %lld, \"start_ms\": %.6f, \"end_ms\": %.6f, "
                 "\"self_ms\": %.6f}\n",
                 span.name.c_str(), span.id, span.parent,
                 static_cast<long long>(span.job), span.start_ms, span.end_ms,
                 self[i]);
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
