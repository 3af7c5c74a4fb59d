#include "bench.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>

namespace perfbench {

namespace {
/// Open spans of the current thread, innermost last (parent links).
thread_local std::vector<int> openSpans;
}  // namespace

void Result::fail(const std::string& what) {
  correct = false;
  std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
}

double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Linear interpolation between closest ranks.
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    const auto digits = line.find_first_of("0123456789");
    if (digits == std::string::npos) return 0.0;
    return std::stod(line.substr(digits)) / 1024.0;  // kB -> MB
  }
  return 0.0;
}

Trace::Scope::Scope(Trace* trace, std::string name) : trace_(trace) {
  if (trace_ != nullptr) index_ = trace_->open(std::move(name));
}

Trace::Scope::~Scope() {
  if (trace_ != nullptr) trace_->close(index_);
}

int Trace::open(std::string name) {
  const int parent = openSpans.empty() ? -1 : openSpans.back();
  int index = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    index = static_cast<int>(spans_.size());
    spans_.push_back(Span{std::move(name), Clock::now(), {}, parent});
  }
  openSpans.push_back(index);
  return index;
}

void Trace::close(int index) {
  const auto end = Clock::now();
  openSpans.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end = end;
}

void Trace::record(const std::string& name, Clock::time_point start,
                   Clock::time_point end) {
  const int parent = openSpans.empty() ? -1 : openSpans.back();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, start, end, parent});
}

void Trace::count(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  counts_[name].push_back(value);
}

std::vector<double> Trace::durations(const std::string& name,
                                     double unitMs) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const auto& span : spans_)
    if (span.name == name)
      out.push_back(
          std::chrono::duration<double, std::milli>(span.end - span.start)
              .count() /
          unitMs);
  return out;
}

std::vector<double> Trace::sumsPerParent(const std::string& name,
                                         const std::string& parentName,
                                         double unitMs) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<int, double> sums;
  for (const auto& span : spans_) {
    if (span.name != name) continue;
    // Walk up to the nearest ancestor with the parent name.
    int up = span.parent;
    while (up >= 0 && spans_[static_cast<std::size_t>(up)].name != parentName)
      up = spans_[static_cast<std::size_t>(up)].parent;
    if (up < 0) continue;
    sums[up] += std::chrono::duration<double, std::milli>(span.end - span.start)
                    .count() /
                unitMs;
  }
  std::vector<double> out;
  for (const auto& [parent, sum] : sums) out.push_back(sum);
  return out;
}

std::vector<double> Trace::counts(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counts_.find(name);
  return it == counts_.end() ? std::vector<double>{} : it->second;
}

void setMedian(Result& result, const std::string& name,
               const std::vector<double>& values, const std::string& unit) {
  if (values.empty()) {
    result.fail("no samples for per-layer metric " + name);
    return;
  }
  result.set(name, median(values), unit);
}

}  // namespace perfbench
