// Shared plumbing of the perfbench workloads: the run contract (arguments,
// result, metrics), the in-memory span recorder used by traced runs, and
// small statistics helpers.
#ifndef URLF_PERFBENCH_BENCH_H
#define URLF_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Width of the shared util::ThreadPool (URLF_THREADS). Pinned to 1: a
/// util::parallelForChunks fan-out from a thread outside the pool can end
/// after its stack state is gone while a helper still signals it (a crash
/// seen once in a run; ThreadSanitizer flags it every run; CHANGES.md
/// FOUND). With one pool thread every fan-out runs inline on its caller.
inline constexpr std::size_t kPoolThreads = 1;
/// Every width option the benchmark hands the program (classify threads,
/// crawl and identify widths, monitor threads, server workers). Fixed, never
/// 0 = "all cores", so a bigger machine runs the same program. Not 1: 1
/// selects the serial reference paths of the crawl and the identifier.
inline constexpr std::size_t kThreads = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for journals and checkpoints (inside the checkout).
  std::string scratchDir;
  /// Process start as seen by main(); setup_s is measured from here.
  Clock::time_point processStart;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): the operation tally, whether every
/// output check held, and the metrics of this run (end-to-end when
/// untraced, per-layer when traced).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Record a failed output check (the run still finishes; correct=false).
  void fail(const std::string& what);
};

[[nodiscard]] double msSince(Clock::time_point start);

/// Median / quantile of a sample (copied; the input is left untouched).
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// VmHWM of this process in MB (peak resident set).
[[nodiscard]] double peakRssMb();

/// In-memory span recorder for traced runs. Spans are recorded by the
/// benchmark's own code around calls into the program's public functions;
/// nothing is written until the run ends and the spans are aggregated into
/// per-layer metrics. Thread-safe (serve records from client threads).
class Trace {
 public:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;  ///< index of the enclosing span on the same thread
  };

  /// RAII span: begins on construction, ends on destruction. A null trace
  /// records nothing, so untraced code paths share the same call sites.
  class Scope {
   public:
    Scope(Trace* trace, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Trace* trace_;
    int index_ = -1;
  };

  /// Record a finished span directly (per-call replays time themselves).
  void record(const std::string& name, Clock::time_point start,
              Clock::time_point end);
  /// Record one observation of a count at a layer boundary.
  void count(const std::string& name, double value);

  /// Durations (in `unitMs` multiples of a millisecond: 1 = ms,
  /// 0.001 = us) of every span named `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name,
                                              double unitMs) const;
  /// Sum of the durations of same-named spans under each parent span named
  /// `parentName` (e.g. the ten Confirmer::run calls of one campaign).
  [[nodiscard]] std::vector<double> sumsPerParent(const std::string& name,
                                                  const std::string& parentName,
                                                  double unitMs) const;
  [[nodiscard]] std::vector<double> counts(const std::string& name) const;

 private:
  int open(std::string name);
  void close(int index);

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::string, std::vector<double>> counts_;
};

/// Median of `values` into `result` under `name`; a missing sample is a
/// failed check (every declared per-layer metric must be produced).
void setMedian(Result& result, const std::string& name,
               const std::vector<double>& values, const std::string& unit);

Result runCampaign(const Args& args);
Result runScan(const Args& args);
Result runMonitor(const Args& args);
Result runServe(const Args& args);

}  // namespace perfbench

#endif  // URLF_PERFBENCH_BENCH_H
