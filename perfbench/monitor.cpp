// monitor workload: a resident MonitorSession over 100k streamed hosts with
// small constant churn, run tick after tick, each tick followed by a
// checkpoint write. The scan/core/measure layers are used incrementally
// (dirty index cells, cached validations, reused verdicts), so a change
// that speeds the full build but slows the delta path shows here and not
// in the scan workload. One operation is one steady tick plus its
// checkpoint write; op_ms is the median of their wall times.
#include <filesystem>
#include <memory>

#include "bench.h"
#include "scenarios/monitor.h"

namespace perfbench {

namespace {

using namespace urlf;

constexpr std::uint64_t kHosts = 100000;
/// Ticks the kFull reference re-runs to check the incremental chain (each
/// full tick rebuilds and revalidates everything, so keep the prefix short).
constexpr int kFullPrefixTicks = 2;
/// The checkpoint written after this tick is resumed after timing and must
/// continue into the same digest chain for kResumeTicks more ticks.
constexpr int kResumeAt = 4;
constexpr int kResumeTicks = 4;

scenarios::MonitorOptions monitorOptions(std::uint64_t seed,
                                         scenarios::MonitorMode mode) {
  scenarios::MonitorOptions options;
  options.seed = seed;
  options.streamHosts = kHosts;
  options.hostsPerShard = 256;
  // Constant absolute churn, as in bench/monitor_longitudinal: ~4 rebrands
  // and ~1 parked page per tick plus 3 vendor-DB mutations.
  options.churn.rebrandRate = 4.0 / static_cast<double>(kHosts);
  options.churn.parkRate = 1.0 / static_cast<double>(kHosts);
  options.churn.dbMutationsPerTick = 3;
  // Scripted deployment events force full rebuilds by design; the steady
  // delta path is what this workload measures.
  options.scriptedEvents = false;
  options.mode = mode;
  options.threads = kThreads;
  return options;
}

}  // namespace

Result runMonitor(const Args& args) {
  Result result;
  namespace fs = std::filesystem;
  const std::string checkpoint = args.scratchDir + "/monitor.ckpt";
  const std::string resumePoint = args.scratchDir + "/resume.ckpt";

  auto session = scenarios::MonitorSession::create(
      monitorOptions(args.seed, scenarios::MonitorMode::kIncremental));
  (void)session->runTick();  // tick-0 baseline: everything scanned and tested
  session->writeCheckpoint(checkpoint);
  std::vector<std::uint64_t> chain{session->chainDigest()};
  const double setupS = msSince(args.processStart) / 1000.0;

  Trace trace;
  Trace* tracer = args.trace ? &trace : nullptr;
  std::vector<double> tickMs, tracedTickMs;
  const auto begin = Clock::now();
  while (msSince(begin) < args.seconds * 1000.0) {
    // Traced runs trace every other tick; the two medians give the
    // tracing overhead.
    const bool traced = tracer != nullptr && session->tick() % 2 == 1;
    Trace* t = traced ? tracer : nullptr;
    const auto t0 = Clock::now();
    scenarios::TickReport report;
    {
      Trace::Scope span(t, "scenarios.tick_run");
      report = session->runTick();
    }
    {
      Trace::Scope span(t, "scenarios.checkpoint");
      session->writeCheckpoint(checkpoint);
    }
    (traced ? tracedTickMs : tickMs).push_back(msSince(t0));
    ++result.attempted;
    chain.push_back(session->chainDigest());
    if (session->tick() == kResumeAt)
      fs::copy_file(checkpoint, resumePoint,
                    fs::copy_options::overwrite_existing);
    if (traced) {
      t->count("scenarios.checkpoint_kb",
               static_cast<double>(fs::file_size(checkpoint)) / 1024.0);
      t->count("scan.cells_rebuilt", static_cast<double>(report.cellsRebuilt));
      t->count("core.validation_hits",
               static_cast<double>(report.validationHits));
      t->count("core.validation_misses",
               static_cast<double>(report.validationMisses));
      t->count("measure.urls_retested",
               static_cast<double>(report.urlsTested));
      t->count("measure.urls_reused", static_cast<double>(report.urlsReused));
    }
  }
  const int lastTick = session->tick();
  // Before the checks below, which build sessions of their own.
  const double peakMb = peakRssMb();
  session.reset();

  // Check 1: the kFull reference (rebuild, revalidate, refetch everything)
  // reproduces the incremental digest chain over a prefix of the ticks.
  {
    auto full = scenarios::MonitorSession::create(
        monitorOptions(args.seed, scenarios::MonitorMode::kFull));
    for (int tick = 0; tick <= std::min(kFullPrefixTicks, lastTick); ++tick) {
      (void)full->runTick();
      if (full->chainDigest() != chain[static_cast<std::size_t>(tick)])
        result.fail("kFull chain diverges from kIncremental at tick " +
                    std::to_string(tick));
    }
  }
  // Check 2: resuming the mid-run checkpoint continues into the same chain.
  if (lastTick >= kResumeAt + kResumeTicks) {
    auto resumed = scenarios::MonitorSession::resume(
        resumePoint, scenarios::MonitorMode::kIncremental, kThreads);
    if (!resumed) {
      result.fail("checkpoint does not resume: " + resumed.error());
    } else {
      auto& s = *resumed.value();
      if (s.tick() != kResumeAt ||
          s.chainDigest() != chain[static_cast<std::size_t>(kResumeAt)])
        result.fail("resumed checkpoint is not at tick " +
                    std::to_string(kResumeAt));
      for (int i = 0; i < kResumeTicks; ++i) {
        (void)s.runTick();
        if (s.chainDigest() != chain[static_cast<std::size_t>(s.tick())])
          result.fail("resumed run diverges at tick " +
                      std::to_string(s.tick()));
      }
    }
  } else {
    result.fail("run too short for the resume check (" +
                std::to_string(lastTick) + " ticks)");
  }

  if (!args.trace) {
    result.set("setup_s", setupS, "s");
    result.set("op_ms", median(tickMs), "ms");
    result.set("peak_rss_mb", peakMb, "MB");
    return result;
  }
  setMedian(result, "scenarios.tick_run_ms",
            trace.durations("scenarios.tick_run", 1.0), "ms");
  setMedian(result, "scenarios.checkpoint_ms",
            trace.durations("scenarios.checkpoint", 1.0), "ms");
  for (const char* name :
       {"scenarios.checkpoint_kb", "scan.cells_rebuilt", "core.validation_hits",
        "core.validation_misses", "measure.urls_retested",
        "measure.urls_reused"})
    setMedian(result, name, trace.counts(name),
              std::string(name) == "scenarios.checkpoint_kb" ? "KB" : "count");
  result.set("trace.overhead_ms", median(tracedTickMs) - median(tickMs), "ms");
  return result;
}

}  // namespace perfbench
