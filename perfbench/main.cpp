// perfbench: the end-to-end and per-layer benchmark of the URL-filter
// measurement system. One process runs one workload for a fixed wall-clock
// budget and prints one JSON result line:
//
//   perfbench --workload <campaign|scan|monitor|serve> --seed N
//             --seconds S --trace <0|1>
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate run
// that records spans around calls into each layer and reports per-layer
// metrics instead. Every workload reports the same metric set: a traced run
// follows its own workload with a short traced pass of each other workload,
// whose numbers fill in the layers the own workload leaves idle. See
// README.md in this directory for the workloads, metrics and the
// layer -> end-to-end map.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include <unistd.h>

#include "bench.h"

namespace {

[[noreturn]] void usage() {
  std::cerr << "usage: perfbench --workload <campaign|scan|monitor|serve> "
               "--seed N --seconds S --trace <0|1>\n";
  std::exit(2);
}

struct Workload {
  const char* name;
  perfbench::Result (*run)(const perfbench::Args&);
};
const Workload kWorkloads[] = {{"campaign", perfbench::runCampaign},
                               {"scan", perfbench::runScan},
                               {"monitor", perfbench::runMonitor},
                               {"serve", perfbench::runServe}};
/// Length of each companion pass of a traced run, in seconds.
constexpr double kCompanionSeconds = 2.0;

std::string jsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  args.processStart = perfbench::Clock::now();

  // The shared pool reads its width once, on first use; fix it before any
  // program code runs.
  ::setenv("URLF_THREADS", std::to_string(perfbench::kPoolThreads).c_str(), 1);

  bool haveWorkload = false, haveSeed = false, haveSeconds = false,
       haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) usage();
    const std::string flag = argv[i];
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        haveWorkload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        haveSeed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        haveSeconds = args.seconds > 0.0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage();
        args.trace = value == "1";
        haveTrace = true;
      } else {
        usage();
      }
    } catch (const std::exception&) {
      usage();
    }
  }
  if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace) usage();

  bool known = false;
  for (const auto& workload : kWorkloads)
    known = known || args.workload == workload.name;
  if (!known) usage();

  // Journals and checkpoints go to a per-process directory under the build
  // tree (relative to the working directory, i.e. inside the checkout).
  namespace fs = std::filesystem;
  const fs::path scratch = fs::path(".bench_build") / "scratch" /
                           (args.workload + "-" + std::to_string(::getpid()));
  fs::create_directories(scratch);
  args.scratchDir = scratch.string();

  perfbench::Result result;
  try {
    for (const auto& workload : kWorkloads)
      if (args.workload == workload.name) result = workload.run(args);
    if (args.trace) {
      // Companion passes: the per-layer metrics of layers this workload
      // leaves idle. The own workload's metrics and tallies stand; a
      // companion's failed output check still makes the run incorrect.
      for (const auto& workload : kWorkloads) {
        if (args.workload == workload.name) continue;
        perfbench::Args companion = args;
        companion.workload = workload.name;
        companion.seconds = kCompanionSeconds;
        companion.scratchDir = (scratch / workload.name).string();
        fs::create_directories(companion.scratchDir);
        const auto pass = workload.run(companion);
        result.correct = result.correct && pass.correct;
        for (const auto& [name, metric] : pass.metrics)
          result.metrics.emplace(name, metric);
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " aborted: " << e.what()
              << "\n";
    fs::remove_all(scratch);
    return 1;
  }
  fs::remove_all(scratch);

  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metric.value);
    if (!first) line += ", ";
    first = false;
    line += jsonString(name) + ": {\"value\": " + value +
            ", \"unit\": " + jsonString(metric.unit) + "}";
  }
  line += "}}";
  std::cout << line << std::endl;
  return 0;
}
