// Scan→identify hot-path benchmark: the linear oracle (scan/reference_search.h)
// vs the index's ShardedBannerIndex::searchAll (the §3.1 keyword×country
// fan-out), serial vs parallel crawl and Identifier::identifyAll on
// RandomWorld (one-shard eager builds), and the million-host streamed
// pipeline (crawlStream over an attached host stream) with peak-RSS
// accounting against a documented budget.
// Emits BENCH_scan.json so later PRs have a perf trajectory.
//
// The streamed rows run FIRST: VmHWM is monotone, so their peak-RSS column
// reflects the streaming pipeline alone, not the eager worlds built later.
//
// Usage: micro_scan [--quick] [--out PATH]
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/identifier.h"
#include "core/serialize.h"
#include "net/cctld.h"
#include "report/json.h"
#include "scan/banner_index.h"
#include "scan/reference_search.h"
#include "scan/serialize.h"
#include "scenarios/random_world.h"
#include "simnet/world_stream.h"
#include "util/hash.h"
#include "util/thread_pool.h"

namespace {

using namespace urlf;
using Clock = std::chrono::steady_clock;

/// The peak-RSS ceiling (MiB) the streamed rows must stay under — the
/// tentpole's "1M hosts within a fixed memory budget" contract. Also
/// documented in README.md and DESIGN.md §4.5.
constexpr double kPeakRssBudgetMb = 512.0;

double millisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Best-of-`reps` wall time of `fn`, in milliseconds.
template <typename Fn>
double bestOf(int reps, Fn&& fn) {
  double best = -1.0;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    fn();
    const double elapsed = millisSince(start);
    if (best < 0.0 || elapsed < best) best = elapsed;
  }
  return best;
}

/// Best-of-`reps` for an A/B pair, alternating A and B within each rep so
/// both sides see the same allocator and cache state instead of whichever
/// the other side left behind. Returns {bestA, bestB}.
template <typename FnA, typename FnB>
std::pair<double, double> bestOfPaired(int reps, FnA&& a, FnB&& b) {
  double bestA = -1.0, bestB = -1.0;
  for (int r = 0; r < reps; ++r) {
    auto start = Clock::now();
    a();
    const double elapsedA = millisSince(start);
    if (bestA < 0.0 || elapsedA < bestA) bestA = elapsedA;
    start = Clock::now();
    b();
    const double elapsedB = millisSince(start);
    if (bestB < 0.0 || elapsedB < bestB) bestB = elapsedB;
  }
  return {bestA, bestB};
}

/// "VmHWM" (peak RSS) or "VmRSS" (current RSS) from /proc/self/status, in
/// MiB; -1 when unavailable (non-Linux).
double procStatusMb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) != 0) continue;
    const auto digits = line.find_first_of("0123456789");
    if (digits == std::string::npos) return -1.0;
    return std::stod(line.substr(digits)) / 1024.0;  // kB -> MiB
  }
  return -1.0;
}

std::string hexDigest(std::uint64_t value) {
  std::ostringstream out;
  out << std::hex << value;
  return out.str();
}

std::vector<scan::Query> fullFanOut() {
  std::vector<scan::Query> queries;
  for (const auto product : filters::allProducts()) {
    for (const auto& keyword : core::Identifier::shodanKeywords(product)) {
      queries.push_back({keyword, std::nullopt});
      for (const auto& country : net::allCountries())
        queries.push_back({keyword, std::string(country.alpha2)});
    }
  }
  return queries;
}

core::Identifier makeIdentifier(scenarios::RandomWorld& world,
                                const scan::ShardedBannerIndex& index,
                                std::size_t threads) {
  core::IdentifierConfig config;
  config.threads = threads;
  return core::Identifier(world.world(), index,
                          fingerprint::Engine::withBuiltinSignatures(),
                          world.world().buildGeoDatabase(),
                          world.world().buildAsnDatabase(), config);
}

// --- streamed pipeline ------------------------------------------------------

simnet::ProceduralHostConfig streamConfig(std::uint64_t hosts) {
  simnet::ProceduralHostConfig config;
  config.hosts = hosts;
  config.countries = 20;
  config.baitFraction = 0.01;
  return config;
}

/// One million-host-class row: streamed generation → sharded index →
/// search/identify, with RSS columns. The world never holds the host set.
report::Json benchStreamedAtSize(std::uint64_t hosts) {
  simnet::World world(424242);
  auto stream = std::make_shared<simnet::ProceduralHostStream>(
      777, streamConfig(hosts));
  stream->announceInto(world);
  world.attachHostStream(std::move(stream));
  const auto geo = world.buildGeoDatabase();

  report::Json out = report::Json::object();
  out["hosts"] = report::Json::number(static_cast<std::int64_t>(hosts));

  auto start = Clock::now();
  const auto index = scan::crawlStream(world, geo);
  const double crawlMs = millisSince(start);
  out["crawl_stream_ms"] = report::Json::number(crawlMs);
  out["docs"] = report::Json::number(std::int64_t{index.docCount()});
  out["shards"] = report::Json::number(
      static_cast<std::int64_t>(index.shardCount()));
  out["vocabulary"] = report::Json::number(
      static_cast<std::int64_t>(index.vocabularySize()));
  out["index_mb"] = report::Json::number(
      static_cast<double>(index.memoryBytes()) / (1024.0 * 1024.0));

  // Content digest of the serialized index: any cross-machine or
  // cross-revision divergence in the streamed pipeline shows up here.
  start = Clock::now();
  const auto blob = scan::exportShardedIndex(index);
  out["export_ms"] = report::Json::number(millisSince(start));
  out["export_bytes"] = report::Json::number(
      static_cast<std::int64_t>(blob.size()));
  out["digest"] = report::Json::string(hexDigest(util::fnv1a64(blob)));

  const auto queries = fullFanOut();
  std::vector<std::uint32_t> hits;
  start = Clock::now();
  hits = index.searchAll(queries);
  out["search_all_ms"] = report::Json::number(millisSince(start));
  out["search_all_hits"] = report::Json::number(
      static_cast<std::int64_t>(hits.size()));

  const core::Identifier identifier(
      world, index, fingerprint::Engine::withBuiltinSignatures(), geo,
      world.buildAsnDatabase());
  start = Clock::now();
  const auto found = identifier.identifyAll();
  out["identify_all_ms"] = report::Json::number(millisSince(start));
  std::size_t installations = 0;
  for (const auto& [product, list] : found) installations += list.size();
  out["installations"] = report::Json::number(
      static_cast<std::int64_t>(installations));

  out["peak_rss_mb"] = report::Json::number(procStatusMb("VmHWM"));
  out["rss_now_mb"] = report::Json::number(procStatusMb("VmRSS"));

  std::cerr << "streamed hosts=" << hosts << " docs=" << index.docCount()
            << " crawl=" << crawlMs << "ms index=" << out["index_mb"].dump()
            << "MB peakRSS=" << out["peak_rss_mb"].dump() << "MB\n";
  return out;
}

/// Streamed ≡ eager spot-check at a size where the eager twin fits easily:
/// the property suite proves the equivalence per commit; this records it in
/// the benchmark artifact alongside the large rows that rely on it.
report::Json streamedReferenceCheck(std::uint64_t hosts) {
  const auto config = streamConfig(hosts);

  simnet::World streamedWorld(515151);
  auto stream = std::make_shared<simnet::ProceduralHostStream>(777, config);
  stream->announceInto(streamedWorld);
  streamedWorld.attachHostStream(stream);
  const auto geoStreamed = streamedWorld.buildGeoDatabase();
  const auto sharded = scan::crawlStream(streamedWorld, geoStreamed);

  simnet::World eagerWorld(515151);
  stream->announceInto(eagerWorld);
  stream->materializeInto(eagerWorld);
  const auto geoEager = eagerWorld.buildGeoDatabase();
  const auto reference = scan::crawlStream(eagerWorld, geoEager);

  const auto eagerRecords = reference.fetchAllRecords();
  const bool recordsEqual =
      scan::exportRecords(sharded.fetchAllRecords(), 0) ==
      scan::exportRecords(eagerRecords, 0);

  // Streamed search against the linear oracle over the eager records (doc
  // ids coincide when the records do).
  const auto queries = fullFanOut();
  const bool searchEqual =
      sharded.searchAll(queries) == scan::referenceSearch(eagerRecords, queries);

  const core::Identifier viaStream(
      streamedWorld, sharded, fingerprint::Engine::withBuiltinSignatures(),
      geoStreamed, streamedWorld.buildAsnDatabase());
  const core::Identifier viaEager(
      eagerWorld, reference, fingerprint::Engine::withBuiltinSignatures(),
      geoEager, eagerWorld.buildAsnDatabase());
  const bool identifyEqual =
      core::toJson(viaStream.identifyAll()).dump() ==
      core::toJson(viaEager.identifyAll()).dump();

  report::Json out = report::Json::object();
  out["hosts"] = report::Json::number(static_cast<std::int64_t>(hosts));
  out["records_equal"] = report::Json::boolean(recordsEqual);
  out["search_results_equal"] = report::Json::boolean(searchEqual);
  out["identify_results_identical"] = report::Json::boolean(identifyEqual);
  std::cerr << "streamed-vs-eager check hosts=" << hosts
            << " records=" << (recordsEqual ? "equal" : "DIFFER")
            << " search=" << (searchEqual ? "equal" : "DIFFER")
            << " identify=" << (identifyEqual ? "equal" : "DIFFER") << "\n";
  return out;
}

// --- eager pipeline ---------------------------------------------------------

report::Json benchAtSize(int hosts, int reps) {
  scenarios::RandomWorldConfig config;
  config.countries = 30;
  config.decoys = hosts;
  config.contentSites = 50;
  scenarios::RandomWorld world(424242, config);
  const auto geo = world.world().buildGeoDatabase();

  report::Json out = report::Json::object();
  out["hosts"] = report::Json::number(std::int64_t{hosts});

  // --- crawl: serial vs parallel (identical index either way) ------------
  scan::StreamCrawlOptions serial;
  serial.threadLimit = 1;
  scan::ShardedBannerIndex index;
  const auto [crawlSerialMs, crawlParallelMs] = bestOfPaired(
      reps, [&] { index = scan::crawlStream(world.world(), geo, serial); },
      [&] { index = scan::crawlStream(world.world(), geo); });
  out["records"] = report::Json::number(std::int64_t{index.docCount()});
  out["vocabulary"] = report::Json::number(
      static_cast<std::int64_t>(index.vocabularySize()));
  out["crawl_serial_ms"] = report::Json::number(crawlSerialMs);
  out["crawl_parallel_ms"] = report::Json::number(crawlParallelMs);
  out["crawl_speedup"] =
      report::Json::number(crawlSerialMs / crawlParallelMs);

  // --- searchAll: linear oracle vs the posting-list index ----------------
  const auto queries = fullFanOut();
  out["search_all_queries"] = report::Json::number(
      static_cast<std::int64_t>(queries.size()));

  const auto records = index.fetchAllRecords();
  std::vector<std::uint32_t> referenceHits;
  const double searchReferenceMs = bestOf(
      reps, [&] { referenceHits = scan::referenceSearch(records, queries); });

  std::vector<std::uint32_t> indexedHits;
  const double searchIndexedMs =
      bestOf(reps, [&] { indexedHits = index.searchAll(queries); });

  out["search_all_hits"] = report::Json::number(
      static_cast<std::int64_t>(indexedHits.size()));
  out["search_all_reference_ms"] = report::Json::number(searchReferenceMs);
  out["search_all_indexed_ms"] = report::Json::number(searchIndexedMs);
  out["search_all_speedup"] =
      report::Json::number(searchReferenceMs / searchIndexedMs);
  out["search_results_equal"] =
      report::Json::boolean(referenceHits == indexedHits);

  // --- identifyAll: serial reference vs fast validation wave -------------
  const auto serialIdentifier = makeIdentifier(world, index, 1);
  const auto parallelIdentifier = makeIdentifier(world, index, 0);

  std::map<filters::ProductKind, std::vector<core::Installation>> serialRun;
  std::map<filters::ProductKind, std::vector<core::Installation>> parallelRun;
  const auto [identifySerialMs, identifyParallelMs] = bestOfPaired(
      reps, [&] { serialRun = serialIdentifier.identifyAll(); },
      [&] { parallelRun = parallelIdentifier.identifyAll(); });

  std::size_t installations = 0;
  for (const auto& [product, found] : serialRun) installations += found.size();
  out["installations"] = report::Json::number(
      static_cast<std::int64_t>(installations));
  out["identify_all_serial_ms"] = report::Json::number(identifySerialMs);
  out["identify_all_parallel_ms"] = report::Json::number(identifyParallelMs);
  out["identify_all_speedup"] =
      report::Json::number(identifySerialMs / identifyParallelMs);
  out["identify_results_identical"] = report::Json::boolean(
      core::toJson(serialRun).dump() == core::toJson(parallelRun).dump());

  std::cerr << "hosts=" << hosts << " records=" << index.docCount()
            << " crawl serial=" << crawlSerialMs << "ms parallel="
            << crawlParallelMs << "ms (" << crawlSerialMs / crawlParallelMs
            << "x)  searchAll ref=" << searchReferenceMs
            << "ms idx=" << searchIndexedMs << "ms ("
            << searchReferenceMs / searchIndexedMs
            << "x)  identifyAll serial=" << identifySerialMs
            << "ms parallel=" << identifyParallelMs << "ms ("
            << identifySerialMs / identifyParallelMs << "x)\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string outPath = "BENCH_scan.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      outPath = argv[++i];
    } else {
      std::cerr << "usage: micro_scan [--quick] [--out PATH]\n";
      return 2;
    }
  }

  const std::vector<std::uint64_t> streamedSizes =
      quick ? std::vector<std::uint64_t>{100000}
            : std::vector<std::uint64_t>{100000, 1000000};
  const std::vector<int> sizes =
      quick ? std::vector<int>{1000} : std::vector<int>{1000, 5000, 20000};
  const int reps = quick ? 1 : 3;

  report::Json root = report::Json::object();
  root["bench"] = report::Json::string("micro_scan");
  root["pool_threads"] = report::Json::number(static_cast<std::int64_t>(
      urlf::util::ThreadPool::shared().threadCount()));
  root["reps"] = report::Json::number(std::int64_t{reps});
  root["peak_rss_budget_mb"] = report::Json::number(kPeakRssBudgetMb);

  // Streamed rows first: VmHWM is monotone, so this peak belongs to the
  // streaming pipeline alone.
  report::Json streamedRuns = report::Json::array();
  for (const auto hosts : streamedSizes)
    streamedRuns.push(benchStreamedAtSize(hosts));
  root["streamed_runs"] = std::move(streamedRuns);

  const double streamedPeakMb = procStatusMb("VmHWM");
  root["peak_rss_after_streamed_mb"] = report::Json::number(streamedPeakMb);
  const bool budgetOk =
      streamedPeakMb < 0.0 || streamedPeakMb <= kPeakRssBudgetMb;
  root["peak_rss_within_budget"] = report::Json::boolean(budgetOk);

  root["streamed_reference_check"] =
      streamedReferenceCheck(quick ? 5000 : 20000);

  report::Json runs = report::Json::array();
  for (const int hosts : sizes) runs.push(benchAtSize(hosts, reps));
  root["runs"] = std::move(runs);

  std::ofstream file(outPath);
  if (!file) {
    std::cerr << "micro_scan: cannot open " << outPath << " for writing\n";
    return 1;
  }
  file << root.dump(2) << "\n";
  std::cout << root.dump(2) << "\n";

  if (!budgetOk) {
    std::cerr << "micro_scan: streamed peak RSS " << streamedPeakMb
              << " MB exceeds the " << kPeakRssBudgetMb << " MB budget\n";
    return 1;
  }
  return 0;
}
