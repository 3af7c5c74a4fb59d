// scan workload: §3 over a Shodan-like host stream. A PaperWorld with 50k
// streamed hosts attached. One operation is one full scan: scan::crawlStream of the whole
// world into a fresh sharded banner index, then one
// Identifier::identifyAll pass over it; op_ms is the median of their
// wall times. Stream generation, probing, tokenizing/postings and
// fingerprint validation do the work; measure and serve stay idle.
//
// Known fault, kept and counted: a streamed bait host carries its phrase in
// the page title, so Blue Coat's titleContains("ProxySG") rule validates
// every "proxysg review" bait as an installation. Each installation
// reported at a streamed host is one failed identification. The stream's
// seed is fixed (not taken from --seed) so that the failed share is the
// same in every run.
#include <map>
#include <memory>
#include <set>

#include "bench.h"
#include "core/identifier.h"
#include "fingerprint/engine.h"
#include "net/cctld.h"
#include "scan/banner_index.h"
#include "scenarios/paper_world.h"
#include "simnet/world_stream.h"

namespace perfbench {

namespace {

using namespace urlf;

constexpr std::uint64_t kStreamHosts = 50000;
constexpr std::uint64_t kStreamSeed = 777;
/// The paper world's vendor-operated AS: its servers (e.g.
/// denypagetests.netsweeper.com) genuinely carry their product's signature
/// without being an ISP installation, so identifying them is no error.
constexpr std::uint32_t kVendorInfrastructureAsn = 3561;
/// Every n-th streamed host is replayed through generation and probing in
/// the traced run.
constexpr std::uint64_t kReplayStride = 50;

using Installations = std::map<filters::ProductKind,
                               std::vector<core::Installation>>;

std::string key(const core::Installation& i) {
  return std::string(filters::toString(i.product)) + "@" + i.ip.toString() +
         ":" + std::to_string(i.port) + "/" + i.countryAlpha2;
}

/// The §3.1 query fan-out for one product: each Shodan keyword alone and
/// with every country facet.
std::vector<scan::Query> fanOut(filters::ProductKind product) {
  std::vector<scan::Query> queries;
  for (const auto& keyword : core::Identifier::shodanKeywords(product)) {
    queries.push_back({keyword, std::nullopt});
    for (const auto& country : net::allCountries())
      queries.push_back({keyword, std::string(country.alpha2)});
  }
  return queries;
}

/// Per-layer replays over one crawl's index, timed call by call: stream
/// generation and probing of a sample of hosts, the search fan-out, and the
/// fingerprint validation of every candidate.
void traceLayers(Trace& trace, simnet::World& world,
                 const simnet::ProceduralHostStream& stream,
                 const geo::GeoDatabase& geo,
                 const fingerprint::Engine& engine,
                 const scan::ShardedBannerIndex& index, double crawlS,
                 std::size_t bodySnippetLimit) {
  trace.count("scan.crawl_s", crawlS);
  trace.count("scan.index_mb", static_cast<double>(index.memoryBytes()) / 1e6);
  trace.count("scan.vocabulary", static_cast<double>(index.vocabularySize()));
  scan::BannerRecord record;
  for (std::uint64_t id = 0; id < kStreamHosts; id += kReplayStride) {
    auto g0 = Clock::now();
    const auto host = stream.host(id);
    trace.record("simnet.host_gen", g0, Clock::now());
    const auto endpoint = simnet::WorldStream::materializeEndpoint(host);
    g0 = Clock::now();
    scan::probeEndpointInto(*endpoint, host.ip, host.port, geo, world.now(),
                            bodySnippetLimit, record);
    trace.record("scan.probe", g0, Clock::now());
  }
  std::set<std::uint32_t> candidates;
  {
    Trace::Scope search(&trace, "scan.search_all");
    for (const auto product : filters::allProducts()) {
      const auto queries = fanOut(product);
      const auto s0 = Clock::now();
      const auto docs = index.searchAll(queries);
      trace.record("scan.search", s0, Clock::now());
      candidates.insert(docs.begin(), docs.end());
    }
  }
  trace.count("scan.candidates", static_cast<double>(candidates.size()));
  fingerprint::EvalScratch scratch;
  std::vector<fingerprint::Match> matches;
  for (const auto doc : candidates) {
    const auto surface = index.surface(doc);
    const auto v0 = Clock::now();
    engine.probeInto(world, surface.ip, surface.port, scratch, matches);
    trace.record("fingerprint.validate", v0, Clock::now());
  }
}

}  // namespace

Result runScan(const Args& args) {
  Result result;
  scenarios::PaperWorld paper(args.seed);
  auto& world = paper.world();
  simnet::ProceduralHostConfig config;
  config.hosts = kStreamHosts;
  auto stream = std::make_shared<simnet::ProceduralHostStream>(kStreamSeed,
                                                               config);
  stream->announceInto(world);
  world.attachHostStream(stream);
  const auto geo = world.buildGeoDatabase();
  const auto whois = world.buildAsnDatabase();
  const auto engine = fingerprint::Engine::withBuiltinSignatures();
  scan::StreamCrawlOptions crawlOptions;
  crawlOptions.threadLimit = kThreads;
  core::IdentifierConfig identifierConfig;
  identifierConfig.threads = kThreads;

  // Ground truth the identification must recover: every externally visible
  // installation of the paper world, with its product and country.
  std::set<std::string> truth;
  for (const auto& g : paper.groundTruth())
    if (g.externallyVisible)
      truth.insert(std::string(filters::toString(g.product)) + "@" +
                   g.serviceIp.toString() + "/" + g.countryAlpha2);
  Trace trace;
  Trace* tracer = args.trace ? &trace : nullptr;
  std::set<std::string> reference;  // the warm-up's installations
  std::uint32_t docCount = 0;
  scan::ShardedBannerIndex index;
  // Identifications of the last operation, and how many of them are at
  // streamed hosts (the known bait fault: a streamed host is never an
  // installation).
  std::uint64_t identified = 0, baitIdentified = 0;
  // One operation: a fresh crawl, then one identify pass over its index,
  // with every output checked. Returns its wall time in ms (checks
  // excluded). `t` wraps the calls in spans and replays the layers.
  const auto runOp = [&](Trace* t) {
    index = scan::ShardedBannerIndex{};  // free the previous index first
    const auto t0 = Clock::now();
    {
      Trace::Scope span(t, "scan.crawl");
      index = scan::crawlStream(world, geo, crawlOptions);
    }
    const double crawlS = msSince(t0) / 1000.0;
    Installations found;
    {
      Trace::Scope span(t, "core.identify_all");
      const core::Identifier identifier(world, index, engine, geo, whois,
                                        identifierConfig);
      found = identifier.identifyAll();
    }
    const double opMs = msSince(t0);

    const bool first = reference.empty();
    if (first) {
      docCount = index.docCount();
      if (docCount < kStreamHosts)
        result.fail("crawl indexed only " + std::to_string(docCount) +
                    " documents");
    } else if (index.docCount() != docCount) {
      result.fail("crawl indexed " + std::to_string(index.docCount()) +
                  " documents, the first crawl " + std::to_string(docCount));
    }
    std::set<std::string> keys, seenTruth;
    identified = baitIdentified = 0;
    for (const auto& [product, list] : found) {
      for (const auto& installation : list) {
        ++identified;
        keys.insert(key(installation));
        if (stream->hostAt(installation.ip, installation.port)) {
          ++baitIdentified;
          continue;
        }
        const auto truthKey = std::string(filters::toString(product)) + "@" +
                              installation.ip.toString() + "/" +
                              installation.countryAlpha2;
        if (truth.contains(truthKey))
          seenTruth.insert(truthKey);
        else if (!installation.asn ||
                 installation.asn->asn != kVendorInfrastructureAsn)
          result.fail("identified " + key(installation) +
                      ", which the paper world never deployed");
      }
    }
    if (first) {
      reference = keys;
      for (const auto& g : truth)
        if (!seenTruth.contains(g))
          result.fail("ground truth " + g + " not found");
    } else if (keys != reference) {
      result.fail("identifyAll output changed between operations");
    }
    if (t != nullptr) {
      t->count("core.installations", static_cast<double>(identified));
      traceLayers(*t, world, *stream, geo, engine, index, crawlS,
                  crawlOptions.bodySnippetLimit);
    }
    return opMs;
  };
  // Set-up ends with one untimed warm-up operation (cold allocations); its
  // installations are the reference every timed operation must repeat.
  (void)runOp(nullptr);
  const double setupS = msSince(args.processStart) / 1000.0;

  std::vector<double> opMs, tracedOpMs;
  const auto begin = Clock::now();
  // A traced run needs one operation of each kind (plain and traced).
  for (int op = 0;
       msSince(begin) < args.seconds * 1000.0 || (tracer != nullptr && op < 2);
       ++op) {
    // Traced runs trace every other operation; the difference of the two
    // medians is the tracing overhead.
    const bool traced = tracer != nullptr && op % 2 == 1;
    (traced ? tracedOpMs : opMs).push_back(runOp(traced ? tracer : nullptr));
    result.attempted += identified;
    result.failed += baitIdentified;
  }
  const double peakMb = peakRssMb();

  if (!args.trace) {
    result.set("setup_s", setupS, "s");
    result.set("op_ms", median(opMs), "ms");
    result.set("peak_rss_mb", peakMb, "MB");
    return result;
  }
  setMedian(result, "simnet.host_gen_us",
            trace.durations("simnet.host_gen", 1e-3), "us");
  setMedian(result, "scan.probe_us", trace.durations("scan.probe", 1e-3), "us");
  setMedian(result, "scan.crawl_s", trace.counts("scan.crawl_s"), "s");
  setMedian(result, "scan.index_mb", trace.counts("scan.index_mb"), "MB");
  setMedian(result, "scan.vocabulary", trace.counts("scan.vocabulary"),
            "count");
  setMedian(result, "scan.search_ms",
            trace.sumsPerParent("scan.search", "scan.search_all", 1.0), "ms");
  setMedian(result, "scan.candidates", trace.counts("scan.candidates"),
            "count");
  setMedian(result, "fingerprint.validate_us",
            trace.durations("fingerprint.validate", 1e-3), "us");
  setMedian(result, "core.installations", trace.counts("core.installations"),
            "count");
  result.set("trace.overhead_ms", median(tracedOpMs) - median(opMs), "ms");
  return result;
}

}  // namespace perfbench
