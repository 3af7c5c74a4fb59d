// campaign workload: repeated full paper campaigns (Table 3 + the §4.4
// Netsweeper probe + Table 4), alternating two configurations.
//
//   stock     default options on the paper seed. Verdict memo and compiled
//             classify do the work; the digest is pinned.
//   hardened  faults, packet mechanisms and interference armed, quorum +
//             hedge + circuit breakers on, and a write-ahead journal to a
//             scratch file. Its chains are not cacheable, so it bypasses
//             the verdict memo: a memo change moves only the stock half
//             (core.characterize_ms, not core.robust_characterize_ms).
//
// One operation is one stock campaign followed by one hardened campaign;
// op_ms is the median of the pairs' wall times.
//
// The traced run decomposes the same campaigns stage by stage (world build,
// Confirmer::run, the probe, Characterizer::characterize) and replays the
// campaign's (vantage, URL) pairs through transport, classify, the vendor
// category databases and a fresh journal, one timed call at a time.
#include <cstdio>
#include <memory>
#include <set>
#include <sstream>

#include "bench.h"
#include "core/characterizer.h"
#include "core/confirmer.h"
#include "filters/category_set.h"
#include "measure/pattern_library.h"
#include "scenarios/campaign.h"
#include "simnet/transport.h"
#include "util/hash.h"

namespace perfbench {

namespace {

using namespace urlf;
using filters::ProductKind;

/// The stock campaign digest on the paper seed (pinned in ROADMAP.md).
constexpr const char* kStockDigest = "f3c710fad3d1c2e1";

/// The paper's Table 3, row by row (EXPERIMENTS.md): product, ISP,
/// month/year of the retest, submitted/total, blocked/submitted, decision.
struct PaperRow {
  ProductKind product;
  const char* isp;
  const char* date;
  const char* submitted;
  const char* blocked;
  bool confirmed;
};
const PaperRow kTable3[] = {
    {ProductKind::kBlueCoat, "Etisalat", "4/2013", "3/6", "0/3", false},
    {ProductKind::kBlueCoat, "Ooredoo", "4/2013", "3/6", "0/3", false},
    {ProductKind::kSmartFilter, "Ooredoo", "4/2013", "5/10", "0/5", false},
    {ProductKind::kSmartFilter, "Bayanat Al-Oula", "9/2012", "5/10", "5/5",
     true},
    {ProductKind::kSmartFilter, "Nournet", "5/2013", "5/10", "5/5", true},
    {ProductKind::kSmartFilter, "Etisalat", "9/2012", "5/10", "5/5", true},
    {ProductKind::kSmartFilter, "Etisalat", "4/2013", "5/10", "5/5", true},
    {ProductKind::kNetsweeper, "Ooredoo", "8/2013", "6/12", "6/6", true},
    {ProductKind::kNetsweeper, "Du", "3/2013", "6/12", "5/6", true},
    {ProductKind::kNetsweeper, "YemenNet", "3/2013", "6/12", "6/6", true},
};
/// §4.4: five of the 66 Netsweeper test categories blocked in YemenNet.
constexpr int kProbeBlocked = 5;

/// Products deployed behind each field vantage (§4; a quorum clone
/// "<vantage>-q<i>" sits in the same ISP).
std::set<ProductKind> deployedAt(std::string vantage) {
  if (const auto q = vantage.find("-q"); q != std::string::npos)
    vantage.resize(q);
  if (vantage == "field-etisalat")
    return {ProductKind::kBlueCoat, ProductKind::kSmartFilter};
  if (vantage == "field-ooredoo")
    return {ProductKind::kBlueCoat, ProductKind::kNetsweeper};
  if (vantage == "field-du" || vantage == "field-yemennet")
    return {ProductKind::kNetsweeper};
  if (vantage == "field-bayanat" || vantage == "field-nournet")
    return {ProductKind::kSmartFilter};
  return {};
}

scenarios::CampaignOptions stockOptions() {
  scenarios::CampaignOptions options;
  options.classifyThreads = kThreads;
  return options;
}

scenarios::CampaignOptions hardenedOptions(std::uint64_t seed) {
  scenarios::CampaignOptions options;
  options.classifyThreads = kThreads;
  options.world.faultRate = 0.01;
  options.world.faultSeed = util::fnv1a64("faults:" + std::to_string(seed));
  options.world.packetMechanisms = true;
  options.world.interferenceRate = 0.05;
  options.world.interferenceSeed =
      util::fnv1a64("interference:" + std::to_string(seed));
  options.world.quorumVantages = 1;
  options.quorum = 2;
  options.hedge = true;
  options.healthEnabled = true;
  return options;
}

/// One campaign run stage by stage from the benchmark's side: the same
/// calls, in the same order and with the same options, as
/// scenarios::runPaperCampaign, so its digest must equal the library's.
struct StagedCampaign {
  std::uint64_t digest = 0;
  int probeBlocked = 0;
  std::vector<core::CaseStudyResult> cases;
  std::vector<std::pair<std::string, core::CharacterizationResult>> networks;
  std::unique_ptr<scenarios::PaperWorld> paper;  ///< the world afterwards
};

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void digestRow(std::ostringstream& digest, const measure::UrlTestResult& r) {
  digest << r.url << '|' << static_cast<int>(r.verdict) << '|';
  if (r.blockPage)
    digest << filters::toString(r.blockPage->product) << '/'
           << r.blockPage->patternName;
  else
    digest << '-';
  if (r.provenance == measure::Provenance::kDegraded) digest << "|degraded";
  digest << '\n';
}

StagedCampaign stagedCampaign(const scenarios::CampaignOptions& options,
                              measure::CampaignJournal* journal,
                              Trace* trace) {
  StagedCampaign out;
  {
    Trace::Scope span(trace, "scenarios.world_build");
    out.paper = std::make_unique<scenarios::PaperWorld>(options.seed,
                                                        options.world);
  }
  auto& paper = *out.paper;
  auto& world = paper.world();
  std::ostringstream digest;

  std::optional<measure::HealthRegistry> health;
  if (options.healthEnabled) health.emplace(options.breaker);
  core::CampaignContext ctx;
  ctx.journal = journal;
  ctx.health = health ? &*health : nullptr;

  core::Confirmer confirmer(world, paper.hosting(), paper.vendorSet());
  bool probeDone = false;
  for (const auto& caseStudy : paper.caseStudies()) {
    if (!probeDone && caseStudy.startDate >= util::CivilDate{2013, 1, 1}) {
      scenarios::advanceClockTo(world, {2013, 1, 14});
      std::vector<core::CategoryProbeResult> probe;
      {
        Trace::Scope span(trace, "core.probe");
        probe = confirmer.probeNetsweeperCategories("field-yemennet",
                                                    "lab-toronto", {}, ctx);
      }
      digest << "probe:";
      for (const auto& p : probe) {
        digest << p.category << '=' << (p.blocked ? '1' : '0') << ';';
        if (p.blocked) ++out.probeBlocked;
      }
      digest << '\n';
      probeDone = true;
    }
    scenarios::advanceClockTo(world, caseStudy.startDate);
    auto config = caseStudy.config;
    config.classifyMode = options.classifyMode;
    config.classifyThreads = options.classifyThreads;
    config.memoizeVerdicts = options.memoizeVerdicts;
    core::CaseStudyResult result;
    {
      Trace::Scope span(trace, "core.confirm");
      result = confirmer.run(config, ctx);
    }
    digest << "case:" << filters::toString(config.product) << '|'
           << config.ispName << '|' << result.dateLabel << '|'
           << result.submittedRatio() << '|' << result.blockedRatio() << '|'
           << (result.confirmed ? 'y' : 'n') << '|'
           << result.pretestAccessibleCount << '|'
           << result.attributedToProduct << '|' << result.controlBlocked
           << '|' << result.notes << '\n';
    for (const auto& r : result.finalResults) digestRow(digest, r);
    out.cases.push_back(std::move(result));
  }

  struct Network {
    const char* vantage;
    const char* alpha2;
    util::CivilDate date;
    int runs;
  };
  const Network networks[] = {
      {"field-etisalat", "AE", {2013, 5, 6}, 1},
      {"field-yemennet", "YE", {2013, 4, 1}, 3},
      {"field-du", "AE", {2013, 4, 1}, 1},
      {"field-ooredoo", "QA", {2013, 8, 26}, 1},
  };
  core::Characterizer characterizer(world);
  for (const auto& network : networks) {
    scenarios::advanceClockTo(world, network.date);
    core::CharacterizeOptions co;
    co.runs = network.runs;
    co.classifyMode = options.classifyMode;
    co.classifyThreads = options.classifyThreads;
    co.memoizeVerdicts = options.memoizeVerdicts;
    co.journal = ctx.journal;
    co.health = ctx.health;
    if (options.quorum >= 2) {
      co.runs = 1;
      for (int i = 1; i < options.quorum; ++i)
        co.quorumVantages.push_back(std::string(network.vantage) + "-q" +
                                    std::to_string(i));
      co.robust.quorum = options.quorum;
      if (options.hedge) {
        co.robust.attemptDeadlineHours = 6;
        co.robust.hedgeAttempts = 2;
        co.robust.paceBurst = 4;
        co.robust.paceRefillPerHour = 2.0;
      }
    }
    core::CharacterizationResult result;
    {
      Trace::Scope span(trace, "core.characterize");
      result = characterizer.characterize(network.vantage, "lab-toronto",
                                          paper.globalList(),
                                          paper.localList(network.alpha2), co);
    }
    digest << "network:" << network.vantage << '|'
           << (result.attributedProduct
                   ? filters::toString(*result.attributedProduct)
                   : "(none)");
    for (const auto& [category, cell] : result.cells) {
      digest << '|' << category << '=' << cell.tested << '/' << cell.blocked;
      if (cell.untestable > 0) digest << "/u" << cell.untestable;
      if (cell.contested > 0) digest << "/c" << cell.contested;
    }
    digest << '\n';
    for (const auto& r : result.results) digestRow(digest, r);
    out.networks.emplace_back(network.vantage, std::move(result));
  }
  out.digest = util::fnv1a64(digest.str());

  if (journal != nullptr) {
    auto e = measure::CampaignJournal::event("campaign-end", world.now());
    e["digest"] = report::Json::string(hex(out.digest));
    int confirmed = 0, degraded = 0;
    for (const auto& c : out.cases) {
      confirmed += c.confirmed ? 1 : 0;
      degraded += c.degradedSubmitted + c.degradedControl;
    }
    for (const auto& [vantage, n] : out.networks)
      for (const auto& r : n.results)
        if (r.provenance == measure::Provenance::kDegraded) ++degraded;
    e["confirmed"] = report::Json::number(std::int64_t{confirmed});
    e["degraded_rows"] = report::Json::number(std::int64_t{degraded});
    journal->sync(e);
  }
  return out;
}

/// Stock staged campaign against the paper's Table 3 and §4.4 probe.
void checkTable3(const StagedCampaign& staged, Result& result) {
  if (hex(staged.digest) != kStockDigest)
    result.fail("stock staged digest " + hex(staged.digest) + " != pinned " +
                kStockDigest);
  if (staged.probeBlocked != kProbeBlocked)
    result.fail("probe blocked " + std::to_string(staged.probeBlocked) +
                " categories, paper reports 5");
  if (staged.cases.size() != std::size(kTable3))
    result.fail("campaign ran " + std::to_string(staged.cases.size()) +
                " case studies, Table 3 has 10");
  for (const auto& row : kTable3) {
    int matches = 0;
    for (const auto& c : staged.cases) {
      if (c.config.product != row.product || c.config.ispName != row.isp ||
          c.dateLabel != row.date)
        continue;
      ++matches;
      if (c.submittedRatio() != row.submitted ||
          c.blockedRatio() != row.blocked || c.confirmed != row.confirmed)
        result.fail(std::string("Table 3 row ") +
                    std::string(filters::toString(row.product)) + "/" +
                    row.isp + " " + row.date + ": measured " +
                    c.submittedRatio() + " " + c.blockedRatio() +
                    (c.confirmed ? " confirmed" : " not confirmed"));
    }
    if (matches != 1)
      result.fail(std::string("Table 3 row ") + row.isp + " " + row.date +
                  " matched " + std::to_string(matches) + " case studies");
  }
}

/// Hardened staged campaign: never confirms what the paper leaves
/// unconfirmed, never attributes a block page to an undeployed product.
void checkHardened(const StagedCampaign& staged, Result& result) {
  for (const auto& c : staged.cases) {
    for (const auto& row : kTable3)
      if (!row.confirmed && c.confirmed && c.config.product == row.product &&
          c.config.ispName == row.isp)
        result.fail(std::string("hardened campaign confirmed ") +
                    std::string(filters::toString(row.product)) + " at " +
                    row.isp + ", which Table 3 leaves unconfirmed");
    // A case study attributes blocks to its product under test only; the
    // quorum does not cover this stage, so rows may carry mimicked vendor
    // matches, but none may count for a product the ISP does not run.
    if (!deployedAt(c.config.fieldVantage).contains(c.config.product) &&
        (c.attributedToProduct > 0 || c.confirmed))
      result.fail("hardened case study attributed " +
                  std::to_string(c.attributedToProduct) + " blocks to " +
                  std::string(filters::toString(c.config.product)) + " at " +
                  c.config.ispName + ", which does not run it");
  }
  for (const auto& [vantage, n] : staged.networks) {
    const auto deployed = deployedAt(vantage);
    // The network's attribution (the product most block pages name). Single
    // rows are not checked: on a few seeds two quorum vantages are mimicked
    // with the same foreign vendor and the row keeps it (CHANGES.md FOUND).
    if (n.attributedProduct && !deployed.contains(*n.attributedProduct))
      result.fail("hardened characterization attributed " + vantage + " to " +
                  std::string(filters::toString(*n.attributedProduct)));
  }
}

/// Replay the campaign's (vantage, URL) pairs through the layer entry points
/// one timed call at a time, on the world the campaign left behind.
void replayLayers(StagedCampaign& staged, Trace& trace) {
  auto& paper = *staged.paper;
  auto& world = paper.world();
  std::vector<std::pair<std::string, std::string>> pairs;
  for (const auto& c : staged.cases)
    for (const auto& r : c.finalResults)
      pairs.emplace_back(c.config.fieldVantage, r.url);
  for (const auto& [vantage, n] : staged.networks)
    for (const auto& r : n.results) pairs.emplace_back(vantage, r.url);

  simnet::Transport transport(world);
  const auto& library = measure::CompiledPatternLibrary::builtin();
  filters::CategorySet categories;
  for (const auto& [vantageName, url] : pairs) {
    const auto* vantage = world.findVantage(vantageName);
    if (vantage == nullptr) continue;
    auto t0 = Clock::now();
    const auto fetched = transport.fetchUrl(*vantage, url);
    auto t1 = Clock::now();
    trace.record("simnet.fetch", t0, t1);

    t0 = Clock::now();
    (void)library.classify(fetched);
    t1 = Clock::now();
    trace.record("measure.classify", t0, t1);

    const auto parsed = net::Url::parse(url);
    if (!parsed) continue;
    for (const auto kind : filters::allProducts()) {
      categories = filters::CategorySet{};
      t0 = Clock::now();
      paper.vendor(kind).masterDb().categorizeInto(*parsed, categories);
      t1 = Clock::now();
      trace.record("filters.categorize", t0, t1);
    }
  }
}

void replayJournal(const std::string& source, const std::string& target,
                   Trace& trace, Result& result) {
  auto opened = measure::CampaignJournal::open(source);
  if (!opened) {
    result.fail("hardened journal does not reopen: " + opened.error());
    return;
  }
  auto fresh = measure::CampaignJournal::start(target, opened->header());
  for (const auto& record : opened->records()) {
    const auto t0 = Clock::now();
    fresh.sync(record);
    trace.record("measure.journal_sync", t0, Clock::now());
  }
  trace.count("measure.journal_records",
              static_cast<double>(opened->recordCount()));
}

}  // namespace

Result runCampaign(const Args& args) {
  Result result;
  const auto stock = stockOptions();
  const auto hardened = hardenedOptions(args.seed);
  const std::string journalPath = args.scratchDir + "/hardened.urlfj";

  const auto runHardened = [&] {
    auto journal =
        measure::CampaignJournal::start(journalPath, hardened.headerJson());
    return scenarios::runPaperCampaign(hardened, &journal);
  };

  // Set-up: one cold campaign of each configuration (lazy regex
  // compilation, first allocations), whose digests every timed campaign
  // must reproduce.
  const auto stockRef = scenarios::runPaperCampaign(stock);
  const auto hardenedRef = runHardened();
  const double setupS = msSince(args.processStart) / 1000.0;

  if (stockRef.digestHex() != kStockDigest)
    result.fail("stock campaign digest " + stockRef.digestHex() +
                " != pinned " + kStockDigest);
  if (stockRef.confirmedCaseStudies != 7 ||
      stockRef.probeBlockedCategories != kProbeBlocked)
    result.fail("stock campaign confirmed " +
                std::to_string(stockRef.confirmedCaseStudies) +
                " case studies (Table 3: 7)");

  const auto checkRun = [&](const scenarios::CampaignReport& report,
                            const scenarios::CampaignReport& reference,
                            const char* what) {
    if (report.digest != reference.digest)
      result.fail(std::string(what) + " campaign digest moved within a run: " +
                  report.digestHex() + " vs " + reference.digestHex());
  };

  Trace trace;
  Trace* tracer = args.trace ? &trace : nullptr;
  std::vector<double> pairMs, stockMs, stagedStockMs;
  const auto begin = Clock::now();
  while (msSince(begin) < args.seconds * 1000.0) {
    auto t0 = Clock::now();
    const auto s = scenarios::runPaperCampaign(stock);
    const double stockOneMs = msSince(t0);
    stockMs.push_back(stockOneMs);
    checkRun(s, stockRef, "stock");

    t0 = Clock::now();
    const auto h = runHardened();
    pairMs.push_back(stockOneMs + msSince(t0));
    checkRun(h, hardenedRef, "hardened");
    result.attempted += 2;

    if (tracer != nullptr) {
      // Traced twins of both campaigns, stage by stage.
      t0 = Clock::now();
      {
        Trace::Scope span(tracer, "campaign.stock");
        const auto staged = stagedCampaign(stock, nullptr, tracer);
        std::size_t urls = 0;
        for (const auto& c : staged.cases) urls += c.finalResults.size();
        for (const auto& [v, n] : staged.networks) urls += n.results.size();
        tracer->count("measure.urls_tested", static_cast<double>(urls));
      }
      stagedStockMs.push_back(msSince(t0));
      Trace::Scope span(tracer, "campaign.hardened");
      auto journal = measure::CampaignJournal::start(
          args.scratchDir + "/staged.urlfj", hardened.headerJson());
      (void)stagedCampaign(hardened, &journal, tracer);
    }
  }

  // Before the checks below, which run campaigns of their own.
  const double peakMb = peakRssMb();

  // Output checks on stage-by-stage twins (untimed): the stock one against
  // the paper, the hardened one against the deployment ground truth. Each
  // twin's digest must equal the library campaign's, so the checks speak
  // of the campaigns that were timed.
  auto stagedStock = stagedCampaign(stock, nullptr, nullptr);
  checkTable3(stagedStock, result);
  {
    auto journal = measure::CampaignJournal::start(
        args.scratchDir + "/check.urlfj", hardened.headerJson());
    auto stagedHardened = stagedCampaign(hardened, &journal, nullptr);
    if (stagedHardened.digest != hardenedRef.digest)
      result.fail("hardened staged digest " + hex(stagedHardened.digest) +
                  " != library campaign " + hardenedRef.digestHex());
    checkHardened(stagedHardened, result);
    if (journal.recordCount() == 0)
      result.fail("hardened journal recorded nothing");
  }

  if (!args.trace) {
    result.set("setup_s", setupS, "s");
    result.set("op_ms", median(pairMs), "ms");
    result.set("peak_rss_mb", peakMb, "MB");
    return result;
  }

  replayLayers(stagedStock, trace);
  replayJournal(journalPath, args.scratchDir + "/replay.urlfj", trace, result);

  setMedian(result, "scenarios.world_build_ms",
            trace.durations("scenarios.world_build", 1.0), "ms");
  setMedian(result, "core.confirm_ms",
            trace.sumsPerParent("core.confirm", "campaign.stock", 1.0), "ms");
  setMedian(result, "core.probe_ms",
            trace.sumsPerParent("core.probe", "campaign.stock", 1.0), "ms");
  setMedian(result, "core.characterize_ms",
            trace.sumsPerParent("core.characterize", "campaign.stock", 1.0),
            "ms");
  setMedian(result, "core.robust_characterize_ms",
            trace.sumsPerParent("core.characterize", "campaign.hardened", 1.0),
            "ms");
  setMedian(result, "measure.urls_tested", trace.counts("measure.urls_tested"),
            "count");
  setMedian(result, "simnet.fetch_us", trace.durations("simnet.fetch", 1e-3),
            "us");
  setMedian(result, "measure.classify_us",
            trace.durations("measure.classify", 1e-3), "us");
  setMedian(result, "filters.categorize_us",
            trace.durations("filters.categorize", 1e-3), "us");
  setMedian(result, "measure.journal_sync_us",
            trace.durations("measure.journal_sync", 1e-3), "us");
  setMedian(result, "measure.journal_records",
            trace.counts("measure.journal_records"), "count");
  // Tracing overhead: the stage-by-stage traced stock campaign against the
  // untraced library call, same process, same rounds.
  result.set("trace.overhead_ms", median(stagedStockMs) - median(stockMs),
             "ms");
  return result;
}

}  // namespace perfbench
