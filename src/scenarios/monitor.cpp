#include "scenarios/monitor.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <set>
#include <sstream>

#include "filters/smartfilter.h"
#include "net/url.h"
#include "util/hash.h"
#include "util/strings.h"

namespace urlf::scenarios {

namespace {

using measure::CampaignJournal;
using report::Json;

/// Seeds the churn overlay / DB-mutation draws apart from each other and
/// from the base stream.
constexpr std::uint64_t kStreamSeedSalt = 0x57EA4D5EEDULL;
constexpr std::uint64_t kChurnSeedSalt = 0xC0417BEA7ULL;
constexpr std::uint64_t kDbSalt = 0xDBC4A97E11ULL;

/// The scripted deployment events fire at these fixed ticks (see
/// MonitorOptions::scriptedEvents).
constexpr int kHideEventTick = 2;
constexpr int kNewDeploymentEventTick = 4;
constexpr int kStripBrandingEventTick = 6;

Json u64Json(std::uint64_t v) {
  // Stored as a decimal string: Json numbers are doubles and would round
  // values above 2^53 (seeds, digests, bit-cast certainties).
  return Json::string(std::to_string(v));
}

std::optional<std::uint64_t> u64FromJson(const Json* json) {
  if (json == nullptr || !json->asString()) return std::nullopt;
  const std::string& text = *json->asString();
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::optional<std::uint64_t> hex16FromJson(const Json* json) {
  if (json == nullptr || !json->asString()) return std::nullopt;
  const std::string& text = *json->asString();
  if (text.size() != 16) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    int digit;
    if (c >= '0' && c <= '9')
      digit = c - '0';
    else if (c >= 'a' && c <= 'f')
      digit = c - 'a' + 10;
    else
      return std::nullopt;
    value = (value << 4) | static_cast<std::uint64_t>(digit);
  }
  return value;
}

std::optional<std::int64_t> i64FromJson(const Json* json) {
  if (json == nullptr || !json->asNumber()) return std::nullopt;
  return static_cast<std::int64_t>(*json->asNumber());
}

std::optional<filters::ProductKind> productFromString(std::string_view name) {
  for (const auto product : filters::allProducts())
    if (filters::toString(product) == name) return product;
  return std::nullopt;
}

double millisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

std::string_view toString(MonitorMode mode) {
  switch (mode) {
    case MonitorMode::kFull:
      return "full";
    case MonitorMode::kIncremental:
      return "incremental";
  }
  return "?";
}

// --------------------------------------------------------- options --------

Json MonitorOptions::headerJson() const {
  Json out = Json::object();
  out["type"] = Json::string("monitor-config");
  out["version"] = Json::number(std::int64_t{1});
  out["seed"] = u64Json(seed);

  Json worldJson = Json::object();
  worldJson["hide_external_surfaces"] = Json::boolean(world.hideExternalSurfaces);
  worldJson["strip_branding"] = Json::boolean(world.stripBranding);
  worldJson["disregard_submitter"] = Json::boolean(world.disregardSubmitter);
  worldJson["geo_error_rate"] = Json::number(world.geoErrorRate);
  out["world"] = std::move(worldJson);

  Json streamJson = Json::object();
  streamJson["hosts"] = u64Json(streamHosts);
  streamJson["hosts_per_shard"] = u64Json(hostsPerShard);
  streamJson["countries"] = Json::number(std::int64_t{streamCountries});
  streamJson["bait_fraction"] = Json::number(baitFraction);
  out["stream"] = std::move(streamJson);

  Json churnJson = Json::object();
  churnJson["rebrand_rate"] = Json::number(churn.rebrandRate);
  churnJson["park_rate"] = Json::number(churn.parkRate);
  churnJson["db_mutations_per_tick"] =
      Json::number(std::int64_t{churn.dbMutationsPerTick});
  out["churn"] = std::move(churnJson);

  out["tick_hours"] = Json::number(tickHours);
  out["scripted_events"] = Json::boolean(scriptedEvents);

  Json healthJson = Json::object();
  healthJson["enabled"] = Json::boolean(healthEnabled);
  healthJson["failure_threshold"] =
      Json::number(std::int64_t{breaker.failureThreshold});
  healthJson["cooldown_hours"] = Json::number(breaker.cooldownHours);
  out["health"] = std::move(healthJson);
  return out;
}

util::Expected<MonitorOptions> MonitorOptions::fromHeaderJson(
    const Json& header) {
  using Result = util::Expected<MonitorOptions>;
  if (!header.isObject())
    return Result::failure("checkpoint header is not an object");
  const auto* type = header.find("type");
  if (type == nullptr || !type->asString() ||
      *type->asString() != "monitor-config")
    return Result::failure("checkpoint header is not a monitor-config record");
  const auto* version = header.find("version");
  if (version == nullptr || !version->asNumber() || *version->asNumber() != 1.0)
    return Result::failure("unsupported monitor-config version");

  MonitorOptions options;
  if (const auto seed = u64FromJson(header.find("seed")))
    options.seed = *seed;
  else
    return Result::failure("checkpoint header has no valid seed");

  if (const auto* worldJson = header.find("world");
      worldJson && worldJson->isObject()) {
    const auto boolean = [&](const char* key, bool& out) {
      if (const auto* v = worldJson->find(key); v && v->asBool())
        out = *v->asBool();
    };
    boolean("hide_external_surfaces", options.world.hideExternalSurfaces);
    boolean("strip_branding", options.world.stripBranding);
    boolean("disregard_submitter", options.world.disregardSubmitter);
    if (const auto* v = worldJson->find("geo_error_rate"); v && v->asNumber())
      options.world.geoErrorRate = *v->asNumber();
  }

  if (const auto* streamJson = header.find("stream");
      streamJson && streamJson->isObject()) {
    if (const auto hosts = u64FromJson(streamJson->find("hosts")))
      options.streamHosts = *hosts;
    if (const auto per = u64FromJson(streamJson->find("hosts_per_shard")))
      options.hostsPerShard = *per;
    if (const auto c = i64FromJson(streamJson->find("countries")))
      options.streamCountries = static_cast<int>(*c);
    if (const auto* v = streamJson->find("bait_fraction"); v && v->asNumber())
      options.baitFraction = *v->asNumber();
  }

  if (const auto* churnJson = header.find("churn");
      churnJson && churnJson->isObject()) {
    if (const auto* v = churnJson->find("rebrand_rate"); v && v->asNumber())
      options.churn.rebrandRate = *v->asNumber();
    if (const auto* v = churnJson->find("park_rate"); v && v->asNumber())
      options.churn.parkRate = *v->asNumber();
    if (const auto m = i64FromJson(churnJson->find("db_mutations_per_tick")))
      options.churn.dbMutationsPerTick = static_cast<int>(*m);
  }

  if (const auto h = i64FromJson(header.find("tick_hours")))
    options.tickHours = *h;
  else
    return Result::failure("checkpoint header has no valid tick_hours");
  if (const auto* v = header.find("scripted_events"); v && v->asBool())
    options.scriptedEvents = *v->asBool();
  else
    options.scriptedEvents = false;

  if (const auto* healthJson = header.find("health");
      healthJson && healthJson->isObject()) {
    if (const auto* v = healthJson->find("enabled"); v && v->asBool())
      options.healthEnabled = *v->asBool();
    if (const auto t = i64FromJson(healthJson->find("failure_threshold")))
      options.breaker.failureThreshold = static_cast<int>(*t);
    if (const auto c = i64FromJson(healthJson->find("cooldown_hours")))
      options.breaker.cooldownHours = *c;
  }
  return options;
}

// --------------------------------------------------------- reports --------

std::string TickReport::digestHex() const { return hex16(digest); }

Json TickReport::toJson() const {
  Json out = Json::object();
  out["tick"] = Json::number(std::int64_t{tick});
  out["at_hours"] = Json::number(atHours);
  out["newly_confirmed"] = Json::number(std::int64_t{newlyConfirmed});
  out["decommissioned"] = Json::number(std::int64_t{decommissioned});
  out["relocated"] = Json::number(std::int64_t{relocated});
  out["verdict_flips"] = Json::number(std::int64_t{verdictFlips});
  out["digest"] = Json::string(digestHex());
  out["cells_rebuilt"] = Json::number(static_cast<std::int64_t>(cellsRebuilt));
  out["cell_count"] = Json::number(static_cast<std::int64_t>(cellCount));
  out["validation_hits"] =
      Json::number(static_cast<std::int64_t>(validationHits));
  out["validation_misses"] =
      Json::number(static_cast<std::int64_t>(validationMisses));
  out["urls_tested"] = Json::number(static_cast<std::int64_t>(urlsTested));
  out["urls_reused"] = Json::number(static_cast<std::int64_t>(urlsReused));
  out["scan_ms"] = Json::number(scanMs);
  out["identify_ms"] = Json::number(identifyMs);
  out["test_ms"] = Json::number(testMs);
  return out;
}

std::string MonitorReport::chainDigestHex() const { return hex16(chainDigest); }

// --------------------------------------------------------- session --------

std::unique_ptr<MonitorSession> MonitorSession::create(
    const MonitorOptions& options) {
  auto session = std::unique_ptr<MonitorSession>(new MonitorSession());
  session->options_ = options;
  session->chain_ = util::kFnvOffsetBasis;
  session->buildWorld();
  session->buildTestPlan();
  return session;
}

void MonitorSession::buildWorld() {
  paper_ = std::make_unique<PaperWorld>(options_.seed, options_.world);
  auto& world = paper_->world();

  // Passive normalization: the monitor's re-use guarantees require fetches
  // to be pure functions of (world content, clock). Strip every source of
  // per-exchange dice or fetch side effects — fault plans, outage plans,
  // license-overload rolls, queue-on-access — so the full and incremental
  // modes stay in lockstep and checkpoints need no RNG or queue state.
  world.clearFaultPlan();
  world.clearOutagePlan();
  for (const auto& box : world.middleboxes()) {
    if (auto* deployment = dynamic_cast<filters::Deployment*>(box.get())) {
      deployment->policy().queueAccessedUrls = false;
      deployment->policy().offlineProbability = 0.0;
    }
  }

  if (options_.streamHosts > 0) {
    simnet::ProceduralHostConfig streamConfig;
    streamConfig.hosts = options_.streamHosts;
    streamConfig.countries = options_.streamCountries;
    streamConfig.baitFraction = options_.baitFraction;
    auto base = std::make_shared<simnet::ProceduralHostStream>(
        options_.seed ^ kStreamSeedSalt, streamConfig);
    simnet::ChurnConfig churnConfig;
    churnConfig.rebrandRate = options_.churn.rebrandRate;
    churnConfig.parkRate = options_.churn.parkRate;
    churnConfig.baitFraction = options_.baitFraction;
    churn_ = std::make_shared<simnet::ChurnHostStream>(
        std::move(base), options_.seed ^ kChurnSeedSalt, churnConfig);
    churn_->announceInto(world);
    world.attachHostStream(churn_);
  }

  health_ = measure::HealthRegistry(options_.breaker);
  refreshMaxLag();
  expectedEpoch_ = world.middleboxStateEpoch();
}

void MonitorSession::buildTestPlan() {
  auto& world = paper_->world();
  const auto intern = [&](const std::string& url) -> std::size_t {
    if (const auto it = urlIndex_.find(url); it != urlIndex_.end())
      return it->second;
    PlanUrl plan;
    plan.url = url;
    if (const auto parsed = net::Url::parse(url)) {
      plan.host = util::toLower(parsed->host());
      plan.regDomain = util::toLower(net::registrableDomain(plan.host));
    }
    urls_.push_back(std::move(plan));
    urlIndex_.emplace(url, urls_.size() - 1);
    return urls_.size() - 1;
  };

  for (const auto& vantage : world.vantages()) {
    if (vantage->isLab()) {
      labVantage_ = vantage->name;
      continue;
    }
    VantagePlan plan;
    plan.name = vantage->name;
    std::set<std::size_t> seen;
    const auto add = [&](const measure::TestList& list) {
      for (const auto& entry : list.entries) {
        const std::size_t index = intern(entry.url);
        if (seen.insert(index).second) plan.urlIndices.push_back(index);
      }
    };
    add(paper_->globalList());
    add(paper_->localList(vantage->countryAlpha2));
    vantages_.push_back(std::move(plan));
  }
}

void MonitorSession::refreshMaxLag() {
  std::int64_t lag = 0;
  for (const auto& box : paper_->world().middleboxes())
    if (const auto* deployment =
            dynamic_cast<const filters::Deployment*>(box.get()))
      if (deployment->policy().receivesUpdates)
        lag = std::max(lag, deployment->policy().updateLagHours);
  maxLagHours_ = lag;
}

bool MonitorSession::applyScriptedEvent(int tick) {
  if (!options_.scriptedEvents) return false;
  auto& world = paper_->world();
  if (tick == kHideEventTick) {
    // The Syrian operator firewalls its Blue Coat consoles between scans
    // (Table 5 evasion #1 in motion).
    for (const auto& truth : paper_->groundTruth()) {
      if (truth.product != filters::ProductKind::kBlueCoat ||
          truth.countryAlpha2 != "SY")
        continue;
      for (const std::uint16_t port : {std::uint16_t{8082}, std::uint16_t{80}})
        if (world.endpointAt(truth.serviceIp, port) != nullptr)
          world.unbind(truth.serviceIp, port);
      break;
    }
    return true;
  }
  if (tick == kNewDeploymentEventTick) {
    // A brand-new SmartFilter turns up in a Pakistani university network.
    world.createAs(45595, "PKU-NET", "Pakistani university network", "PK",
                   {net::IpPrefix::parse("111.68.0.0/16").value()});
    filters::FilterPolicy policy;
    policy.blockedCategories = {1};
    auto& deployment = world.makeMiddlebox<filters::SmartFilterDeployment>(
        "PKU SmartFilter", paper_->vendor(filters::ProductKind::kSmartFilter),
        policy);
    deployment.installExternalSurfaces(world, 45595);
    return true;
  }
  if (tick == kStripBrandingEventTick) {
    // YemenNet strips vendor branding from its block pages (evasion #2).
    paper_->yemenNetsweeper().policy().stripBranding = true;
    return true;
  }
  return false;
}

void MonitorSession::applyDbChurn(int tick) {
  if (options_.churn.dbMutationsPerTick <= 0) return;
  auto& world = paper_->world();
  const auto& entries = paper_->globalList().entries;
  if (entries.empty()) return;
  const auto now = world.now();

  for (int i = 0; i < options_.churn.dbMutationsPerTick; ++i) {
    std::uint64_t key =
        options_.seed ^
        (kDbSalt + static_cast<std::uint64_t>(tick) * 0x9E3779B97F4A7C15ULL +
         static_cast<std::uint64_t>(i) * 0xBF58476D1CE4E5B9ULL);
    const auto vendorDraw = util::splitmix64Next(key);
    const auto urlDraw = util::splitmix64Next(key);
    const auto opDraw = util::splitmix64Next(key);
    const auto categoryDraw = util::splitmix64Next(key);

    const auto& products = filters::allProducts();
    const auto kind = products[vendorDraw % products.size()];
    const auto url = net::Url::parse(entries[urlDraw % entries.size()].url);
    if (!url) continue;

    // Draw the category from what deployments of this product actually
    // block, so mutations can flip verdicts rather than land inert.
    std::vector<filters::CategoryId> pool;
    for (const auto& box : world.middleboxes())
      if (const auto* deployment =
              dynamic_cast<const filters::Deployment*>(box.get()))
        if (deployment->kind() == kind)
          for (const auto category : deployment->policy().blockedCategories)
            pool.push_back(category);
    std::sort(pool.begin(), pool.end());
    pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
    if (pool.empty()) pool.push_back(1);
    const auto category = pool[categoryDraw % pool.size()];

    auto& db = paper_->vendor(kind).masterDb();
    const std::string host = util::toLower(url->host());
    const unsigned op = static_cast<unsigned>(opDraw % 100);
    if (op < 70) {
      db.addHost(host, category, now);
      mutations_.push_back({"", host, now.hours(), maxLagHours_});
    } else if (op < 90) {
      db.addUrl(*url, category, now);
      mutations_.push_back({url->toString(), "", now.hours(), maxLagHours_});
    } else {
      // Removals are visible to every deployment immediately (entries are
      // deleted, not tombstoned), so their dirty window is just this tick.
      db.removeHost(host);
      mutations_.push_back({"", host, now.hours(), 0});
    }
  }
}

bool MonitorSession::urlDirty(const PlanUrl& url, std::int64_t prevNowHours,
                              std::int64_t nowHours) const {
  for (const auto& mutation : mutations_) {
    if (mutation.addedAtHours > nowHours) continue;
    if (mutation.addedAtHours + mutation.lagHours <= prevNowHours) continue;
    if (!mutation.host.empty()) {
      if (url.host == mutation.host || url.regDomain == mutation.host)
        return true;
    } else if (!mutation.urlText.empty() && url.url == mutation.urlText) {
      return true;
    }
  }
  return false;
}

TickReport MonitorSession::runTick() {
  TickReport report;
  const int t = tick_ + 1;
  report.tick = t;
  auto& world = paper_->world();

  // --- evolve the world ----------------------------------------------------
  bool eventTick = false;
  bool epochTrip = false;
  if (t > 0) {
    world.clock().advanceHours(options_.tickHours);
    eventTick = applyScriptedEvent(t);
    // Tripwire: someone mutated filtering state behind the monitor's back
    // (an epoch move we neither scripted nor churned). Retest everything.
    epochTrip = !eventTick && world.middleboxStateEpoch() != expectedEpoch_;
    if (eventTick || epochTrip) ++eagerGen_;
    refreshMaxLag();
    applyDbChurn(t);
  }
  expectedEpoch_ = world.middleboxStateEpoch();
  if (churn_) churn_->setTick(static_cast<std::uint64_t>(t));
  report.atHours = world.now().hours();

  // The AS/prefix layout only moves on scripted events (or out-of-band
  // mutation caught by the tripwire); DB and content churn never touch it.
  // geo_ is a stable-address member, so the incremental crawler's reference
  // stays valid across rebuilds.
  if (!geoBuilt_ || eventTick || epochTrip) {
    geo_ = world.buildGeoDatabase(options_.world.geoErrorRate);
    whois_ = world.buildAsnDatabase();
    geoBuilt_ = true;
  }

  // --- re-scan -------------------------------------------------------------
  const auto scanStart = std::chrono::steady_clock::now();
  scan::StreamCrawlOptions crawlOptions;
  crawlOptions.threadLimit = options_.threads;
  crawlOptions.hostsPerShard = options_.hostsPerShard;
  if (options_.mode == MonitorMode::kFull) {
    index_ = scan::crawlStream(world, geo_, crawlOptions);
  } else {
    if (!crawler_) {
      crawler_ =
          std::make_unique<scan::IncrementalCrawler>(world, geo_, crawlOptions);
    }
    const auto tickU = static_cast<std::uint64_t>(t);
    crawler_->refresh([&](std::uint64_t id) {
      return churn_ != nullptr && churn_->dirtyAt(id, tickU);
    });
    index_ = crawler_->assemble();
    report.cellsRebuilt = crawler_->cellsRebuilt();
    report.cellCount = crawler_->cellCount();
  }
  report.scanMs = millisSince(scanStart);

  // --- re-identify ---------------------------------------------------------
  const auto identifyStart = std::chrono::steady_clock::now();
  core::IdentifierConfig identifierConfig;
  identifierConfig.threads = options_.threads;
  core::Identifier identifier(world, index_,
                              fingerprint::Engine::withBuiltinSignatures(),
                              geo_, whois_, identifierConfig);
  std::map<filters::ProductKind, std::vector<core::Installation>> fresh;
  if (options_.mode == MonitorMode::kFull) {
    fresh = identifier.identifyAll();
  } else {
    const auto hitsBefore = validationCache_.hits();
    const auto missesBefore = validationCache_.misses();
    fresh = identifier.identifyAllCached(
        validationCache_,
        [&](net::Ipv4Addr ip, std::uint16_t port) -> std::uint64_t {
          if (churn_)
            if (const auto id = churn_->hostAt(ip, port))
              return churn_->lastContentChange(*id);
          // Bound (eager) surfaces answer live deployment state the churn
          // feed cannot see. In a normalized monitor world that state moves
          // only on scripted events or an epoch tripwire, so eagerGen_ —
          // bumped exactly then — is a sound validation epoch for them.
          return eagerGen_ | (1ULL << 63);
        });
    report.validationHits = validationCache_.hits() - hitsBefore;
    report.validationMisses = validationCache_.misses() - missesBefore;
  }
  report.identifyMs = millisSince(identifyStart);

  // --- differential view ---------------------------------------------------
  const auto diffs = core::diffAll(installs_, fresh);
  for (const auto& [product, diff] : diffs) {
    report.newlyConfirmed += static_cast<int>(diff.appeared.size());
    report.decommissioned += static_cast<int>(diff.vanished.size());
    report.relocated += static_cast<int>(diff.relocated.size());
    const auto note = [&](char sign, const core::Installation& installation) {
      if (report.notes.size() >= 16) return;
      std::string line;
      line += sign;
      line += ' ';
      line += filters::toString(product);
      line += ' ';
      line += installation.ip.toString();
      line += " (";
      line += installation.countryAlpha2;
      line += ')';
      report.notes.push_back(std::move(line));
    };
    for (const auto& installation : diff.appeared) note('+', installation);
    for (const auto& installation : diff.vanished) note('-', installation);
    for (const auto& [before, after] : diff.relocated) {
      if (report.notes.size() >= 16) break;
      report.notes.push_back("~ " + std::string(filters::toString(product)) +
                             ' ' + after->ip.toString() + " (" +
                             before->countryAlpha2 + " -> " +
                             after->countryAlpha2 + ')');
    }
  }
  installs_ = std::move(fresh);

  // --- re-test -------------------------------------------------------------
  const auto testStart = std::chrono::steady_clock::now();
  // The full reference re-tests everything every tick; incremental reuse
  // must be indistinguishable from that in the digest.
  const bool allDirty = t == 0 || eventTick || epochTrip ||
                        options_.mode == MonitorMode::kFull;
  const std::int64_t nowHours = world.now().hours();
  const std::int64_t prevNowHours = nowHours - options_.tickHours;
  std::vector<VerdictRow> rows;
  const auto* lab = world.findVantage(labVantage_);

  for (std::size_t v = 0; v < vantages_.size(); ++v) {
    const auto& plan = vantages_[v];
    const auto* field = world.findVantage(plan.name);
    measure::Client client(world, *field, *lab);
    if (options_.healthEnabled) client.setHealthRegistry(&health_);

    const bool vantageAllDirty =
        allDirty || !client.cacheableChains() ||
        (options_.healthEnabled &&
         health_.of(plan.name).state() != measure::BreakerState::kClosed);

    std::vector<std::size_t> dirtyIndices;
    std::vector<std::string> dirtyUrls;
    dirtyIndices.reserve(plan.urlIndices.size());
    for (const std::size_t index : plan.urlIndices) {
      const bool dirty = vantageAllDirty || urlDirty(urls_[index], prevNowHours, nowHours) ||
                         !verdictCache_.contains(rowKey(v, index));
      if (!dirty) continue;
      dirtyIndices.push_back(index);
      dirtyUrls.push_back(urls_[index].url);
    }
    report.urlsTested += dirtyUrls.size();
    report.urlsReused += plan.urlIndices.size() - dirtyUrls.size();

    const auto results = client.testListBatched(dirtyUrls, options_.threads);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& result = results[i];
      VerdictRow row;
      row.vantage = plan.name;
      row.url = result.url;
      row.verdict = result.verdict;
      row.provenance = result.provenance;
      if (result.blockPage) {
        row.blockProduct = filters::toString(result.blockPage->product);
        row.patternName = result.blockPage->patternName;
      }
      row.fieldOutcome = static_cast<int>(result.field.outcome);
      row.fieldStatus =
          result.field.response ? result.field.response->statusCode : 0;

      auto& slot = verdictCache_[rowKey(v, dirtyIndices[i])];
      if (t > 0 && !slot.url.empty() && slot.verdict != row.verdict)
        ++report.verdictFlips;
      slot = std::move(row);
    }
    for (const std::size_t index : plan.urlIndices)
      rows.push_back(verdictCache_.at(rowKey(v, index)));
  }
  rows_ = std::move(rows);
  report.testMs = millisSince(testStart);

  // --- digest --------------------------------------------------------------
  std::ostringstream canon;
  for (const auto& [product, installations] : installs_) {
    for (const auto& installation : installations) {
      char certainty[32];
      std::snprintf(certainty, sizeof certainty, "%.6f",
                    installation.certainty);
      canon << filters::toString(product) << '|'
            << installation.ip.toString() << '|' << installation.port << '|'
            << installation.countryAlpha2 << '|' << certainty << '|';
      for (std::size_t i = 0; i < installation.evidence.size(); ++i) {
        if (i > 0) canon << ',';
        canon << installation.evidence[i];
      }
      canon << '\n';
    }
  }
  for (const auto& row : rows_)
    canon << row.vantage << '|' << row.url << '|'
          << static_cast<int>(row.verdict) << '|'
          << static_cast<int>(row.provenance) << '|' << row.blockProduct
          << '|' << row.patternName << '|' << row.fieldOutcome << '|'
          << row.fieldStatus << '\n';
  const std::string text = canon.str();
  report.digest = util::fnv1a64(text);
  chain_ = util::fnv1a64(text, chain_);

  tick_ = t;
  return report;
}

// ------------------------------------------------------- checkpoint --------

void MonitorSession::writeCheckpoint(const std::string& path) const {
  auto journal = CampaignJournal::start(path, options_.headerJson());
  Json state = CampaignJournal::event("monitor-state", paper_->world().now());
  state["tick"] = Json::number(std::int64_t{tick_});
  state["chain"] = Json::string(hex16(chain_));

  Json installations = Json::array();
  for (const auto& [product, list] : installs_) {
    for (const auto& installation : list) {
      Json entry = Json::object();
      entry["product"] = Json::string(filters::toString(product));
      entry["ip"] = Json::string(installation.ip.toString());
      entry["port"] = Json::number(std::int64_t{installation.port});
      entry["country"] = Json::string(installation.countryAlpha2);
      // Bit pattern, not decimal text: the restored certainty must compare
      // exactly equal in the next tick's digest.
      entry["certainty_bits"] =
          u64Json(std::bit_cast<std::uint64_t>(installation.certainty));
      Json evidence = Json::array();
      for (const auto& line : installation.evidence)
        evidence.push(Json::string(line));
      entry["evidence"] = std::move(evidence);
      installations.push(std::move(entry));
    }
  }
  state["installations"] = std::move(installations);

  Json verdicts = Json::array();
  for (const auto& row : rows_) {
    Json entry = Json::object();
    entry["vantage"] = Json::string(row.vantage);
    entry["url"] = Json::string(row.url);
    entry["verdict"] = Json::number(std::int64_t{static_cast<int>(row.verdict)});
    entry["provenance"] =
        Json::number(std::int64_t{static_cast<int>(row.provenance)});
    entry["block_product"] = Json::string(row.blockProduct);
    entry["pattern"] = Json::string(row.patternName);
    entry["field_outcome"] = Json::number(std::int64_t{row.fieldOutcome});
    entry["field_status"] = Json::number(std::int64_t{row.fieldStatus});
    verdicts.push(std::move(entry));
  }
  state["verdicts"] = std::move(verdicts);

  Json healthEntries = Json::array();
  if (options_.healthEnabled) {
    for (const auto& [name, vantage] : health_.entries()) {
      Json entry = Json::object();
      entry["vantage"] = Json::string(name);
      entry["state"] =
          Json::number(std::int64_t{static_cast<int>(vantage.state())});
      entry["failures"] =
          Json::number(std::int64_t{vantage.consecutiveFailures()});
      entry["opened_at"] = Json::number(vantage.openedAt().hours());
      entry["allowed"] = u64Json(vantage.requestsAllowed());
      entry["quarantined"] = u64Json(vantage.requestsQuarantined());
      entry["times_opened"] = u64Json(vantage.timesOpened());
      healthEntries.push(std::move(entry));
    }
  }
  state["health"] = std::move(healthEntries);

  journal.sync(state);
}

util::Expected<std::unique_ptr<MonitorSession>> MonitorSession::resume(
    const std::string& checkpointPath, MonitorMode mode, std::size_t threads) {
  using Result = util::Expected<std::unique_ptr<MonitorSession>>;
  auto journal = CampaignJournal::open(checkpointPath);
  if (!journal) return Result::failure("monitor resume: " + journal.error());
  return resumeFromJournal(std::move(journal.value()), mode, threads);
}

util::Expected<std::unique_ptr<MonitorSession>>
MonitorSession::resumeFromJournal(CampaignJournal journal, MonitorMode mode,
                                  std::size_t threads) {
  using Result = util::Expected<std::unique_ptr<MonitorSession>>;
  auto optionsResult = MonitorOptions::fromHeaderJson(journal.header());
  if (!optionsResult)
    return Result::failure("monitor resume: " + optionsResult.error());
  MonitorOptions options = std::move(optionsResult.value());
  options.mode = mode;
  options.threads = threads;

  if (journal.recordCount() == 0)
    return Result::failure(
        "monitor resume: checkpoint has no intact state record");
  const Json& state = journal.records().back();
  const auto* type = state.find("type");
  if (type == nullptr || !type->asString() ||
      *type->asString() != "monitor-state")
    return Result::failure("monitor resume: last record is not monitor-state");
  const auto tickValue = i64FromJson(state.find("tick"));
  if (!tickValue || *tickValue < 0)
    return Result::failure("monitor resume: state record has no valid tick");
  const int tick = static_cast<int>(*tickValue);
  const auto chain = hex16FromJson(state.find("chain"));
  if (!chain)
    return Result::failure("monitor resume: state record has no digest chain");

  auto session = create(options);

  // Re-evolve the world to the checkpoint tick: clock, scripted events, and
  // DB churn only — no scanning or testing. This is O(ticks) bookkeeping,
  // independent of world size and pipeline cost.
  auto& world = session->paper_->world();
  for (int t = 1; t <= tick; ++t) {
    world.clock().advanceHours(options.tickHours);
    session->applyScriptedEvent(t);
    session->refreshMaxLag();
    session->applyDbChurn(t);
  }
  session->expectedEpoch_ = world.middleboxStateEpoch();
  if (session->churn_)
    session->churn_->setTick(static_cast<std::uint64_t>(tick));
  const auto atHours = i64FromJson(state.find("t"));
  if (!atHours || *atHours != world.now().hours())
    return Result::failure(
        "monitor resume: checkpoint clock does not match the replayed world");

  // Restore the snapshotted caches.
  const auto* installations = state.find("installations");
  if (installations == nullptr || !installations->isArray())
    return Result::failure("monitor resume: state record has no installations");
  for (const auto& entry : *installations->asArray()) {
    const auto* productName = entry.find("product");
    const auto* ipText = entry.find("ip");
    const auto port = i64FromJson(entry.find("port"));
    const auto* country = entry.find("country");
    const auto certaintyBits = u64FromJson(entry.find("certainty_bits"));
    if (productName == nullptr || !productName->asString() ||
        ipText == nullptr || !ipText->asString() || !port ||
        country == nullptr || !country->asString() || !certaintyBits)
      return Result::failure("monitor resume: malformed installation record");
    const auto product = productFromString(*productName->asString());
    const auto ip = net::Ipv4Addr::parse(*ipText->asString());
    if (!product || !ip)
      return Result::failure("monitor resume: malformed installation record");
    core::Installation installation;
    installation.product = *product;
    installation.ip = *ip;
    installation.port = static_cast<std::uint16_t>(*port);
    installation.countryAlpha2 = *country->asString();
    installation.certainty = std::bit_cast<double>(*certaintyBits);
    if (const auto* evidence = entry.find("evidence");
        evidence && evidence->isArray())
      for (const auto& line : *evidence->asArray())
        if (line.asString())
          installation.evidence.push_back(*line.asString());
    session->installs_[*product].push_back(std::move(installation));
  }

  const auto* verdicts = state.find("verdicts");
  if (verdicts == nullptr || !verdicts->isArray())
    return Result::failure("monitor resume: state record has no verdicts");
  std::unordered_map<std::string, std::size_t> vantageIndex;
  for (std::size_t v = 0; v < session->vantages_.size(); ++v)
    vantageIndex.emplace(session->vantages_[v].name, v);
  for (const auto& entry : *verdicts->asArray()) {
    const auto* vantage = entry.find("vantage");
    const auto* url = entry.find("url");
    const auto verdict = i64FromJson(entry.find("verdict"));
    const auto provenance = i64FromJson(entry.find("provenance"));
    const auto* blockProduct = entry.find("block_product");
    const auto* pattern = entry.find("pattern");
    const auto outcome = i64FromJson(entry.find("field_outcome"));
    const auto status = i64FromJson(entry.find("field_status"));
    if (vantage == nullptr || !vantage->asString() || url == nullptr ||
        !url->asString() || !verdict || !provenance ||
        blockProduct == nullptr || !blockProduct->asString() ||
        pattern == nullptr || !pattern->asString() || !outcome || !status)
      return Result::failure("monitor resume: malformed verdict record");
    const auto vIt = vantageIndex.find(*vantage->asString());
    const auto uIt = session->urlIndex_.find(*url->asString());
    if (vIt == vantageIndex.end() || uIt == session->urlIndex_.end())
      return Result::failure(
          "monitor resume: checkpoint does not match the world's test plan");
    VerdictRow row;
    row.vantage = *vantage->asString();
    row.url = *url->asString();
    row.verdict = static_cast<measure::Verdict>(*verdict);
    row.provenance = static_cast<measure::Provenance>(*provenance);
    row.blockProduct = *blockProduct->asString();
    row.patternName = *pattern->asString();
    row.fieldOutcome = static_cast<int>(*outcome);
    row.fieldStatus = static_cast<int>(*status);
    session->rows_.push_back(row);
    session->verdictCache_[rowKey(vIt->second, uIt->second)] = std::move(row);
  }

  if (const auto* healthEntries = state.find("health");
      healthEntries && healthEntries->isArray()) {
    for (const auto& entry : *healthEntries->asArray()) {
      const auto* name = entry.find("vantage");
      const auto breakerState = i64FromJson(entry.find("state"));
      const auto failures = i64FromJson(entry.find("failures"));
      const auto openedAt = i64FromJson(entry.find("opened_at"));
      const auto allowed = u64FromJson(entry.find("allowed"));
      const auto quarantined = u64FromJson(entry.find("quarantined"));
      const auto timesOpened = u64FromJson(entry.find("times_opened"));
      if (name == nullptr || !name->asString() || !breakerState ||
          *breakerState < 0 || *breakerState > 2 || !failures || !openedAt ||
          !allowed || !quarantined || !timesOpened)
        return Result::failure("monitor resume: malformed health record");
      session->health_.of(*name->asString())
          .restore(static_cast<measure::BreakerState>(*breakerState),
                   static_cast<int>(*failures), util::SimTime(*openedAt),
                   *allowed, *quarantined, *timesOpened);
    }
  }

  session->chain_ = *chain;
  session->tick_ = tick;
  return Result(std::move(session));
}

MonitorReport runMonitor(const MonitorOptions& options,
                         const std::string& checkpointPath) {
  MonitorReport report;
  auto session = MonitorSession::create(options);
  for (int t = 0; t <= options.ticks; ++t) {
    report.ticks.push_back(session->runTick());
    if (!checkpointPath.empty()) session->writeCheckpoint(checkpointPath);
  }
  report.chainDigest = session->chainDigest();
  return report;
}

}  // namespace urlf::scenarios
