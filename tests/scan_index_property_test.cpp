// Equivalence properties of the scan→identify pipeline:
//  - ShardedBannerIndex::search/searchAll return exactly the linear oracle's
//    (scan/reference_search.h) result sets over randomized worlds and
//    randomized queries, including country facets, mixed-case keywords,
//    keywords spanning token boundaries, and punctuation-only keywords —
//    for the one-shard crawl build and for multi-shard fromRecords builds;
//  - a parallel crawl and parallel identifyAll are byte-identical to their
//    serial counterparts for the same seed.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <vector>

#include "core/serialize.h"
#include "net/cctld.h"
#include "scan/reference_search.h"
#include "scan/serialize.h"
#include "scenarios/random_world.h"
#include "util/rng.h"
#include "util/strings.h"

namespace urlf::scan {
namespace {

using scenarios::RandomWorld;
using scenarios::RandomWorldConfig;

RandomWorldConfig mediumWorld() {
  RandomWorldConfig config;
  config.countries = 12;
  config.decoys = 24;
  config.contentSites = 12;
  return config;
}

/// Random keyword drawn from real banner text so it can straddle token
/// boundaries ("r\n<title>Net"), with random case flips.
std::string keywordFromBanner(util::Rng& rng,
                              const std::vector<BannerRecord>& records) {
  const auto text = records[rng.index(records.size())].searchableText();
  if (text.empty()) return "x";
  const std::size_t len = 1 + rng.index(18);
  const std::size_t start = rng.index(text.size());
  std::string keyword = text.substr(start, len);
  for (auto& c : keyword)
    if (rng.chance(0.5)) c = static_cast<char>(std::toupper(
        static_cast<unsigned char>(c)));
  return keyword;
}

std::vector<Query> randomQueries(util::Rng& rng,
                                 const std::vector<BannerRecord>& records,
                                 int count) {
  const std::vector<std::string> fixed = {
      "proxysg",       "cfru=",          "mcafee web gateway",
      "url blocked",   "netsweeper",     "webadmin",
      "webadmin/deny", "8080/webadmin/", "blockpage.cgi",
      "gateway websense",
      // pathological keywords: empty, punctuation-only, whitespace
      "", "=", "/", " ", "\r\n", "no-such-keyword-anywhere"};

  std::vector<Query> out;
  for (int i = 0; i < count; ++i) {
    Query query;
    if (rng.chance(0.4)) {
      query.keyword = fixed[rng.index(fixed.size())];
    } else {
      query.keyword = keywordFromBanner(rng, records);
    }
    const double facet = rng.uniform01();
    if (facet < 0.4) {
      // a country actually present in the index (random case)
      auto country = records[rng.index(records.size())].countryAlpha2;
      if (!country.empty() && rng.chance(0.5))
        country = util::toLower(country);
      query.countryAlpha2 = country;
    } else if (facet < 0.55) {
      query.countryAlpha2 = "ZZ";  // absent country
    }
    out.push_back(std::move(query));
  }
  return out;
}

/// The oracle's answer to one query: search semantics (no de-duplication).
std::vector<std::uint32_t> oracleSearch(
    const std::vector<BannerRecord>& records, const Query& query) {
  return referenceSearch(records, {query}, /*dedupe=*/false);
}

/// The §3.1 fan-out the Identifier issues: every product keyword alone and
/// crossed with every registry country.
std::vector<Query> fullFanOut() {
  std::vector<Query> queries;
  for (const auto product : filters::allProducts()) {
    for (const auto& keyword : core::Identifier::shodanKeywords(product)) {
      queries.push_back({keyword, std::nullopt});
      for (const auto& country : net::allCountries())
        queries.push_back({keyword, std::string(country.alpha2)});
    }
  }
  return queries;
}

TEST(ScanIndexProperty, SearchMatchesOracleOnRandomWorlds) {
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    RandomWorld world(seed, mediumWorld());
    const auto geo = world.world().buildGeoDatabase();
    const auto index = crawlStream(world.world(), geo);
    ASSERT_GT(index.docCount(), 0u);
    const auto records = index.fetchAllRecords();

    util::Rng rng(seed * 1000 + 7);
    for (const auto& query : randomQueries(rng, records, 200)) {
      ASSERT_EQ(index.search(query), oracleSearch(records, query))
          << "seed=" << seed << " keyword=\"" << query.keyword << "\" country="
          << query.countryAlpha2.value_or("(none)");
    }
  }
}

TEST(ScanIndexProperty, SearchAllMatchesOracleOnRandomQueries) {
  RandomWorld world(77, mediumWorld());
  const auto geo = world.world().buildGeoDatabase();
  const auto index = crawlStream(world.world(), geo);
  const auto records = index.fetchAllRecords();

  util::Rng rng(404);
  const auto queries = randomQueries(rng, records, 300);
  EXPECT_EQ(index.searchAll(queries), referenceSearch(records, queries));
}

TEST(ScanIndexProperty, SearchAllMatchesOracleOnFullKeywordCountryFanOut) {
  RandomWorld world(5150, mediumWorld());
  const auto geo = world.world().buildGeoDatabase();
  const auto index = crawlStream(world.world(), geo);

  const auto queries = fullFanOut();
  const auto hits = index.searchAll(queries);
  EXPECT_EQ(hits, referenceSearch(index.fetchAllRecords(), queries));
  EXPECT_GT(hits.size(), 0u);
}

TEST(ScanIndexProperty, ParallelCrawlIsByteIdenticalToSerialCrawl) {
  RandomWorld worldA(913, mediumWorld());
  RandomWorld worldB(913, mediumWorld());
  const auto geoA = worldA.world().buildGeoDatabase();
  const auto geoB = worldB.world().buildGeoDatabase();

  StreamCrawlOptions serialOptions;
  serialOptions.threadLimit = 1;
  const auto serial = crawlStream(worldA.world(), geoA, serialOptions);
  const auto parallel = crawlStream(worldB.world(), geoB);

  EXPECT_EQ(exportRecords(serial.fetchAllRecords(), 0),
            exportRecords(parallel.fetchAllRecords(), 0));
  EXPECT_EQ(exportShardedIndex(serial), exportShardedIndex(parallel));
}

core::Identifier makeIdentifier(RandomWorld& world,
                                const ShardedBannerIndex& index,
                                std::size_t threads) {
  core::IdentifierConfig config;
  config.threads = threads;
  return core::Identifier(world.world(), index,
                          fingerprint::Engine::withBuiltinSignatures(),
                          world.world().buildGeoDatabase(),
                          world.world().buildAsnDatabase(), config);
}

TEST(ScanIndexProperty, ParallelIdentifyAllIsByteIdenticalToSerial) {
  RandomWorld world(2024, mediumWorld());
  const auto geo = world.world().buildGeoDatabase();
  const auto index = crawlStream(world.world(), geo);

  const auto serial = makeIdentifier(world, index, 1).identifyAll();
  const auto parallel = makeIdentifier(world, index, 0).identifyAll();
  EXPECT_EQ(core::toJson(serial).dump(2), core::toJson(parallel).dump(2));
}

TEST(ScanIndexProperty, ParallelIdentifyAllPassiveIsByteIdenticalToSerial) {
  RandomWorld world(2025, mediumWorld());
  const auto geo = world.world().buildGeoDatabase();
  const auto index = crawlStream(world.world(), geo);

  const auto serial = makeIdentifier(world, index, 1).identifyAllPassive();
  const auto parallel = makeIdentifier(world, index, 0).identifyAllPassive();
  EXPECT_EQ(core::toJson(serial).dump(2), core::toJson(parallel).dump(2));
}

TEST(ScanIndexProperty, MultiShardSearchMatchesOneShardAndOracle) {
  for (const std::uint64_t seed : {101u, 202u}) {
    RandomWorld world(seed, mediumWorld());
    const auto geo = world.world().buildGeoDatabase();
    const auto oneShard = crawlStream(world.world(), geo);
    const auto records = oneShard.fetchAllRecords();

    // Small shard target so the corpus spans many shards.
    const auto sharded = ShardedBannerIndex::fromRecords(records, 16);
    ASSERT_EQ(sharded.docCount(), oneShard.docCount());
    ASSERT_GT(sharded.shardCount(), 1u);
    EXPECT_EQ(sharded.vocabularySize(), oneShard.vocabularySize());

    util::Rng rng(seed + 5);
    for (const auto& query : randomQueries(rng, records, 150)) {
      const auto viaSharded = sharded.search(query);
      ASSERT_EQ(viaSharded, oneShard.search(query))
          << "seed=" << seed << " keyword=\"" << query.keyword << "\"";
      ASSERT_EQ(viaSharded, oracleSearch(records, query))
          << "seed=" << seed << " keyword=\"" << query.keyword << "\"";
    }

    util::Rng rngAll(seed + 6);
    const auto queries = randomQueries(rngAll, records, 120);
    EXPECT_EQ(sharded.searchAll(queries), oneShard.searchAll(queries));
    EXPECT_EQ(sharded.searchAll(queries), referenceSearch(records, queries));
  }
}

TEST(ScanIndexProperty, DeltaIdListRoundTripsRandomAscendingSequences) {
  util::Rng rng(8080);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::uint32_t> ids;
    std::uint32_t next = rng.index(1000);
    const int count = static_cast<int>(rng.index(200));
    for (int i = 0; i < count; ++i) {
      ids.push_back(next);
      next += 1 + static_cast<std::uint32_t>(rng.index(100000));
    }

    DeltaIdList list;
    for (const auto id : ids) list.append(id);
    ASSERT_EQ(list.count(), ids.size());

    std::vector<std::uint32_t> decoded;
    list.decodeInto(decoded);
    EXPECT_EQ(decoded, ids);

    // Raw-parts round trip (the import path).
    const auto rebuilt = DeltaIdList::fromRaw(list.count(), list.bytes());
    std::vector<std::uint32_t> redecoded;
    rebuilt.decodeInto(redecoded);
    EXPECT_EQ(redecoded, ids);
  }
  // Non-ascending appends are rejected.
  DeltaIdList list;
  list.append(5);
  EXPECT_THROW(list.append(5), std::invalid_argument);
  EXPECT_THROW(list.append(4), std::invalid_argument);
}

TEST(ScanIndexProperty, ShardedIndexSurvivesExportImportRoundTrip) {
  RandomWorld world(606, mediumWorld());
  const auto geo = world.world().buildGeoDatabase();
  const auto sharded = ShardedBannerIndex::fromRecords(
      crawlStream(world.world(), geo).fetchAllRecords(), 16);

  const auto blob = exportShardedIndex(sharded);
  const auto imported = importShardedIndex(blob);
  ASSERT_TRUE(imported.has_value());
  EXPECT_EQ(imported->docCount(), sharded.docCount());
  EXPECT_EQ(imported->shardCount(), sharded.shardCount());
  EXPECT_EQ(imported->vocabularySize(), sharded.vocabularySize());
  EXPECT_FALSE(imported->hasRecordFetcher());
  EXPECT_EQ(exportShardedIndex(*imported), blob);

  // Token-only keywords resolve without a record fetcher; results agree
  // with the fetcher-backed original.
  for (const std::string keyword :
       {"proxysg", "netsweeper", "webadmin", "apache", "html"}) {
    for (const auto country :
         {std::optional<std::string>{}, std::optional<std::string>{"SA"}}) {
      const Query query{keyword, country};
      EXPECT_EQ(imported->search(query), sharded.search(query))
          << "keyword=" << keyword;
    }
  }

  // Corruption is detected: flip one byte in the middle.
  auto corrupted = blob;
  corrupted[corrupted.size() / 2] =
      static_cast<char>(corrupted[corrupted.size() / 2] ^ 0x20);
  EXPECT_FALSE(importShardedIndex(corrupted).has_value());
  // Truncation is detected.
  EXPECT_FALSE(
      importShardedIndex(std::string_view(blob).substr(0, blob.size() / 2))
          .has_value());
}

TEST(ScanIndexProperty, ShardedIndexHandlesEmptyAndSingleDocShards) {
  // Empty corpus: zero docs, queries return nothing, round trip holds.
  const auto empty = ShardedBannerIndex::fromRecords({});
  EXPECT_EQ(empty.docCount(), 0u);
  EXPECT_TRUE(empty.search({"proxysg", std::nullopt}).empty());
  EXPECT_TRUE(empty.searchAll({{"proxysg", std::nullopt}}).empty());
  const auto emptyImported = importShardedIndex(exportShardedIndex(empty));
  ASSERT_TRUE(emptyImported.has_value());
  EXPECT_EQ(emptyImported->docCount(), 0u);

  // One document per shard — the degenerate sharding — still matches the
  // linear oracle on every query.
  RandomWorld world(707, mediumWorld());
  const auto geo = world.world().buildGeoDatabase();
  const auto records = crawlStream(world.world(), geo).fetchAllRecords();
  const auto singletons = ShardedBannerIndex::fromRecords(records, 1);
  ASSERT_EQ(singletons.shardCount(), records.size());

  util::Rng rng(11);
  for (const auto& query : randomQueries(rng, records, 60)) {
    EXPECT_EQ(singletons.search(query), oracleSearch(records, query))
        << "keyword=\"" << query.keyword << "\"";
  }
}

TEST(ScanIndexProperty, MultiShardIdentifyAllMatchesOneShard) {
  RandomWorld world(909, mediumWorld());
  const auto geo = world.world().buildGeoDatabase();
  const auto oneShard = crawlStream(world.world(), geo);
  const auto sharded =
      ShardedBannerIndex::fromRecords(oneShard.fetchAllRecords(), 16);

  const core::Identifier viaOneShard(
      world.world(), oneShard, fingerprint::Engine::withBuiltinSignatures(),
      world.world().buildGeoDatabase(), world.world().buildAsnDatabase());
  const core::Identifier viaSharded(
      world.world(), sharded, fingerprint::Engine::withBuiltinSignatures(),
      world.world().buildGeoDatabase(), world.world().buildAsnDatabase());

  EXPECT_EQ(core::toJson(viaOneShard.identifyAll()).dump(2),
            core::toJson(viaSharded.identifyAll()).dump(2));
  EXPECT_EQ(core::toJson(viaOneShard.identifyAllPassive()).dump(2),
            core::toJson(viaSharded.identifyAllPassive()).dump(2));
}

}  // namespace
}  // namespace urlf::scan
