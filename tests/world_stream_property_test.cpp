// Equivalence properties of streaming world generation (DESIGN.md §4.5):
//  - streamed hosts are a pure function of (seed, id), with hostAt as the
//    exact inverse of host();
//  - shards() partitions the id space contiguously for any target size;
//  - crawlStream over a stream-attached world is byte-identical to the
//    one-shard crawl of the eagerly materialized reference world — records,
//    searches (also against the linear oracle), and identifyAll results all
//    agree, for any shard granularity.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/identifier.h"
#include "core/serialize.h"
#include "net/cctld.h"
#include "scan/banner_index.h"
#include "scan/reference_search.h"
#include "scan/serialize.h"
#include "scenarios/random_world.h"
#include "simnet/world_stream.h"

namespace urlf::simnet {
namespace {

ProceduralHostConfig smallStream() {
  ProceduralHostConfig config;
  config.hosts = 1200;
  config.countries = 5;
  config.baitFraction = 0.05;
  return config;
}

scenarios::RandomWorldConfig smallWorld() {
  scenarios::RandomWorldConfig config;
  config.countries = 6;
  config.decoys = 8;
  config.contentSites = 6;
  return config;
}

TEST(WorldStreamProperty, HostIsPureAndHostAtIsItsInverse) {
  const ProceduralHostStream stream(4242, smallStream());
  ASSERT_EQ(stream.hostCount(), 1200u);

  for (std::uint64_t id = 0; id < stream.hostCount(); id += 37) {
    const auto a = stream.host(id);
    const auto b = stream.host(id);
    EXPECT_EQ(a.id, id);
    EXPECT_EQ(a.hostname, b.hostname);
    EXPECT_EQ(a.ip.value(), b.ip.value());
    EXPECT_EQ(a.countryAlpha2, b.countryAlpha2);
    EXPECT_EQ(a.serverHeader, b.serverHeader);
    EXPECT_EQ(a.page.title, b.page.title);
    EXPECT_EQ(a.page.body, b.page.body);

    const auto inverse = stream.hostAt(a.ip, a.port);
    ASSERT_TRUE(inverse.has_value()) << "id=" << id;
    EXPECT_EQ(*inverse, id);
    EXPECT_FALSE(stream.hostAt(a.ip, a.port + 1).has_value());
  }
  EXPECT_THROW((void)stream.host(stream.hostCount()), std::out_of_range);
}

TEST(WorldStreamProperty, ShardsPartitionTheIdSpaceAtAnyGranularity) {
  const ProceduralHostStream stream(7, smallStream());
  for (const std::uint64_t target : {1ull, 7ull, 97ull, 100000000ull}) {
    const auto shards = stream.shards(target);
    std::uint64_t next = 0;
    for (const auto& shard : shards) {
      EXPECT_EQ(shard.begin, next);
      EXPECT_LT(shard.begin, shard.end);
      EXPECT_LE(shard.end - shard.begin, target);
      EXPECT_FALSE(shard.label.empty());
      next = shard.end;
    }
    EXPECT_EQ(next, stream.hostCount()) << "target=" << target;
  }
}

/// Build the streamed world (stream attached, nothing bound) and the eager
/// reference twin (every streamed host bound in id order, after the same
/// random-world construction), then check observational equivalence.
struct TwinWorlds {
  scenarios::RandomWorld streamed;
  scenarios::RandomWorld eager;
  std::shared_ptr<ProceduralHostStream> stream;

  TwinWorlds(std::uint64_t seed, const ProceduralHostConfig& config)
      : streamed(seed, smallWorld()),
        eager(seed, smallWorld()),
        stream(std::make_shared<ProceduralHostStream>(seed * 31 + 1, config)) {
    stream->announceInto(streamed.world());
    streamed.world().attachHostStream(stream);

    stream->announceInto(eager.world());
    stream->materializeInto(eager.world());
  }
};

TEST(WorldStreamProperty, StreamedCrawlIsByteIdenticalToEagerReference) {
  for (const std::uint64_t hostsPerShard : {97ull, 1000000ull}) {
    TwinWorlds twins(11, smallStream());
    const auto geoStreamed = twins.streamed.world().buildGeoDatabase();
    const auto geoEager = twins.eager.world().buildGeoDatabase();

    scan::StreamCrawlOptions options;
    options.hostsPerShard = hostsPerShard;
    const auto sharded =
        scan::crawlStream(twins.streamed.world(), geoStreamed, options);

    const auto reference = scan::crawlStream(twins.eager.world(), geoEager);

    ASSERT_EQ(sharded.docCount(), reference.docCount());
    ASSERT_GT(sharded.docCount(), 0u);

    // Every re-fetched streamed record equals the eagerly crawled one.
    const auto eagerRecords = reference.fetchAllRecords();
    EXPECT_EQ(scan::exportRecords(sharded.fetchAllRecords(), 0),
              scan::exportRecords(eagerRecords, 0));

    // The §3.1 keyword×country fan-out returns the same docs as the eager
    // crawl and as the linear oracle over its records.
    std::vector<scan::Query> queries;
    for (const auto product : filters::allProducts()) {
      for (const auto& keyword : core::Identifier::shodanKeywords(product)) {
        queries.push_back({keyword, std::nullopt});
        for (const auto& country : net::allCountries())
          queries.push_back({keyword, std::string(country.alpha2)});
      }
    }
    const auto shardedDocs = sharded.searchAll(queries);
    EXPECT_EQ(shardedDocs, reference.searchAll(queries));
    EXPECT_EQ(shardedDocs, scan::referenceSearch(eagerRecords, queries));
    EXPECT_GT(shardedDocs.size(), 0u)
        << "bait fraction should have planted keyword candidates";

    EXPECT_EQ(sharded.vocabularySize(), reference.vocabularySize());
  }
}

TEST(WorldStreamProperty, IdentifyAllAgreesAcrossStreamedAndEagerWorlds) {
  TwinWorlds twins(23, smallStream());
  const auto geoStreamed = twins.streamed.world().buildGeoDatabase();
  const auto geoEager = twins.eager.world().buildGeoDatabase();

  const auto sharded = scan::crawlStream(twins.streamed.world(), geoStreamed);
  const auto reference = scan::crawlStream(twins.eager.world(), geoEager);

  const core::Identifier streamedId(
      twins.streamed.world(), sharded,
      fingerprint::Engine::withBuiltinSignatures(), geoStreamed,
      twins.streamed.world().buildAsnDatabase());
  const core::Identifier eagerId(
      twins.eager.world(), reference,
      fingerprint::Engine::withBuiltinSignatures(), geoEager,
      twins.eager.world().buildAsnDatabase());

  const auto fromStream = streamedId.identifyAll();
  const auto fromEager = eagerId.identifyAll();
  EXPECT_EQ(core::toJson(fromStream).dump(2), core::toJson(fromEager).dump(2));

  // Passive mode exercises the record fetcher instead of live probes.
  const auto passiveStream = streamedId.identifyAllPassive();
  const auto passiveEager = eagerId.identifyAllPassive();
  EXPECT_EQ(core::toJson(passiveStream).dump(2),
            core::toJson(passiveEager).dump(2));
}

TEST(WorldStreamProperty, SerialAndParallelStreamCrawlsAgree) {
  TwinWorlds a(5, smallStream());
  TwinWorlds b(5, smallStream());
  const auto geoA = a.streamed.world().buildGeoDatabase();
  const auto geoB = b.streamed.world().buildGeoDatabase();

  scan::StreamCrawlOptions serialOptions;
  serialOptions.threadLimit = 1;
  const auto serial = scan::crawlStream(a.streamed.world(), geoA, serialOptions);
  const auto parallel = scan::crawlStream(b.streamed.world(), geoB);

  EXPECT_EQ(scan::exportShardedIndex(serial),
            scan::exportShardedIndex(parallel));
}

}  // namespace
}  // namespace urlf::simnet
