#include <gtest/gtest.h>

#include "filters/netsweeper.h"
#include "filters/vendor.h"
#include "scan/banner_index.h"
#include "simnet/origin_server.h"

namespace urlf::scan {
namespace {

net::IpPrefix prefix(const char* text) {
  return net::IpPrefix::parse(text).value();
}

class ScanFixture : public ::testing::Test {
 protected:
  ScanFixture() : world(55) {
    world.createAs(100, "AS-SA", "Saudi ISP", "SA", {prefix("10.0.0.0/16")});
    world.createAs(200, "AS-US", "US hosting", "US", {prefix("20.0.0.0/16")});
    geo = world.buildGeoDatabase();

    addServer(100, "saudi-site.example", "Saudi Portal",
              "<h1>portal content</h1>", true);
    addServer(200, "us-site.example", "US Blog",
              "<h1>my webadmin tutorial</h1>", true);
    addServer(200, "hidden.example", "Hidden Box", "<h1>secret webadmin</h1>",
              false);
  }

  void addServer(std::uint32_t asn, const std::string& host,
                 const std::string& title, const std::string& body,
                 bool visible) {
    auto& server = world.makeEndpoint<simnet::OriginServer>(host);
    simnet::Page page;
    page.title = title;
    page.body = body;
    server.setPage("/", page);
    const auto ip = world.allocateAddress(asn);
    world.bind(ip, 80, server, visible);
    world.registerHostname(host, ip);
  }

  simnet::World world;
  geo::GeoDatabase geo;
};

TEST_F(ScanFixture, CrawlIndexesOnlyVisibleSurfaces) {
  const auto index = scan::crawlStream(world, geo);
  EXPECT_EQ(index.docCount(), 2u);  // hidden.example is not crawled
}

TEST_F(ScanFixture, RecordsCarryGeoAndTitle) {
  const auto index = scan::crawlStream(world, geo);
  int saudi = 0;
  for (const auto& record : index.fetchAllRecords()) {
    EXPECT_EQ(record.statusCode, 200);
    EXPECT_FALSE(record.title.empty());
    if (record.countryAlpha2 == "SA") ++saudi;
  }
  EXPECT_EQ(saudi, 1);
}

TEST_F(ScanFixture, KeywordSearchIsCaseInsensitive) {
  const auto index = scan::crawlStream(world, geo);
  EXPECT_EQ(index.search({"WEBADMIN", std::nullopt}).size(), 1u);
  EXPECT_EQ(index.search({"webadmin", std::nullopt}).size(), 1u);
  EXPECT_EQ(index.search({"nonexistent-keyword", std::nullopt}).size(), 0u);
}

TEST_F(ScanFixture, CountryFacetRestricts) {
  const auto index = scan::crawlStream(world, geo);
  EXPECT_EQ(index.search({"portal", "SA"}).size(), 1u);
  EXPECT_EQ(index.search({"portal", "US"}).size(), 0u);
  EXPECT_EQ(index.search({"webadmin", "US"}).size(), 1u);
}

TEST_F(ScanFixture, SearchMatchesHeadersToo) {
  const auto index = scan::crawlStream(world, geo);
  // Origin servers stamp a Server header.
  EXPECT_GE(index.search({"Apache", std::nullopt}).size(), 2u);
}

TEST_F(ScanFixture, SearchAllDeduplicates) {
  const auto index = scan::crawlStream(world, geo);
  const auto hits = index.searchAll({{"webadmin", std::nullopt},
                                     {"WEBADMIN", std::nullopt},
                                     {"webadmin", "US"}});
  EXPECT_EQ(hits.size(), 1u);
}

TEST_F(ScanFixture, BodySnippetIsCapped) {
  addServer(200, "big.example", "Big",
            std::string(10000, 'x'), true);
  StreamCrawlOptions options;
  options.bodySnippetLimit = 512;
  const auto index = scan::crawlStream(world, geo, options);
  for (const auto& record : index.fetchAllRecords())
    EXPECT_LE(record.body.size(), 512u);
}

TEST_F(ScanFixture, RecrawlSeesTheSameSurfaces) {
  const auto before = scan::crawlStream(world, geo);
  const auto after = scan::crawlStream(world, geo);
  EXPECT_EQ(after.docCount(), before.docCount());
  EXPECT_EQ(after.fetchAllRecords().size(), before.docCount());
}

TEST_F(ScanFixture, EagerFetchReturnsTheCrawlTimeBanner) {
  auto& server = world.makeEndpoint<simnet::OriginServer>("moving.example");
  simnet::Page page;
  page.title = "Before";
  page.body = "<h1>original netsweeper banner</h1>";
  server.setPage("/", page);
  world.bind(world.allocateAddress(200), 80, server, true);

  const auto index = scan::crawlStream(world, geo);
  const auto doc = index.search({"original netsweeper", std::nullopt});
  ASSERT_EQ(doc.size(), 1u);
  const auto crawled = index.fetchRecord(doc[0]);
  EXPECT_EQ(crawled.title, "Before");

  // The live page changes after the crawl: the index keeps answering with
  // the banner it indexed, exactly as a stored scan dump would.
  page.title = "After";
  page.body = "<h1>rewritten page</h1>";
  server.setPage("/", page);
  const auto fetched = index.fetchRecord(doc[0]);
  EXPECT_EQ(fetched.title, "Before");
  EXPECT_EQ(fetched.searchableText(), crawled.searchableText());
  EXPECT_EQ(index.search({"original netsweeper", std::nullopt}), doc);

  const auto recrawled = scan::crawlStream(world, geo);
  EXPECT_EQ(recrawled.fetchRecord(doc[0]).title, "After");
  EXPECT_TRUE(recrawled.search({"original netsweeper", std::nullopt}).empty());
}

TEST_F(ScanFixture, SearchableTextContainsStatusLine) {
  const auto index = scan::crawlStream(world, geo);
  ASSERT_GT(index.docCount(), 0u);
  EXPECT_NE(index.fetchRecord(0).searchableText().find("HTTP/1.1 200"),
            std::string::npos);
}

TEST_F(ScanFixture, CensusSweepFindsSameSurfacesAsCrawl) {
  const auto index = scan::crawlStream(world, geo);

  CensusScanner census({80});
  const auto swept = census.sweep(world, geo);
  EXPECT_EQ(swept.size(), index.docCount());
}

TEST_F(ScanFixture, CensusSweepHonoursPortList) {
  CensusScanner census({8080});
  EXPECT_TRUE(census.sweep(world, geo).empty());
}

TEST_F(ScanFixture, CensusSweepCapsAddressesPerPrefix) {
  // With a cap of 1, only network addresses are probed (nothing is bound at
  // .0), so the sweep finds nothing.
  CensusScanner census({80});
  EXPECT_TRUE(census.sweep(world, geo, /*maxAddressesPerPrefix=*/1).empty());
}

TEST_F(ScanFixture, CensusFindsNetsweeperConsoleOnPort8080) {
  filters::Vendor vendor(filters::ProductKind::kNetsweeper, world);
  filters::FilterPolicy policy;
  auto& deployment = world.makeMiddlebox<filters::NetsweeperDeployment>(
      "NS", vendor, policy);
  deployment.installExternalSurfaces(world, 100);

  CensusScanner census({8080});
  const auto swept = census.sweep(world, geo);
  ASSERT_EQ(swept.size(), 1u);
  EXPECT_EQ(swept[0].port, 8080);
  EXPECT_EQ(swept[0].countryAlpha2, "SA");
}

TEST_F(ScanFixture, GeoErrorRatePropagatesIntoBanners) {
  auto noisyGeo = world.buildGeoDatabase(/*errorRate=*/1.0);
  const auto index = scan::crawlStream(world, noisyGeo);
  // With error rate 1 and two countries, every banner is mislocated.
  for (const auto& record : index.fetchAllRecords()) {
    const auto truth = noisyGeo.lookupTruth(record.ip);
    ASSERT_TRUE(truth);
    EXPECT_NE(record.countryAlpha2, *truth);
  }
}

}  // namespace
}  // namespace urlf::scan
