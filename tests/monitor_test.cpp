// Longitudinal monitoring (§1's motivation): diffing identification runs
// across time to see deployments appear, vanish, and move.
#include <gtest/gtest.h>

#include "core/monitor.h"
#include "filters/netsweeper.h"
#include "filters/smartfilter.h"
#include "scenarios/paper_world.h"

namespace urlf::core {
namespace {

using filters::ProductKind;

Installation makeInstallation(ProductKind product, const char* ip,
                              const char* country) {
  Installation out;
  out.product = product;
  out.ip = net::Ipv4Addr::parse(ip).value();
  out.countryAlpha2 = country;
  return out;
}

// ------------------------------------------------------------ Unit -------

TEST(DiffTest, EmptyRunsEmptyDiff) {
  const auto diff = diffInstallations({}, {});
  EXPECT_TRUE(diff.empty());
  EXPECT_TRUE(diff.persisted.empty());
}

TEST(DiffTest, AppearedVanishedPersisted) {
  const std::vector<Installation> baseline{
      makeInstallation(ProductKind::kNetsweeper, "10.0.0.1", "YE"),
      makeInstallation(ProductKind::kNetsweeper, "10.0.0.2", "QA"),
  };
  const std::vector<Installation> current{
      makeInstallation(ProductKind::kNetsweeper, "10.0.0.2", "QA"),
      makeInstallation(ProductKind::kNetsweeper, "10.0.0.3", "AE"),
  };
  const auto diff = diffInstallations(baseline, current);
  ASSERT_EQ(diff.appeared.size(), 1u);
  EXPECT_EQ(diff.appeared[0].ip.toString(), "10.0.0.3");
  ASSERT_EQ(diff.vanished.size(), 1u);
  EXPECT_EQ(diff.vanished[0].ip.toString(), "10.0.0.1");
  ASSERT_EQ(diff.persisted.size(), 1u);
  EXPECT_EQ(diff.persisted[0]->ip.toString(), "10.0.0.2");
  EXPECT_EQ(diff.persisted[0], &current[0]);  // pointer into `current`
  EXPECT_FALSE(diff.empty());
}

TEST(DiffTest, RelocationDetected) {
  const std::vector<Installation> baseline{
      makeInstallation(ProductKind::kBlueCoat, "10.0.0.1", "SY")};
  const std::vector<Installation> current{
      makeInstallation(ProductKind::kBlueCoat, "10.0.0.1", "LB")};
  const auto diff = diffInstallations(baseline, current);
  ASSERT_EQ(diff.relocated.size(), 1u);
  EXPECT_EQ(diff.relocated[0].first->countryAlpha2, "SY");
  EXPECT_EQ(diff.relocated[0].second->countryAlpha2, "LB");
  EXPECT_TRUE(diff.persisted.empty());
  EXPECT_FALSE(diff.empty());
}

TEST(DiffTest, IdenticalRunsAreQuiet) {
  const std::vector<Installation> run{
      makeInstallation(ProductKind::kWebsense, "10.0.0.1", "US")};
  const auto diff = diffInstallations(run, run);
  EXPECT_TRUE(diff.empty());
  EXPECT_EQ(diff.persisted.size(), 1u);
}

TEST(DiffTest, OutputIsIpAscendingAndDeduped) {
  const std::vector<Installation> baseline{
      makeInstallation(ProductKind::kNetsweeper, "10.0.0.9", "YE"),
      makeInstallation(ProductKind::kNetsweeper, "10.0.0.1", "YE"),
  };
  const std::vector<Installation> current{
      makeInstallation(ProductKind::kNetsweeper, "10.0.0.8", "QA"),
      makeInstallation(ProductKind::kNetsweeper, "10.0.0.2", "AE"),
      makeInstallation(ProductKind::kNetsweeper, "10.0.0.2", "SA"),
  };
  const auto diff = diffInstallations(baseline, current);
  ASSERT_EQ(diff.appeared.size(), 2u);
  EXPECT_EQ(diff.appeared[0].ip.toString(), "10.0.0.2");
  EXPECT_EQ(diff.appeared[0].countryAlpha2, "AE");  // first occurrence wins
  EXPECT_EQ(diff.appeared[1].ip.toString(), "10.0.0.8");
  ASSERT_EQ(diff.vanished.size(), 2u);
  EXPECT_EQ(diff.vanished[0].ip.toString(), "10.0.0.1");
  EXPECT_EQ(diff.vanished[1].ip.toString(), "10.0.0.9");
}

TEST(DiffTest, DiffAllCoversProductsInEitherRun) {
  std::map<ProductKind, std::vector<Installation>> baseline;
  baseline[ProductKind::kNetsweeper] = {
      makeInstallation(ProductKind::kNetsweeper, "10.0.0.1", "YE")};
  std::map<ProductKind, std::vector<Installation>> current;
  current[ProductKind::kWebsense] = {
      makeInstallation(ProductKind::kWebsense, "10.0.0.9", "US")};

  const auto all = diffAll(baseline, current);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all.at(ProductKind::kNetsweeper).vanished.size(), 1u);
  EXPECT_EQ(all.at(ProductKind::kWebsense).appeared.size(), 1u);
}

// ----------------------------------------------------- End to end --------

class MonitorFixture : public ::testing::Test {
 protected:
  MonitorFixture() : paper() {}

  std::map<ProductKind, std::vector<Installation>> identifyNow() {
    auto& world = paper.world();
    const auto geo = world.buildGeoDatabase();
    const auto whois = world.buildAsnDatabase();
    const auto index = scan::crawlStream(world, geo);
    Identifier identifier(world, index,
                          fingerprint::Engine::withBuiltinSignatures(), geo,
                          whois);
    return identifier.identifyAll();
  }

  scenarios::PaperWorld paper;
};

TEST_F(MonitorFixture, StableWorldYieldsQuietDiff) {
  const auto first = identifyNow();
  paper.world().clock().advanceDays(30);
  const auto second = identifyNow();
  for (const auto& [product, diff] : diffAll(first, second))
    EXPECT_TRUE(diff.empty()) << filters::toString(product);
}

TEST_F(MonitorFixture, HidingADeploymentShowsAsVanished) {
  const auto baseline = identifyNow();

  // The Du operator firewalls the WebAdmin console between scans.
  const auto duIp = paper.duNetsweeper().serviceIp();
  paper.world().unbind(duIp, 8080);

  const auto current = identifyNow();
  const auto diff = diffAll(baseline, current).at(ProductKind::kNetsweeper);
  ASSERT_EQ(diff.vanished.size(), 1u);
  EXPECT_EQ(diff.vanished[0].ip, duIp);
  EXPECT_TRUE(diff.appeared.empty());
}

TEST_F(MonitorFixture, NewDeploymentShowsAsAppeared) {
  const auto baseline = identifyNow();

  // A new SmartFilter turns up in a previously clean network.
  auto& world = paper.world();
  world.createAs(64600, "NEW-ISP", "Newly filtering ISP", "OM",
                 {net::IpPrefix::parse("44.0.0.0/16").value()});
  filters::FilterPolicy policy;
  policy.blockedCategories = {1};
  auto& deployment = world.makeMiddlebox<filters::SmartFilterDeployment>(
      "Oman SmartFilter", paper.vendor(ProductKind::kSmartFilter), policy);
  deployment.installExternalSurfaces(world, 64600);

  const auto current = identifyNow();
  const auto diff = diffAll(baseline, current).at(ProductKind::kSmartFilter);
  ASSERT_EQ(diff.appeared.size(), 1u);
  EXPECT_EQ(diff.appeared[0].ip, deployment.serviceIp());
  EXPECT_EQ(diff.appeared[0].countryAlpha2, "OM");
  EXPECT_TRUE(diff.vanished.empty());
}

}  // namespace
}  // namespace urlf::core
