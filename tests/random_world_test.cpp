// Fuzz-style property tests over procedurally generated worlds: the
// methodology's guarantees must hold on topologies nobody hand-crafted.
#include <gtest/gtest.h>

#include <set>

#include "core/confirmer.h"
#include "core/identifier.h"
#include "scenarios/random_world.h"

namespace urlf {
namespace {

using scenarios::RandomWorld;

std::map<filters::ProductKind, std::vector<core::Installation>> identify(
    RandomWorld& random) {
  auto& world = random.world();
  const auto geo = world.buildGeoDatabase();
  const auto whois = world.buildAsnDatabase();
  const auto index = scan::crawlStream(world, geo);
  core::Identifier identifier(world, index,
                              fingerprint::Engine::withBuiltinSignatures(),
                              geo, whois);
  return identifier.identifyAll();
}

class RandomWorldProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomWorldProperty, GenerationIsDeterministic) {
  RandomWorld a(GetParam());
  RandomWorld b(GetParam());
  ASSERT_EQ(a.deployments().size(), b.deployments().size());
  for (std::size_t i = 0; i < a.deployments().size(); ++i) {
    EXPECT_EQ(a.deployments()[i].serviceIp, b.deployments()[i].serviceIp);
    EXPECT_EQ(a.deployments()[i].kind, b.deployments()[i].kind);
    EXPECT_EQ(a.deployments()[i].countryAlpha2,
              b.deployments()[i].countryAlpha2);
  }
}

TEST_P(RandomWorldProperty, IdentificationRecallAndVisibilityBoundary) {
  RandomWorld random(GetParam());
  const auto all = identify(random);

  for (const auto& info : random.deployments()) {
    const auto& found = all.at(info.kind);
    const bool present = std::any_of(
        found.begin(), found.end(), [&](const core::Installation& inst) {
          return inst.ip == info.serviceIp;
        });
    // Visible deployments are always found; hidden ones never are.
    EXPECT_EQ(present, info.externallyVisible)
        << filters::toString(info.kind) << " in " << info.countryAlpha2;
  }
}

TEST_P(RandomWorldProperty, IdentificationGeoAndAsnAreCorrect) {
  RandomWorld random(GetParam());
  const auto all = identify(random);

  std::map<std::uint32_t, const RandomWorld::DeploymentInfo*> byIp;
  for (const auto& info : random.deployments())
    byIp.emplace(info.serviceIp.value(), &info);

  for (const auto& [product, installations] : all) {
    for (const auto& inst : installations) {
      const auto it = byIp.find(inst.ip.value());
      if (it == byIp.end()) continue;  // vendor infra etc.
      EXPECT_EQ(inst.countryAlpha2, it->second->countryAlpha2);
      ASSERT_TRUE(inst.asn.has_value());
      EXPECT_EQ(inst.asn->asn, it->second->asn);
      EXPECT_EQ(product, it->second->kind);
    }
  }
}

TEST_P(RandomWorldProperty, NoDecoyEverValidates) {
  RandomWorld random(GetParam());
  const auto all = identify(random);

  std::set<std::uint32_t> deploymentIps;
  for (const auto& info : random.deployments())
    deploymentIps.insert(info.serviceIp.value());

  // Vendor-operated infrastructure genuinely carries product signatures
  // (Netsweeper's denypagetests origin and submission portal); collect its
  // addresses so it is allowed but nothing else is.
  std::set<std::uint32_t> vendorInfraIps;
  for (const char* host :
       {"denypagetests.netsweeper.com", "testasite.netsweeper.com",
        "sitereview.bluecoat.com", "trustedsource.mcafee.example",
        "csi.websense.example", "www.cfauth.com"}) {
    if (const auto ip = random.world().resolve(host))
      vendorInfraIps.insert(ip->value());
  }

  for (const auto& [product, installations] : all) {
    for (const auto& inst : installations) {
      if (deploymentIps.contains(inst.ip.value())) continue;
      EXPECT_TRUE(vendorInfraIps.contains(inst.ip.value()))
          << "unexpected validation: " << inst.ip.toString() << " as "
          << filters::toString(product);
    }
  }
}

TEST_P(RandomWorldProperty, ConfirmationMatchesDeploymentTruth) {
  RandomWorld random(GetParam());
  core::Confirmer confirmer(random.world(), random.hosting(),
                            random.vendorSet());

  // Confirm each product where it is deployed (cap the count to bound
  // runtime; the sweep across seeds covers the space).
  int tested = 0;
  for (const auto& info : random.deployments()) {
    if (tested++ >= 3) break;
    core::CaseStudyConfig config;
    config.product = info.kind;
    config.ispName = info.ispName;
    config.countryAlpha2 = info.countryAlpha2;
    config.fieldVantage = info.fieldVantage;
    config.labVantage = RandomWorld::kLabVantage;
    config.categoryName = info.proxyCategoryName;
    config.profile = simnet::ContentProfile::kGlypeProxy;
    config.totalSites = 6;
    config.sitesToSubmit = 3;
    config.waitDays = 5;
    const auto result = confirmer.run(config);
    EXPECT_TRUE(result.confirmed)
        << filters::toString(info.kind) << " in " << info.ispName;
    EXPECT_EQ(result.controlBlocked, 0) << info.ispName;
  }
}

TEST_P(RandomWorldProperty, NoFalseConfirmationWhereProductAbsent) {
  RandomWorld random(GetParam());
  core::Confirmer confirmer(random.world(), random.hosting(),
                            random.vendorSet());

  // For the first deployment's ISP, pick a product NOT deployed there and
  // confirm it is not confirmed.
  if (random.deployments().empty()) GTEST_SKIP();
  const auto& info = random.deployments().front();
  const auto otherKind =
      info.kind == filters::ProductKind::kSmartFilter
          ? filters::ProductKind::kWebsense
          : filters::ProductKind::kSmartFilter;

  core::CaseStudyConfig config;
  config.product = otherKind;
  config.ispName = info.ispName;
  config.countryAlpha2 = info.countryAlpha2;
  config.fieldVantage = info.fieldVantage;
  config.labVantage = RandomWorld::kLabVantage;
  config.categoryName = otherKind == filters::ProductKind::kWebsense
                            ? "Proxy Avoidance"
                            : "Anonymizers";
  config.profile = simnet::ContentProfile::kGlypeProxy;
  config.totalSites = 6;
  config.sitesToSubmit = 3;
  config.waitDays = 5;
  const auto result = confirmer.run(config);
  EXPECT_FALSE(result.confirmed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWorldProperty,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u,
                                           606u, 707u, 808u));

// A heavier configuration: many countries, mostly-deployed, some hidden.
TEST(RandomWorldStress, LargeWorldInvariantsHold) {
  scenarios::RandomWorldConfig config;
  config.countries = 24;
  config.deploymentProbability = 0.8;
  config.hiddenProbability = 0.3;
  config.decoys = 12;
  config.contentSites = 24;
  RandomWorld random(999, config);

  EXPECT_GE(random.deployments().size(), 10u);
  const auto all = identify(random);

  int visible = 0;
  for (const auto& info : random.deployments()) {
    if (info.externallyVisible) ++visible;
    const auto& found = all.at(info.kind);
    const bool present = std::any_of(
        found.begin(), found.end(), [&](const core::Installation& inst) {
          return inst.ip == info.serviceIp;
        });
    EXPECT_EQ(present, info.externallyVisible) << info.ispName;
  }
  EXPECT_GT(visible, 0);
}

}  // namespace
}  // namespace urlf
