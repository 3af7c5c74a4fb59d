#include <gtest/gtest.h>

#include "core/characterizer.h"
#include "core/confirmer.h"
#include "core/identifier.h"
#include "filters/registry.h"
#include "filters/smartfilter.h"
#include "simnet/hosting.h"

namespace urlf::core {
namespace {

using filters::ProductKind;

net::IpPrefix prefix(const char* text) {
  return net::IpPrefix::parse(text).value();
}

/// A compact world: one censoring ISP running SmartFilter (Anonymizers +
/// Pornography blocked), one clean ISP, a hosting provider, and a lab.
class CoreFixture : public ::testing::Test {
 protected:
  CoreFixture() : world(2024) {
    world.createAs(100, "CENSOR-AS", "Censoring ISP", "SA",
                   {prefix("10.0.0.0/16")});
    world.createAs(150, "CLEAN-AS", "Clean ISP", "DE", {prefix("15.0.0.0/16")});
    world.createAs(200, "HOST-AS", "Hosting", "US", {prefix("20.0.0.0/16")});

    censoring = &world.createIsp("Censoring ISP", "SA", {100});
    clean = &world.createIsp("Clean ISP", "DE", {150});
    world.createVantage("field-censored", "SA", censoring);
    world.createVantage("field-clean", "DE", clean);
    world.createVantage("lab", "CA", nullptr);

    vendor = std::make_unique<filters::Vendor>(ProductKind::kSmartFilter,
                                               world);
    filters::FilterPolicy policy;
    policy.blockedCategories = {
        vendor->scheme().byName("Anonymizers")->id,
        vendor->scheme().byName("Pornography")->id,
    };
    deployment = &world.makeMiddlebox<filters::SmartFilterDeployment>(
        "SF", *vendor, policy);
    deployment->installExternalSurfaces(world, 100);
    censoring->attachMiddlebox(*deployment);

    hosting = std::make_unique<simnet::HostingProvider>(world, 200);
    vendors.add(*vendor);
  }

  Confirmer makeConfirmer() { return Confirmer(world, *hosting, vendors); }

  CaseStudyConfig baseConfig() {
    CaseStudyConfig config;
    config.product = ProductKind::kSmartFilter;
    config.countryAlpha2 = "SA";
    config.ispName = "Censoring ISP";
    config.fieldVantage = "field-censored";
    config.labVantage = "lab";
    config.categoryName = "Anonymizers";
    config.profile = simnet::ContentProfile::kGlypeProxy;
    config.totalSites = 6;
    config.sitesToSubmit = 3;
    config.waitDays = 5;
    return config;
  }

  simnet::World world;
  simnet::Isp* censoring = nullptr;
  simnet::Isp* clean = nullptr;
  std::unique_ptr<filters::Vendor> vendor;
  filters::SmartFilterDeployment* deployment = nullptr;
  std::unique_ptr<simnet::HostingProvider> hosting;
  VendorSet vendors;
};

// ---------------------------------------------------------- Confirmer ----

TEST_F(CoreFixture, ConfirmsCensorshipInCensoringIsp) {
  auto confirmer = makeConfirmer();
  const auto result = confirmer.run(baseConfig());
  EXPECT_TRUE(result.confirmed);
  EXPECT_EQ(result.submittedBlocked, 3);
  EXPECT_EQ(result.attributedToProduct, 3);
  EXPECT_EQ(result.controlBlocked, 0);
  EXPECT_EQ(result.pretestAccessibleCount, 6);
  EXPECT_EQ(result.submittedRatio(), "3/6");
  EXPECT_EQ(result.blockedRatio(), "3/3");
}

TEST_F(CoreFixture, DoesNotConfirmInCleanIsp) {
  auto confirmer = makeConfirmer();
  auto config = baseConfig();
  config.ispName = "Clean ISP";
  config.fieldVantage = "field-clean";
  const auto result = confirmer.run(config);
  EXPECT_FALSE(result.confirmed);
  EXPECT_EQ(result.submittedBlocked, 0);
}

TEST_F(CoreFixture, DoesNotConfirmWhenIspIgnoresTheCategory) {
  // Challenge 1: submitting under a category the ISP does not block.
  deployment->policy().blockedCategories = {
      vendor->scheme().byName("Pornography")->id};
  auto confirmer = makeConfirmer();
  const auto result = confirmer.run(baseConfig());  // submits Anonymizers
  EXPECT_FALSE(result.confirmed);
  EXPECT_EQ(result.submittedBlocked, 0);
}

TEST_F(CoreFixture, RetestBeforeReviewWindowFails) {
  auto confirmer = makeConfirmer();
  auto config = baseConfig();
  config.waitDays = 1;  // vendor reviews take 3-5 days
  const auto result = confirmer.run(config);
  EXPECT_FALSE(result.confirmed);
}

TEST_F(CoreFixture, AdultImageProfileTestsBenignPath) {
  auto confirmer = makeConfirmer();
  auto config = baseConfig();
  config.categoryName = "Pornography";
  config.profile = simnet::ContentProfile::kAdultImage;
  const auto result = confirmer.run(config);
  EXPECT_TRUE(result.confirmed);
  for (const auto& url : result.submittedUrls)
    EXPECT_TRUE(url.ends_with("/benign.jpg")) << url;
}

TEST_F(CoreFixture, DateLabelReflectsClock) {
  world.clock().advanceHours(util::SimTime::fromDate({2012, 9, 10}) -
                             world.now());
  auto confirmer = makeConfirmer();
  const auto result = confirmer.run(baseConfig());
  EXPECT_EQ(result.dateLabel, "9/2012");
}

TEST_F(CoreFixture, ValidatesConfig) {
  auto confirmer = makeConfirmer();
  auto badVantage = baseConfig();
  badVantage.fieldVantage = "nope";
  EXPECT_THROW((void)confirmer.run(badVantage), std::invalid_argument);

  auto badCategory = baseConfig();
  badCategory.categoryName = "No Such Category";
  EXPECT_THROW((void)confirmer.run(badCategory), std::invalid_argument);

  auto badSplit = baseConfig();
  badSplit.sitesToSubmit = 99;
  EXPECT_THROW((void)confirmer.run(badSplit), std::invalid_argument);

  CaseStudyConfig missingVendor = baseConfig();
  missingVendor.product = ProductKind::kWebsense;  // not in VendorSet
  EXPECT_THROW((void)confirmer.run(missingVendor), std::invalid_argument);
}

TEST_F(CoreFixture, StrippedBrandingBlocksButDoesNotAttribute) {
  deployment->policy().stripBranding = true;
  auto confirmer = makeConfirmer();
  const auto result = confirmer.run(baseConfig());
  EXPECT_EQ(result.submittedBlocked, 3);      // censorship is visible
  EXPECT_EQ(result.attributedToProduct, 0);   // but not attributable
  EXPECT_FALSE(result.confirmed);
}

TEST_F(CoreFixture, VendorSetLookup) {
  EXPECT_TRUE(vendors.has(ProductKind::kSmartFilter));
  EXPECT_FALSE(vendors.has(ProductKind::kNetsweeper));
  EXPECT_EQ(&vendors.get(ProductKind::kSmartFilter), vendor.get());
  EXPECT_THROW((void)vendors.get(ProductKind::kNetsweeper),
               std::invalid_argument);
}

// --------------------------------------------------------- Identifier ----

TEST_F(CoreFixture, IdentifierFindsTheDeployment) {
  const auto geo = world.buildGeoDatabase();
  const auto whois = world.buildAsnDatabase();
  const auto index = scan::crawlStream(world, geo);

  Identifier identifier(world, index,
                        fingerprint::Engine::withBuiltinSignatures(), geo,
                        whois);
  const auto installations = identifier.identify(ProductKind::kSmartFilter);
  ASSERT_EQ(installations.size(), 1u);
  EXPECT_EQ(installations[0].ip, deployment->serviceIp());
  EXPECT_EQ(installations[0].countryAlpha2, "SA");
  ASSERT_TRUE(installations[0].asn);
  EXPECT_EQ(installations[0].asn->asn, 100u);
  EXPECT_GE(installations[0].certainty, 0.5);
  EXPECT_FALSE(installations[0].evidence.empty());
}

TEST_F(CoreFixture, IdentifierFindsNothingForAbsentProducts) {
  const auto geo = world.buildGeoDatabase();
  const auto index = scan::crawlStream(world, geo);
  Identifier identifier(world, index,
                        fingerprint::Engine::withBuiltinSignatures(), geo,
                        world.buildAsnDatabase());
  EXPECT_TRUE(identifier.identify(ProductKind::kWebsense).empty());
  EXPECT_TRUE(identifier.identify(ProductKind::kNetsweeper).empty());
}

TEST_F(CoreFixture, ShodanKeywordsMatchTable2) {
  const auto blueCoat = Identifier::shodanKeywords(ProductKind::kBlueCoat);
  EXPECT_EQ(blueCoat, (std::vector<std::string>{"proxysg", "cfru="}));
  const auto netsweeper = Identifier::shodanKeywords(ProductKind::kNetsweeper);
  EXPECT_EQ(netsweeper.size(), 4u);
  const auto websense = Identifier::shodanKeywords(ProductKind::kWebsense);
  EXPECT_EQ(websense,
            (std::vector<std::string>{"blockpage.cgi", "gateway websense"}));
}

TEST_F(CoreFixture, CountriesByProductAggregation) {
  std::map<ProductKind, std::vector<Installation>> all;
  Installation a;
  a.countryAlpha2 = "SA";
  Installation b;
  b.countryAlpha2 = "AE";
  Installation c;
  c.countryAlpha2 = "SA";
  all[ProductKind::kSmartFilter] = {a, b, c};
  const auto countries = Identifier::countriesByProduct(all);
  EXPECT_EQ(countries.at(ProductKind::kSmartFilter),
            (std::set<std::string>{"AE", "SA"}));
}

// ------------------------------------------------------ Characterizer ----

TEST_F(CoreFixture, CharacterizerTalliesByOniCategory) {
  // Two proxy sites (one categorized by the vendor, one not) and one benign
  // site.
  const auto blockedProxy =
      hosting->createFreshDomain(simnet::ContentProfile::kGlypeProxy);
  vendor->masterDb().addHost(blockedProxy.hostname,
                             vendor->scheme().byName("Anonymizers")->id);
  const auto openProxy =
      hosting->createFreshDomain(simnet::ContentProfile::kGlypeProxy);
  const auto benign =
      hosting->createFreshDomain(simnet::ContentProfile::kBenign);

  measure::TestList global{
      "global",
      {{"http://" + blockedProxy.hostname + "/", "Anonymizers and Proxies"},
       {"http://" + openProxy.hostname + "/", "Anonymizers and Proxies"},
       {"http://" + benign.hostname + "/", "Popular Culture"}}};
  measure::TestList local{"local-sa", {}};

  Characterizer characterizer(world);
  const auto result =
      characterizer.characterize("field-censored", "lab", global, local);

  EXPECT_EQ(result.ispName, "Censoring ISP");
  EXPECT_EQ(result.countryAlpha2, "SA");
  ASSERT_TRUE(result.attributedProduct);
  EXPECT_EQ(*result.attributedProduct, ProductKind::kSmartFilter);

  const auto& proxies = result.cells.at("Anonymizers and Proxies");
  EXPECT_EQ(proxies.tested, 2);
  EXPECT_EQ(proxies.blocked, 1);
  const auto& culture = result.cells.at("Popular Culture");
  EXPECT_EQ(culture.tested, 1);
  EXPECT_EQ(culture.blocked, 0);
  EXPECT_TRUE(result.categoryBlocked("Anonymizers and Proxies"));
  EXPECT_FALSE(result.categoryBlocked("Popular Culture"));
  EXPECT_FALSE(result.categoryBlocked("No Such Category"));
  EXPECT_EQ(result.results.size(), 3u);
}

TEST_F(CoreFixture, CharacterizerNoBlockingNoAttribution) {
  const auto benign =
      hosting->createFreshDomain(simnet::ContentProfile::kBenign);
  measure::TestList global{
      "global", {{"http://" + benign.hostname + "/", "Popular Culture"}}};
  Characterizer characterizer(world);
  const auto result = characterizer.characterize("field-clean", "lab", global,
                                                 {"local", {}});
  EXPECT_FALSE(result.attributedProduct);
}

TEST_F(CoreFixture, CharacterizerRepeatedRunsCatchFlakyBlocking) {
  deployment->policy().offlineProbability = 0.6;
  const auto blockedProxy =
      hosting->createFreshDomain(simnet::ContentProfile::kGlypeProxy);
  vendor->masterDb().addHost(blockedProxy.hostname,
                             vendor->scheme().byName("Anonymizers")->id);
  measure::TestList global{
      "global",
      {{"http://" + blockedProxy.hostname + "/", "Anonymizers and Proxies"}}};

  Characterizer characterizer(world);
  // With 12 runs the probability of never observing the block is ~0.2%.
  const auto result = characterizer.characterize("field-censored", "lab",
                                                 global, {"local", {}}, 12);
  EXPECT_TRUE(result.categoryBlocked("Anonymizers and Proxies"));
}

TEST_F(CoreFixture, CharacterizerRejectsUnknownVantage) {
  Characterizer characterizer(world);
  EXPECT_THROW((void)characterizer.characterize("nope", "lab", {"g", {}},
                                                {"l", {}}),
               std::invalid_argument);
}

TEST(Table4ColumnsTest, SixColumns) {
  EXPECT_EQ(table4Categories().size(), 6u);
  EXPECT_EQ(table4Categories().front(), "Media Freedom");
}

}  // namespace
}  // namespace urlf::core
