// The one-call network profiler: composition of identification, proxy
// detection, category scouting, and characterization for one network.
#include <gtest/gtest.h>

#include "core/profiler.h"
#include "scenarios/paper_world.h"

namespace urlf::core {
namespace {

using filters::ProductKind;
using scenarios::PaperWorld;

class ProfilerFixture : public ::testing::Test {
 protected:
  ProfilerFixture() {
    geo = paper.world().buildGeoDatabase();
    whois = paper.world().buildAsnDatabase();
    index = scan::crawlStream(paper.world(), geo);
  }

  ProfilerSources sources(const std::string& alpha2) {
    ProfilerSources out;
    out.index = &index;
    out.geo = geo;
    out.whois = whois;
    for (const auto product : filters::allProducts())
      out.referenceSites[product] = paper.referenceSites(product);
    out.globalList = &paper.globalList();
    out.localList = &paper.localList(alpha2);
    out.echoUrl = paper.echoUrl();
    return out;
  }

  PaperWorld paper;
  geo::GeoDatabase geo;
  geo::AsnDatabase whois;
  scan::ShardedBannerIndex index;  // fetcher holds paper.world() and geo
};

TEST_F(ProfilerFixture, EtisalatProfileIsCoherent) {
  const auto profile = profileNetwork(paper.world(), "field-etisalat",
                                      "lab-toronto", sources("AE"));

  EXPECT_EQ(profile.ispName, "Etisalat");
  EXPECT_EQ(profile.countryAlpha2, "AE");

  // Installations in AE: Etisalat's ProxySG + SmartFilter and Du's
  // Netsweeper are all geolocated there.
  std::set<ProductKind> productsSeen;
  for (const auto& installation : profile.installationsInCountry) {
    EXPECT_EQ(installation.countryAlpha2, "AE");
    productsSeen.insert(installation.product);
  }
  EXPECT_TRUE(productsSeen.contains(ProductKind::kBlueCoat));
  EXPECT_TRUE(productsSeen.contains(ProductKind::kSmartFilter));
  EXPECT_TRUE(productsSeen.contains(ProductKind::kNetsweeper));

  // The path is transparently proxied by the ProxySG.
  ASSERT_TRUE(profile.proxyEvidence);
  EXPECT_TRUE(profile.proxyEvidence->proxyDetected());

  // SmartFilter category enforcement: both Anonymizers and Pornography.
  const auto& smartFilterUse =
      profile.categoryUse.at(ProductKind::kSmartFilter);
  int enforced = 0;
  for (const auto& use : smartFilterUse)
    if (use.inUse()) ++enforced;
  EXPECT_GE(enforced, 2);

  // Characterization attributes to SmartFilter and shows protected content.
  ASSERT_TRUE(profile.characterization.attributedProduct);
  EXPECT_EQ(*profile.characterization.attributedProduct,
            ProductKind::kSmartFilter);
  EXPECT_TRUE(profile.characterization.categoryBlocked("Media Freedom"));
}

TEST_F(ProfilerFixture, SaudiProfileShowsChallengeOne) {
  const auto profile = profileNetwork(paper.world(), "field-bayanat",
                                      "lab-toronto", sources("SA"));
  // No transparent proxy on the Saudi path.
  ASSERT_TRUE(profile.proxyEvidence);
  EXPECT_FALSE(profile.proxyEvidence->proxyDetected());

  // Pornography enforced, Anonymizers not (Challenge 1).
  bool pornography = false;
  bool anonymizers = true;
  for (const auto& use : profile.categoryUse.at(ProductKind::kSmartFilter)) {
    if (use.categoryName == "Pornography") pornography = use.inUse();
    if (use.categoryName == "Anonymizers") anonymizers = use.inUse();
  }
  EXPECT_TRUE(pornography);
  EXPECT_FALSE(anonymizers);
}

TEST_F(ProfilerFixture, JsonExportIsValid) {
  const auto profile = profileNetwork(paper.world(), "field-ooredoo",
                                      "lab-toronto", sources("QA"));
  const auto json = profile.toJson();
  EXPECT_EQ(*json.find("isp")->asString(), "Ooredoo");
  EXPECT_TRUE(json.find("installations_in_country")->isArray());
  EXPECT_TRUE(json.find("category_use")->isObject());
  // Round-trips through the parser.
  EXPECT_TRUE(report::Json::parse(json.dump(2)));
}

TEST_F(ProfilerFixture, SkipsProxyDetectionWithoutEchoUrl) {
  auto s = sources("AE");
  s.echoUrl.clear();
  const auto profile =
      profileNetwork(paper.world(), "field-du", "lab-toronto", s);
  EXPECT_FALSE(profile.proxyEvidence.has_value());
}

TEST_F(ProfilerFixture, ValidatesInputs) {
  auto s = sources("AE");
  EXPECT_THROW(
      (void)profileNetwork(paper.world(), "nope", "lab-toronto", s),
      std::invalid_argument);
  s.index = nullptr;
  EXPECT_THROW(
      (void)profileNetwork(paper.world(), "field-du", "lab-toronto", s),
      std::invalid_argument);
}

}  // namespace
}  // namespace urlf::core
