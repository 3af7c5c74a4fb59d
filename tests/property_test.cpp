// Property-style parameterized suites: invariants of the confirmation
// methodology swept across all four products, policy variants, and the
// decision-rule input space.
#include <gtest/gtest.h>

#include "core/confirmer.h"
#include "core/identifier.h"
#include "filters/registry.h"
#include "measure/blockpage.h"
#include "scan/banner_index.h"
#include "simnet/hosting.h"

namespace urlf {
namespace {

using filters::ProductKind;

net::IpPrefix prefix(const char* text) {
  return net::IpPrefix::parse(text).value();
}

/// The proxy-ish category each vendor scheme uses for Glype-style sites.
std::string proxyCategoryFor(ProductKind kind) {
  switch (kind) {
    case ProductKind::kBlueCoat: return "Proxy Avoidance";
    case ProductKind::kSmartFilter: return "Anonymizers";
    case ProductKind::kNetsweeper: return "Proxy Anonymizer";
    case ProductKind::kWebsense: return "Proxy Avoidance";
  }
  return "";
}

/// A single-product world: one ISP (optionally running the product with the
/// proxy category blocked), hosting, vendor infra, field + lab vantages.
struct MiniWorld {
  explicit MiniWorld(ProductKind kind, bool deployed, bool stripBranding = false,
                     std::uint64_t seed = 4242)
      : world(seed), vendor(kind, world) {
    world.createAs(100, "ISP-AS", "Mini ISP", "AE", {prefix("10.0.0.0/16")});
    world.createAs(200, "HOST-AS", "Hosting", "US", {prefix("20.0.0.0/16")});
    world.createAs(300, "VENDOR-AS", "Vendor infra", "US",
                   {prefix("30.0.0.0/16")});
    isp = &world.createIsp("Mini ISP", "AE", {100});
    world.createVantage("field", "AE", isp);
    world.createVantage("lab", "CA", nullptr);
    vendor.installInfrastructure(300);

    if (deployed) {
      filters::FilterPolicy policy;
      policy.blockedCategories = {
          vendor.scheme().byName(proxyCategoryFor(kind))->id};
      policy.stripBranding = stripBranding;
      deployment = &filters::makeDeployment(world, kind, "mini-deployment",
                                            vendor, std::move(policy));
      deployment->installExternalSurfaces(world, 100);
      isp->attachMiddlebox(*deployment);
    }
    hosting = std::make_unique<simnet::HostingProvider>(world, 200);
  }

  core::CaseStudyConfig config() const {
    core::CaseStudyConfig out;
    out.product = vendor.kind();
    out.ispName = "Mini ISP";
    out.countryAlpha2 = "AE";
    out.fieldVantage = "field";
    out.labVantage = "lab";
    out.categoryName = proxyCategoryFor(vendor.kind());
    out.profile = simnet::ContentProfile::kGlypeProxy;
    out.totalSites = 6;
    out.sitesToSubmit = 3;
    out.waitDays = 5;
    return out;
  }

  core::CaseStudyResult confirm() {
    core::VendorSet vendors;
    vendors.add(vendor);
    core::Confirmer confirmer(world, *hosting, vendors);
    return confirmer.run(config());
  }

  simnet::World world;
  filters::Vendor vendor;
  simnet::Isp* isp = nullptr;
  filters::Deployment* deployment = nullptr;
  std::unique_ptr<simnet::HostingProvider> hosting;
};

// -------------------------------------------------- Confirmation matrix ----

/// Invariant: the methodology confirms a product exactly when that product
/// is deployed and enforcing the submitted category — for every product.
class ConfirmationMatrix
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(ConfirmationMatrix, ConfirmedIffDeployed) {
  const auto [productIndex, deployed] = GetParam();
  const auto kind = static_cast<ProductKind>(productIndex);
  MiniWorld mini(kind, deployed);
  const auto result = mini.confirm();
  EXPECT_EQ(result.confirmed, deployed)
      << filters::toString(kind) << " deployed=" << deployed;
  if (deployed) {
    EXPECT_EQ(result.submittedBlocked, 3);
    EXPECT_EQ(result.attributedToProduct, 3);
    EXPECT_EQ(result.controlBlocked, 0);
  } else {
    EXPECT_EQ(result.submittedBlocked, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllProducts, ConfirmationMatrix,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Bool()));

// --------------------------------------------- Cross-product submission ----

/// Invariant: submitting to vendor A never triggers blocking by deployed
/// product B (the generalization behind the paper's Table 3 negatives).
class CrossProductSubmission
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CrossProductSubmission, ForeignSubmissionsNeverBlock) {
  const auto [deployedIndex, submittedIndex] = GetParam();
  if (deployedIndex == submittedIndex) GTEST_SKIP();
  const auto deployedKind = static_cast<ProductKind>(deployedIndex);
  const auto submittedKind = static_cast<ProductKind>(submittedIndex);

  MiniWorld mini(deployedKind, /*deployed=*/true);
  filters::Vendor otherVendor(submittedKind, mini.world);

  core::VendorSet vendors;
  vendors.add(mini.vendor);
  vendors.add(otherVendor);
  core::Confirmer confirmer(mini.world, *mini.hosting, vendors);

  auto config = mini.config();
  config.product = submittedKind;
  config.categoryName = proxyCategoryFor(submittedKind);
  const auto result = confirmer.run(config);
  EXPECT_FALSE(result.confirmed);
  EXPECT_EQ(result.submittedBlocked, 0);
}

INSTANTIATE_TEST_SUITE_P(Pairs, CrossProductSubmission,
                         ::testing::Combine(::testing::Values(0, 1, 2, 3),
                                            ::testing::Values(0, 1, 2, 3)));

// ----------------------------------------------- Block-page attribution ----

/// Documented attribution behaviour under branding stripping: Blue Coat and
/// SmartFilter become unattributable (their signatures are cosmetic), while
/// Netsweeper and Websense remain attributable through the structural
/// redirect to their block-page service ports.
class StripBrandingAttribution : public ::testing::TestWithParam<int> {};

TEST_P(StripBrandingAttribution, MatchesDocumentedMatrix) {
  const auto kind = static_cast<ProductKind>(GetParam());
  MiniWorld mini(kind, /*deployed=*/true, /*stripBranding=*/true);
  const auto result = mini.confirm();

  // Blocking always still happens.
  EXPECT_EQ(result.submittedBlocked, 3);

  const bool structurallyAttributable =
      kind == ProductKind::kNetsweeper || kind == ProductKind::kWebsense;
  EXPECT_EQ(result.confirmed, structurallyAttributable)
      << filters::toString(kind);
  EXPECT_EQ(result.attributedToProduct, structurallyAttributable ? 3 : 0);
}

INSTANTIATE_TEST_SUITE_P(AllProducts, StripBrandingAttribution,
                         ::testing::Values(0, 1, 2, 3));

// ------------------------------------------------------- Decision rule ----

/// Sweep the decision-rule input space: confirmed ⇔ both counts reach
/// ceil(2k/3).
class DecisionRuleSweep : public ::testing::TestWithParam<int> {};

TEST_P(DecisionRuleSweep, TwoThirdsThreshold) {
  const int k = GetParam();
  const int needed = (2 * k + 2) / 3;
  for (int blocked = 0; blocked <= k; ++blocked) {
    for (int attributed = 0; attributed <= blocked; ++attributed) {
      const bool expected = blocked >= needed && attributed >= needed;
      EXPECT_EQ(core::Confirmer::decide(blocked, attributed, k), expected)
          << "k=" << k << " blocked=" << blocked
          << " attributed=" << attributed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SubmissionSizes, DecisionRuleSweep,
                         ::testing::Values(1, 2, 3, 5, 6, 10));

TEST(DecisionRuleTest, PaperRows) {
  // Confirmed rows: 5/5, 5/6, 6/6; unconfirmed: 0/3, 0/5.
  EXPECT_TRUE(core::Confirmer::decide(5, 5, 5));
  EXPECT_TRUE(core::Confirmer::decide(5, 5, 6));
  EXPECT_TRUE(core::Confirmer::decide(6, 6, 6));
  EXPECT_FALSE(core::Confirmer::decide(0, 0, 3));
  EXPECT_FALSE(core::Confirmer::decide(0, 0, 5));
  EXPECT_FALSE(core::Confirmer::decide(0, 0, 0));
}

// ----------------------------------------------- Keyword discoverability ----

/// Invariant: every deployed product is discoverable by at least one of its
/// own Table 2 keywords over a banner crawl (the premise of §3.1).
class KeywordDiscoverability : public ::testing::TestWithParam<int> {};

TEST_P(KeywordDiscoverability, OwnKeywordsFindOwnSurfaces) {
  const auto kind = static_cast<ProductKind>(GetParam());
  MiniWorld mini(kind, /*deployed=*/true);

  const auto geo = mini.world.buildGeoDatabase();
  const auto index = scan::crawlStream(mini.world, geo);

  bool found = false;
  for (const auto& keyword : core::Identifier::shodanKeywords(kind)) {
    for (const auto doc : index.search({keyword, std::nullopt})) {
      if (index.surface(doc).ip == mini.deployment->serviceIp()) {
        found = true;
        break;
      }
    }
  }
  EXPECT_TRUE(found) << filters::toString(kind);
}

INSTANTIATE_TEST_SUITE_P(AllProducts, KeywordDiscoverability,
                         ::testing::Values(0, 1, 2, 3));

// ------------------------------------------------- Campaign determinism ----

/// Invariant: the whole mini-campaign is a pure function of the seed.
class CampaignDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CampaignDeterminism, SameSeedSameOutcome) {
  auto runOnce = [&](std::uint64_t seed) {
    MiniWorld mini(ProductKind::kNetsweeper, true, false, seed);
    const auto result = mini.confirm();
    std::string fingerprint = result.blockedRatio();
    for (const auto& url : result.submittedUrls) fingerprint += "|" + url;
    return fingerprint;
  };
  EXPECT_EQ(runOnce(GetParam()), runOnce(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CampaignDeterminism,
                         ::testing::Values(1u, 42u, 20131023u, 987654321u));

// ----------------------------------------------------- Verdict symmetry ----

/// Invariant: in a world with no filtering at all, every fresh domain tests
/// accessible from the field, whatever its content.
class NoFilterWorld : public ::testing::TestWithParam<int> {};

TEST_P(NoFilterWorld, EverythingAccessible) {
  const auto profile = static_cast<simnet::ContentProfile>(GetParam());
  MiniWorld mini(ProductKind::kSmartFilter, /*deployed=*/false);
  const auto domain = mini.hosting->createFreshDomain(profile);

  measure::Client client(mini.world, *mini.world.findVantage("field"),
                         *mini.world.findVantage("lab"));
  const auto result = client.testUrl("http://" + domain.hostname + "/");
  EXPECT_EQ(result.verdict, measure::Verdict::kAccessible);
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, NoFilterWorld,
                         ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace urlf
