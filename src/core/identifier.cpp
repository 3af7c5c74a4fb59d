#include "core/identifier.h"

#include <algorithm>
#include <unordered_map>

#include "net/cctld.h"
#include "util/thread_pool.h"

namespace urlf::core {

using filters::ProductKind;

Identifier::Identifier(simnet::World& world,
                       const scan::ShardedBannerIndex& index,
                       fingerprint::Engine engine, geo::GeoDatabase geo,
                       geo::AsnDatabase whois, IdentifierConfig config)
    : world_(&world),
      index_(&index),
      engine_(std::move(engine)),
      geo_(std::move(geo)),
      whois_(std::move(whois)),
      config_(config) {}

std::vector<std::string> Identifier::shodanKeywords(ProductKind product) {
  // Verbatim from Table 2.
  switch (product) {
    case ProductKind::kBlueCoat:
      return {"proxysg", "cfru="};
    case ProductKind::kSmartFilter:
      return {"mcafee web gateway", "url blocked"};
    case ProductKind::kNetsweeper:
      return {"netsweeper", "webadmin", "webadmin/deny", "8080/webadmin/"};
    case ProductKind::kWebsense:
      return {"blockpage.cgi", "gateway websense"};
  }
  return {};
}

std::vector<scan::Query> Identifier::productQueries(ProductKind product) const {
  std::vector<scan::Query> queries;
  for (const auto& keyword : shodanKeywords(product)) {
    queries.push_back({keyword, std::nullopt});
    if (config_.expandByCountry) {
      for (const auto& country : net::allCountries())
        queries.push_back({keyword, std::string(country.alpha2)});
    }
  }
  return queries;
}

std::vector<std::uint32_t> Identifier::locateCandidates(
    ProductKind product) const {
  return index_->searchAll(productQueries(product));
}

namespace {

/// Move a fetched banner into a fingerprint observation (passive mode).
void observationInto(scan::BannerRecord record, fingerprint::Observation& out) {
  out.ip = record.ip;
  out.port = record.port;
  out.statusCode = record.statusCode;
  out.headers = std::move(record.headers);
  out.body = std::move(record.body);
  out.title = std::move(record.title);
}

}  // namespace

void Identifier::validateReference(std::uint32_t doc, ValidationMode mode,
                                   std::vector<fingerprint::Match>& out) const {
  if (mode == ValidationMode::kActive) {
    const auto surface = index_->surface(doc);
    out = engine_.probe(*world_, surface.ip, surface.port);
    return;
  }
  fingerprint::Observation obs;
  observationInto(index_->fetchRecord(doc), obs);
  out = engine_.evaluate(obs);
}

void Identifier::validateLean(std::uint32_t doc, ValidationMode mode,
                              fingerprint::EvalScratch& scratch,
                              std::vector<fingerprint::Match>& out) const {
  if (mode == ValidationMode::kActive) {
    const auto surface = index_->surface(doc);
    engine_.probeInto(*world_, surface.ip, surface.port, scratch, out);
    return;
  }
  observationInto(index_->fetchRecord(doc), scratch.observation);
  engine_.evaluateInto(scratch.observation, scratch.view, out);
}

Identifier::ValidationWave Identifier::validateWave(
    const std::vector<std::vector<std::uint32_t>>& perProduct,
    ValidationMode mode) const {
  ValidationWave wave;
  wave.slot.resize(perProduct.size());

  if (config_.threads == 1) {
    // Reference serial path: every (product, candidate) pair validated in
    // order through the allocating entry points — no dedup, no scratch.
    std::size_t next = 0;
    for (std::size_t p = 0; p < perProduct.size(); ++p) {
      wave.slot[p].resize(perProduct[p].size());
      for (std::size_t i = 0; i < perProduct[p].size(); ++i) {
        wave.results.emplace_back();
        validateReference(perProduct[p][i], mode, wave.results.back());
        wave.slot[p][i] = next++;
      }
    }
    return wave;
  }

  // Fast path. Validation depends only on the candidate surface, never on
  // the product whose keywords located it, so each distinct candidate doc
  // is validated exactly once and its
  // verdict shared across products. Jobs run in chunked waves; each chunk
  // reuses one scratch observation, so steady-state validation allocates
  // only for evidence on actual hits.
  std::unordered_map<std::uint32_t, std::size_t> slotOf;
  std::vector<std::uint32_t> distinct;
  for (std::size_t p = 0; p < perProduct.size(); ++p) {
    wave.slot[p].resize(perProduct[p].size());
    for (std::size_t i = 0; i < perProduct[p].size(); ++i) {
      const auto doc = perProduct[p][i];
      const auto [it, inserted] = slotOf.emplace(doc, distinct.size());
      if (inserted) distinct.push_back(doc);
      wave.slot[p][i] = it->second;
    }
  }

  wave.results.resize(distinct.size());
  util::parallelForChunks(
      distinct.size(),
      [&](std::size_t begin, std::size_t end) {
        fingerprint::EvalScratch scratch;
        for (std::size_t k = begin; k < end; ++k)
          validateLean(distinct[k], mode, scratch, wave.results[k]);
      },
      config_.threads, 8);
  return wave;
}

std::vector<Installation> Identifier::selectInstallations(
    ProductKind product, const std::vector<std::uint32_t>& candidates,
    const std::vector<std::vector<fingerprint::Match>>& results,
    const std::vector<std::size_t>& slot) const {
  std::vector<Installation> out;
  std::set<std::uint32_t> seenIps;

  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const auto surface = index_->surface(candidates[i]);
    const auto& matches = results[slot[i]];
    // One installation per IP: validate each scanned port but report the IP
    // once, keeping the strongest validation.
    const auto hit =
        std::find_if(matches.begin(), matches.end(), [&](const auto& m) {
          return m.product == product && m.certainty >= config_.minCertainty;
        });
    if (hit == matches.end()) continue;
    if (!seenIps.insert(surface.ip.value()).second) continue;

    Installation inst;
    inst.product = product;
    inst.ip = surface.ip;
    inst.port = surface.port;
    inst.certainty = hit->certainty;
    inst.evidence = hit->evidence;
    inst.countryAlpha2 = geo_.lookup(surface.ip).value_or("??");
    inst.asn = whois_.lookup(surface.ip);
    out.push_back(std::move(inst));
  }
  return out;
}

std::vector<Installation> Identifier::identifyWith(ProductKind product,
                                                   ValidationMode mode) const {
  std::vector<std::vector<std::uint32_t>> perProduct(1);
  perProduct[0] = locateCandidates(product);
  const auto wave = validateWave(perProduct, mode);
  return selectInstallations(product, perProduct[0], wave.results,
                             wave.slot[0]);
}

std::map<ProductKind, std::vector<Installation>> Identifier::identifyAllWith(
    ValidationMode mode) const {
  const auto& products = filters::allProducts();

  // Locate every product's candidates first (fast: indexed search), then
  // validate the flattened candidate set in one wave — wider than four
  // sequential per-product fan-outs, and deduplicated across products on
  // the fast path.
  std::vector<std::vector<std::uint32_t>> candidates(products.size());
  for (std::size_t p = 0; p < products.size(); ++p)
    candidates[p] = locateCandidates(products[p]);

  const auto wave = validateWave(candidates, mode);

  std::map<ProductKind, std::vector<Installation>> out;
  for (std::size_t p = 0; p < products.size(); ++p)
    out.emplace(products[p],
                selectInstallations(products[p], candidates[p], wave.results,
                                    wave.slot[p]));
  return out;
}

std::map<ProductKind, std::vector<Installation>> Identifier::identifyAllCached(
    ValidationCache& cache, const SurfaceEpochFn& surfaceEpoch) const {
  const auto& products = filters::allProducts();

  std::vector<std::vector<std::uint32_t>> candidates(products.size());
  for (std::size_t p = 0; p < products.size(); ++p)
    candidates[p] = locateCandidates(products[p]);

  // Dedup across products by surface identity — validation is a pure
  // function of (ip, port) content in active mode, so the cache key and the
  // dedup key coincide.
  std::unordered_map<std::uint64_t, std::size_t> slotOf;
  std::vector<std::uint32_t> distinct;
  std::vector<std::vector<std::size_t>> slot(products.size());
  for (std::size_t p = 0; p < products.size(); ++p) {
    slot[p].resize(candidates[p].size());
    for (std::size_t i = 0; i < candidates[p].size(); ++i) {
      const auto surface = index_->surface(candidates[p][i]);
      const std::uint64_t key =
          (std::uint64_t{surface.ip.value()} << 16) | surface.port;
      const auto [it, inserted] = slotOf.emplace(key, distinct.size());
      if (inserted) distinct.push_back(candidates[p][i]);
      slot[p][i] = it->second;
    }
  }

  std::vector<std::vector<fingerprint::Match>> results(distinct.size());
  std::vector<std::uint64_t> epochs(distinct.size());
  std::vector<std::size_t> misses;
  for (std::size_t k = 0; k < distinct.size(); ++k) {
    const auto surface = index_->surface(distinct[k]);
    epochs[k] = surfaceEpoch(surface.ip, surface.port);
    const auto* entry = cache.find(surface.ip, surface.port);
    if (entry != nullptr && entry->epoch == epochs[k]) {
      results[k] = entry->matches;
      cache.tallyHit();
    } else {
      misses.push_back(k);
      cache.tallyMiss();
    }
  }

  // Validate the misses in the same chunked wave identifyAll uses; slot
  // writes are per-index, so output is byte-identical at any thread count.
  if (config_.threads == 1) {
    for (const auto k : misses)
      validateReference(distinct[k], ValidationMode::kActive, results[k]);
  } else {
    util::parallelForChunks(
        misses.size(),
        [&](std::size_t begin, std::size_t end) {
          fingerprint::EvalScratch scratch;
          for (std::size_t j = begin; j < end; ++j) {
            const auto k = misses[j];
            validateLean(distinct[k], ValidationMode::kActive, scratch,
                         results[k]);
          }
        },
        config_.threads, 8);
  }
  for (const auto k : misses) {
    const auto surface = index_->surface(distinct[k]);
    cache.store(surface.ip, surface.port, epochs[k], results[k]);
  }

  std::map<ProductKind, std::vector<Installation>> out;
  for (std::size_t p = 0; p < products.size(); ++p)
    out.emplace(products[p], selectInstallations(products[p], candidates[p],
                                                 results, slot[p]));
  return out;
}

std::vector<Installation> Identifier::identify(ProductKind product) const {
  return identifyWith(product, ValidationMode::kActive);
}

std::vector<Installation> Identifier::identifyPassive(
    ProductKind product) const {
  return identifyWith(product, ValidationMode::kPassive);
}

std::map<ProductKind, std::vector<Installation>> Identifier::identifyAllPassive()
    const {
  return identifyAllWith(ValidationMode::kPassive);
}

std::map<ProductKind, std::vector<Installation>> Identifier::identifyAll()
    const {
  return identifyAllWith(ValidationMode::kActive);
}

std::map<ProductKind, std::set<std::string>> Identifier::countriesByProduct(
    const std::map<ProductKind, std::vector<Installation>>& all) {
  std::map<ProductKind, std::set<std::string>> out;
  for (const auto& [product, installations] : all) {
    auto& countries = out[product];
    for (const auto& inst : installations) countries.insert(inst.countryAlpha2);
  }
  return out;
}

}  // namespace urlf::core
