#ifndef URLF_CORE_IDENTIFIER_H
#define URLF_CORE_IDENTIFIER_H

#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "filters/category.h"
#include "fingerprint/engine.h"
#include "geo/geodb.h"
#include "scan/banner_index.h"
#include "simnet/world.h"

namespace urlf::core {

/// A validated URL-filter installation: the §3 pipeline's output.
struct Installation {
  filters::ProductKind product = filters::ProductKind::kBlueCoat;
  net::Ipv4Addr ip;
  std::uint16_t port = 80;
  std::string countryAlpha2;  ///< MaxMind-style geolocation
  std::optional<geo::AsnRecord> asn;  ///< Team Cymru-style whois
  double certainty = 0.0;
  std::vector<std::string> evidence;
};

struct IdentifierConfig {
  /// Minimum fingerprint certainty for a validated installation.
  double minCertainty = 0.5;
  /// Search each keyword alone AND combined with every country facet, as
  /// §3.1 does with the ccTLDs "to maximize the set of results".
  bool expandByCountry = true;
  /// Validation fan-out width: 0 uses the full shared thread pool, 1 forces
  /// the serial reference path (every (product, candidate) pair validated in
  /// order through the allocating entry points). Output is byte-identical
  /// for any value — the fast path validates each distinct candidate once
  /// in chunked waves, and the selection pass runs sequentially in candidate
  /// order (DESIGN.md §4.1).
  std::size_t threads = 0;
};

/// The §3 identification pipeline:
///   1. locate candidates by keyword search over the banner index (Shodan),
///   2. validate each candidate with an active fingerprint probe (WhatWeb),
///   3. map validated IPs to country (MaxMind) and ASN (Team Cymru whois).
///
/// The pipeline deliberately over-collects at step 1 ("we are not
/// conservative, and rely on the following step to confirm", §3.1).
///
/// Candidates are doc ids of a scan::ShardedBannerIndex. Passive validation
/// reads banners through the index's RecordFetcher; active probes go through
/// World::probeExternal, so streamed hosts that were never bound still
/// answer.
///
/// Validation is a function of the candidate surface alone, never of the
/// product whose keywords located it — so the fast path validates each
/// distinct candidate once and shares the verdict across products, in
/// chunked waves with per-chunk scratch buffers (see IdentifierConfig).
class Identifier {
 public:
  /// Passive validation requires the index to have a RecordFetcher.
  Identifier(simnet::World& world, const scan::ShardedBannerIndex& index,
             fingerprint::Engine engine, geo::GeoDatabase geo,
             geo::AsnDatabase whois, IdentifierConfig config = {});

  /// The Shodan keywords the paper lists per product (Table 2).
  [[nodiscard]] static std::vector<std::string> shodanKeywords(
      filters::ProductKind product);

  /// Identify validated installations of one product (active mode: each
  /// keyword candidate is re-probed, WhatWeb-style).
  [[nodiscard]] std::vector<Installation> identify(
      filters::ProductKind product) const;

  /// Passive mode: validate candidates against their *stored* banners only
  /// — no live probes. This is how an exported scan dump (e.g. a Shodan
  /// data set or the Internet Census archive) is analyzed offline. Slightly
  /// weaker than active mode when banners were truncated.
  [[nodiscard]] std::vector<Installation> identifyPassive(
      filters::ProductKind product) const;

  [[nodiscard]] std::map<filters::ProductKind, std::vector<Installation>>
  identifyAllPassive() const;

  /// All four products (Table 1 order).
  [[nodiscard]] std::map<filters::ProductKind, std::vector<Installation>>
  identifyAll() const;

  /// Cross-run cache of active-validation results, keyed by candidate
  /// surface (ip, port). Sound because active validation is a pure function
  /// of the surface's current content: an entry may be reused at a later run
  /// if and only if the caller proves (via the epoch) that the surface
  /// content is unchanged since the entry was stored. The longitudinal
  /// monitor derives epochs from its deterministic churn feed.
  class ValidationCache {
   public:
    struct Entry {
      std::uint64_t epoch = 0;
      std::vector<fingerprint::Match> matches;
    };

    [[nodiscard]] const Entry* find(net::Ipv4Addr ip,
                                    std::uint16_t port) const {
      const auto it = entries_.find(key(ip, port));
      return it == entries_.end() ? nullptr : &it->second;
    }
    void store(net::Ipv4Addr ip, std::uint16_t port, std::uint64_t epoch,
               std::vector<fingerprint::Match> matches) {
      entries_[key(ip, port)] = Entry{epoch, std::move(matches)};
    }
    void clear() { entries_.clear(); }
    [[nodiscard]] std::size_t size() const { return entries_.size(); }
    [[nodiscard]] std::uint64_t hits() const { return hits_; }
    [[nodiscard]] std::uint64_t misses() const { return misses_; }
    void tallyHit() { ++hits_; }
    void tallyMiss() { ++misses_; }

   private:
    static std::uint64_t key(net::Ipv4Addr ip, std::uint16_t port) {
      return (std::uint64_t{ip.value()} << 16) | port;
    }
    std::unordered_map<std::uint64_t, Entry> entries_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
  };

  /// The surface-content epoch a cache entry is validated against: any
  /// monotone value that changes whenever the surface at (ip, port) may have
  /// changed content.
  using SurfaceEpochFn =
      std::function<std::uint64_t(net::Ipv4Addr, std::uint16_t)>;

  /// identifyAll with validation results cached across runs: candidates
  /// whose cache entry carries the current surface epoch reuse their stored
  /// matches; the rest are validated (in the same chunked parallel wave as
  /// identifyAll — byte-identical output at any thread count) and stored.
  /// Selection and geolocation run exactly as in identifyAll, so the output
  /// is identical to a fresh identifyAll whenever the epoch function is
  /// truthful.
  [[nodiscard]] std::map<filters::ProductKind, std::vector<Installation>>
  identifyAllCached(ValidationCache& cache,
                    const SurfaceEpochFn& surfaceEpoch) const;

  /// Figure 1 data: product -> set of countries with >= 1 installation.
  [[nodiscard]] static std::map<filters::ProductKind, std::set<std::string>>
  countriesByProduct(
      const std::map<filters::ProductKind, std::vector<Installation>>& all);

  /// Candidate doc ids located by keyword search (before validation), in
  /// first-match order — exposed so precision/recall of the validation step
  /// can be evaluated.
  [[nodiscard]] std::vector<std::uint32_t> locateCandidates(
      filters::ProductKind product) const;

 private:
  enum class ValidationMode { kActive, kPassive };

  /// One validation wave over every product's candidate list: results for
  /// each validated job, and per (product, candidate) the slot holding its
  /// verdict (the fast path maps duplicate candidates to one slot).
  struct ValidationWave {
    std::vector<std::vector<fingerprint::Match>> results;
    std::vector<std::vector<std::size_t>> slot;
  };

  [[nodiscard]] std::vector<scan::Query> productQueries(
      filters::ProductKind product) const;
  /// Reference validation: the allocating entry points, one candidate.
  void validateReference(std::uint32_t doc, ValidationMode mode,
                         std::vector<fingerprint::Match>& out) const;
  /// Allocation-lean validation through reused scratch buffers; results are
  /// identical to validateReference.
  void validateLean(std::uint32_t doc, ValidationMode mode,
                    fingerprint::EvalScratch& scratch,
                    std::vector<fingerprint::Match>& out) const;

  [[nodiscard]] ValidationWave validateWave(
      const std::vector<std::vector<std::uint32_t>>& perProduct,
      ValidationMode mode) const;

  [[nodiscard]] std::vector<Installation> identifyWith(
      filters::ProductKind product, ValidationMode mode) const;
  [[nodiscard]] std::map<filters::ProductKind, std::vector<Installation>>
  identifyAllWith(ValidationMode mode) const;

  /// The sequential selection pass shared by all identify flavours; matches
  /// for candidates[i] live in results[slot[i]].
  [[nodiscard]] std::vector<Installation> selectInstallations(
      filters::ProductKind product,
      const std::vector<std::uint32_t>& candidates,
      const std::vector<std::vector<fingerprint::Match>>& results,
      const std::vector<std::size_t>& slot) const;

  simnet::World* world_;
  const scan::ShardedBannerIndex* index_;
  fingerprint::Engine engine_;
  geo::GeoDatabase geo_;
  geo::AsnDatabase whois_;
  IdentifierConfig config_;
};

}  // namespace urlf::core

#endif  // URLF_CORE_IDENTIFIER_H
