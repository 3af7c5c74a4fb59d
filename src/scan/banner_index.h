#ifndef URLF_SCAN_BANNER_INDEX_H
#define URLF_SCAN_BANNER_INDEX_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "geo/geodb.h"
#include "http/header_map.h"
#include "net/ipv4.h"
#include "scan/postings.h"
#include "simnet/world.h"
#include "util/clock.h"

namespace urlf::scan {

/// One indexed banner: what a Shodan-style crawler recorded when it probed
/// an (ip, port) — status line, headers, a body snippet, and location
/// metadata from the crawler's geolocation database.
struct BannerRecord {
  net::Ipv4Addr ip;
  std::uint16_t port = 80;
  int statusCode = 0;
  http::HeaderMap headers;
  std::string body;           ///< truncated body snippet
  std::string title;          ///< extracted HTML title
  std::string countryAlpha2;  ///< crawler-side geolocation (may be wrong)
  util::SimTime observedAt;

  /// The searchable text: status line + raw headers + title + body.
  [[nodiscard]] std::string searchableText() const;

  /// Append the searchable text to `out` without clearing it.
  void appendSearchableText(std::string& out) const;
};

/// A Shodan-style query: a keyword plus an optional country facet. The
/// paper's method searches each product keyword combined with every
/// two-letter ccTLD / country to maximize coverage (§3.1).
struct Query {
  std::string keyword;
  std::optional<std::string> countryAlpha2;
};

/// One shard's worth of index structures over a contiguous doc range: the
/// posting shard, the per-doc surface tables, and the shard's slice of the
/// country buckets. ShardedBannerIndex is the concatenation of these.
struct ShardParts {
  PostingShard shard;
  std::vector<std::uint32_t> ips;
  std::vector<std::uint16_t> ports;
  /// UPPERCASED alpha2 -> global doc ids (ascending).
  std::map<std::string, std::vector<std::uint32_t>> countryDocs;
};

/// Index `records` as docs [docBase, docBase + records.size()) of one
/// shard. Every index build (fromRecords, crawlStream, IncrementalCrawler
/// cells) goes through this one loop.
[[nodiscard]] ShardParts indexShard(std::string label, std::uint32_t docBase,
                                    std::span<const BannerRecord> records);

/// The banner search engine (the Shodan stand-in [27]): country/prefix
/// shards of compressed posting lists over an interned vocabulary
/// (scan::PostingShard), plus per-document (ip, port) tables and
/// delta-coded country buckets. A campaign-sized world is a one-shard index;
/// a million-host stream is one shard per stream shard.
///
/// Documents are identified by dense uint32 doc ids in insertion order. The
/// postings hold no banner text; queries that need it (separator keywords,
/// keywords with no alphanumeric token, passive identification) read
/// records back: records a build kept resident (fromRecords, a crawl's
/// eagerly bound surfaces) as stored, streamed hosts re-probed from the pure
/// host function through the attached RecordFetcher — either way
/// byte-identical to what the crawl indexed.
///
/// Keyword search is case-insensitive substring matching over the banner
/// text. A keyword that is a single alphanumeric token resolves through the
/// posting lists (every vocabulary token containing it contributes, so
/// matches inside longer tokens are kept); a keyword with separators uses
/// its longest token as a pre-filter and is verified against the fetched
/// text; a keyword with no token at all scans every fetched record. The
/// linear oracle in scan/reference_search.h defines the expected results.
class ShardedBannerIndex {
 public:
  /// Re-materialize one document's full banner record.
  using RecordFetcher = std::function<BannerRecord(std::uint32_t)>;

  ShardedBannerIndex() = default;
  ShardedBannerIndex(ShardedBannerIndex&&) = default;
  ShardedBannerIndex& operator=(ShardedBannerIndex&&) = default;
  ShardedBannerIndex(const ShardedBannerIndex&) = delete;
  ShardedBannerIndex& operator=(const ShardedBannerIndex&) = delete;

  /// Append one shard; its doc range must start at docCount(). Empty shards
  /// are kept — they serialize and query as no-ops.
  void appendShard(const ShardParts& parts);
  /// Size the per-doc tables for `docs` documents up front.
  void reserveDocs(std::size_t docs) {
    ips_.reserve(docs);
    ports_.reserve(docs);
  }

  /// Build from owned records, chunked at `shardTargetDocs` (retained
  /// internally as the fetch source; e.g. a CensusScanner sweep or an
  /// imported dump).
  [[nodiscard]] static ShardedBannerIndex fromRecords(
      std::vector<BannerRecord> records, std::size_t shardTargetDocs = 8192);

  /// Reassemble from serialized parts (see scan/serialize.h). Throws
  /// std::invalid_argument when the parts are inconsistent.
  [[nodiscard]] static ShardedBannerIndex fromParts(
      std::vector<std::uint32_t> ips, std::vector<std::uint16_t> ports,
      std::map<std::string, DeltaIdList> countryBuckets,
      std::vector<PostingShard> shards);

  /// Fetch source of docs past the resident records (see fetchRecord).
  void setRecordFetcher(RecordFetcher fetcher) { fetcher_ = std::move(fetcher); }
  /// Keep `records` as the fetch source of docs [0, records->size()).
  void setResidentRecords(
      std::shared_ptr<const std::vector<BannerRecord>> records) {
    resident_ = std::move(records);
  }
  [[nodiscard]] bool hasRecordFetcher() const {
    return resident_ != nullptr || fetcher_ != nullptr;
  }
  /// Fetch one document's record: resident records as stored, later docs
  /// through the fetcher. Throws std::logic_error when neither covers `doc`.
  [[nodiscard]] BannerRecord fetchRecord(std::uint32_t doc) const;
  /// Every document's record, in doc order (a scan dump).
  [[nodiscard]] std::vector<BannerRecord> fetchAllRecords() const;

  // --- queries ------------------------------------------------------------

  struct DocSurface {
    net::Ipv4Addr ip;
    std::uint16_t port = 80;
  };
  [[nodiscard]] DocSurface surface(std::uint32_t doc) const {
    return {net::Ipv4Addr{ips_[doc]}, ports_[doc]};
  }

  /// Doc ids matching the query, ascending.
  [[nodiscard]] std::vector<std::uint32_t> search(const Query& query) const;

  /// Union across queries, de-duplicated by (ip, port), ordered by first
  /// match (query order, then doc order). Distinct keywords resolve once,
  /// in parallel on the shared pool; country buckets decode once per
  /// searchAll; the merge is sequential, so output is identical at any
  /// thread count.
  [[nodiscard]] std::vector<std::uint32_t> searchAll(
      const std::vector<Query>& queries) const;

  [[nodiscard]] std::uint32_t docCount() const {
    return static_cast<std::uint32_t>(ips_.size());
  }
  [[nodiscard]] std::size_t shardCount() const { return shards_.size(); }
  [[nodiscard]] const std::vector<PostingShard>& shards() const {
    return shards_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& ips() const { return ips_; }
  [[nodiscard]] const std::vector<std::uint16_t>& ports() const {
    return ports_;
  }
  [[nodiscard]] const std::map<std::string, DeltaIdList>& countryBuckets()
      const {
    return countryBuckets_;
  }

  /// Distinct tokens across all shards (k-way merged, so shared vocabulary
  /// is counted once).
  [[nodiscard]] std::size_t vocabularySize() const;

  /// Approximate resident footprint of the index structures, in bytes.
  [[nodiscard]] std::size_t memoryBytes() const;

 private:
  [[nodiscard]] std::vector<std::uint32_t> keywordCandidates(
      const std::string& loweredKeyword) const;
  [[nodiscard]] std::vector<std::uint32_t> decodeCountryBucket(
      const std::string& upperAlpha2) const;
  /// The lowered banner text of `doc` into `lowered` (`text` is staging);
  /// resident records are read in place, others fetched.
  void lowerText(std::uint32_t doc, std::string& text,
                 std::string& lowered) const;

  std::vector<PostingShard> shards_;
  std::vector<std::uint32_t> ips_;
  std::vector<std::uint16_t> ports_;
  /// UPPERCASED alpha2 -> delta-coded doc ids (std::map: deterministic
  /// serialization order).
  std::map<std::string, DeltaIdList> countryBuckets_;
  std::shared_ptr<const std::vector<BannerRecord>> resident_;
  RecordFetcher fetcher_;
};

/// Probe one reachable endpoint the way a banner crawler does: a plain GET /
/// addressed to the bare IP, into a reused record (response storage is
/// moved, not copied; the title is extracted from the full body before the
/// body is truncated). This is the single probe primitive every crawl
/// flavour (eager, streamed, incremental, census) shares, so their records
/// are field-for-field identical for the same endpoint state.
void probeEndpointInto(simnet::HttpEndpoint& endpoint, net::Ipv4Addr ip,
                       std::uint16_t port, const geo::GeoDatabase& geo,
                       util::SimTime now, std::size_t bodySnippetLimit,
                       BannerRecord& out);

/// Options for crawlStream and IncrementalCrawler.
struct StreamCrawlOptions {
  std::size_t bodySnippetLimit = 2048;
  std::size_t threadLimit = 0;     ///< 1 probes on the calling thread
  std::uint64_t hostsPerShard = 8192;  ///< stream shard granularity
};

/// Probe docs [begin, end) of a world's crawl order — eagerly bound
/// `surfaces` first (doc = binding index), then the attached stream's hosts
/// (doc = surfaces.size() + host id) — on the shared pool, each probe
/// writing only its own slot, so the batch is identical at any thread
/// count.
[[nodiscard]] std::vector<BannerRecord> probeDocs(
    const simnet::World& world, const std::vector<simnet::Surface>& surfaces,
    const geo::GeoDatabase& geo, std::uint64_t begin, std::uint64_t end,
    const StreamCrawlOptions& options);

/// The fetcher of a crawled index for its streamed docs (doc = eagerCount +
/// host id): a re-materialization of the pure host function, byte-identical
/// to what the crawl indexed. Captures `world` and `geo` by reference; both
/// must outlive every index that holds it.
[[nodiscard]] ShardedBannerIndex::RecordFetcher streamFetcher(
    const simnet::World& world, const geo::GeoDatabase& geo,
    std::uint32_t eagerCount, std::size_t bodySnippetLimit);

/// Crawl every externally visible surface of a world — the same epistemic
/// position as a real Internet-wide scanner — within O(shard) memory:
/// eagerly bound surfaces form the leading shard (binding order), then each
/// shard of an attached host stream is materialized, probed, indexed, and
/// discarded. A world without a stream is a one-shard build. Doc order
/// equals the binding order of the eager reference world
/// (WorldStream::materializeInto), so a streamed crawl and a crawl of that
/// world index the same banners under the same doc ids.
///
/// External-surface handlers must be thread-safe for the crawler's anonymous
/// `GET /` (all in-tree handlers are pure functions of the request). The
/// eager records stay resident as those docs' fetch source; streamed docs
/// fetch through streamFetcher, so `world` and `geo` must outlive the index.
[[nodiscard]] ShardedBannerIndex crawlStream(simnet::World& world,
                                             const geo::GeoDatabase& geo,
                                             StreamCrawlOptions options = {});

/// Internet Census-style exhaustive scanner [10]: probes *every address* in
/// every announced prefix on a port list, not just known-visible surfaces.
/// Finds the same surfaces as crawlStream but demonstrates the
/// larger-scale approach §3.1 mentions as ongoing work.
class CensusScanner {
 public:
  explicit CensusScanner(std::vector<std::uint16_t> ports)
      : ports_(std::move(ports)) {}

  /// Sweep the world's announced address space. Returns records for every
  /// (address, port) that answered. `maxAddressesPerPrefix` caps very large
  /// prefixes to keep sweeps bounded.
  [[nodiscard]] std::vector<BannerRecord> sweep(
      simnet::World& world, const geo::GeoDatabase& geo,
      std::uint64_t maxAddressesPerPrefix = 4096) const;

 private:
  std::vector<std::uint16_t> ports_;
};

}  // namespace urlf::scan

#endif  // URLF_SCAN_BANNER_INDEX_H
