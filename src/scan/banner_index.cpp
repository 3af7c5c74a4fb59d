#include "scan/banner_index.h"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "http/html.h"
#include "simnet/world_stream.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace urlf::scan {

void probeEndpointInto(simnet::HttpEndpoint& endpoint, net::Ipv4Addr ip,
                       std::uint16_t port, const geo::GeoDatabase& geo,
                       util::SimTime now, std::size_t bodySnippetLimit,
                       BannerRecord& out) {
  net::Url url{"http", ip.toString(), port, "/", ""};
  auto response = endpoint.handle(http::Request::get(url), now);

  out.ip = ip;
  out.port = port;
  out.statusCode = response.statusCode;
  out.headers = std::move(response.headers);
  out.title = http::extractTitle(response.body);
  if (response.body.size() > bodySnippetLimit)
    response.body.resize(bodySnippetLimit);
  out.body = std::move(response.body);
  out.countryAlpha2 = geo.lookup(ip).value_or("");
  out.observedAt = now;
}

namespace {

void mergeSortedUnique(std::vector<std::uint32_t>& ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

std::vector<std::uint32_t> intersectSorted(
    const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b) {
  std::vector<std::uint32_t> out;
  out.reserve(std::min(a.size(), b.size()));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// Probe one streamed host into `out` (the host function is pure, so this
/// is also the re-probe a fetch performs).
void probeStreamedInto(const simnet::WorldStream& stream, std::uint64_t id,
                       const geo::GeoDatabase& geo, util::SimTime now,
                       std::size_t bodySnippetLimit, BannerRecord& out) {
  const auto host = stream.host(id);
  const auto server = simnet::WorldStream::materializeEndpoint(host);
  probeEndpointInto(*server, host.ip, host.port, geo, now, bodySnippetLimit,
                    out);
}

}  // namespace

void BannerRecord::appendSearchableText(std::string& out) const {
  out += "HTTP/1.1 ";
  out += std::to_string(statusCode);
  out += "\r\n";
  out += headers.serialize();
  out += title;
  out += "\r\n";
  out += body;
}

std::string BannerRecord::searchableText() const {
  std::string text;
  appendSearchableText(text);
  return text;
}

ShardParts indexShard(std::string label, std::uint32_t docBase,
                      std::span<const BannerRecord> records) {
  // Ids are appended in ascending order, so every posting list and country
  // bucket stays sorted and unique without a final sort pass; the two
  // staging strings are reused across records.
  ShardParts parts;
  parts.ips.reserve(records.size());
  parts.ports.reserve(records.size());
  PostingShard::Builder builder(std::move(label), docBase);
  std::string text;
  std::string lowered;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& record = records[i];
    text.clear();
    record.appendSearchableText(text);
    util::toLowerInto(text, lowered);
    builder.addDocument(lowered);
    parts.ips.push_back(record.ip.value());
    parts.ports.push_back(record.port);
    parts.countryDocs[util::toUpper(record.countryAlpha2)].push_back(
        docBase + static_cast<std::uint32_t>(i));
  }
  parts.shard = std::move(builder).finish();
  return parts;
}

// --- ShardedBannerIndex -----------------------------------------------------

void ShardedBannerIndex::appendShard(const ShardParts& parts) {
  if (parts.shard.docBase() != docCount() ||
      parts.shard.docCount() != parts.ips.size() ||
      parts.ips.size() != parts.ports.size())
    throw std::logic_error("appendShard: shard does not extend the doc range");
  ips_.insert(ips_.end(), parts.ips.begin(), parts.ips.end());
  ports_.insert(ports_.end(), parts.ports.begin(), parts.ports.end());
  // Shards arrive in ascending doc order and each shard's per-country lists
  // ascend, so appends stay strictly ascending per bucket.
  for (const auto& [alpha2, docs] : parts.countryDocs) {
    auto& bucket = countryBuckets_[alpha2];
    for (const auto doc : docs) bucket.append(doc);
  }
  shards_.push_back(parts.shard);
}

ShardedBannerIndex ShardedBannerIndex::fromRecords(
    std::vector<BannerRecord> records, std::size_t shardTargetDocs) {
  if (shardTargetDocs == 0) shardTargetDocs = 1;
  auto retained = std::make_shared<const std::vector<BannerRecord>>(
      std::move(records));
  const std::span<const BannerRecord> source(*retained);
  ShardedBannerIndex out;
  out.reserveDocs(source.size());
  std::size_t begin = 0;
  do {
    const std::size_t count = std::min(source.size() - begin, shardTargetDocs);
    out.appendShard(indexShard(
        "records#" + std::to_string(begin / shardTargetDocs),
        static_cast<std::uint32_t>(begin), source.subspan(begin, count)));
    begin += count;
  } while (begin < source.size());
  out.setResidentRecords(std::move(retained));
  return out;
}

ShardedBannerIndex ShardedBannerIndex::fromParts(
    std::vector<std::uint32_t> ips, std::vector<std::uint16_t> ports,
    std::map<std::string, DeltaIdList> countryBuckets,
    std::vector<PostingShard> shards) {
  if (ips.size() != ports.size())
    throw std::invalid_argument("fromParts: ip/port table size mismatch");
  std::uint64_t running = 0;
  for (const auto& shard : shards) {
    if (shard.docBase() != running)
      throw std::invalid_argument("fromParts: shard doc ranges not contiguous");
    running += shard.docCount();
  }
  if (running != ips.size())
    throw std::invalid_argument("fromParts: shard doc count != table size");
  std::uint64_t bucketed = 0;
  for (const auto& [alpha2, bucket] : countryBuckets) bucketed += bucket.count();
  if (bucketed != ips.size())
    throw std::invalid_argument("fromParts: country buckets don't cover docs");

  ShardedBannerIndex out;
  out.ips_ = std::move(ips);
  out.ports_ = std::move(ports);
  out.countryBuckets_ = std::move(countryBuckets);
  out.shards_ = std::move(shards);
  return out;
}

BannerRecord ShardedBannerIndex::fetchRecord(std::uint32_t doc) const {
  if (resident_ != nullptr && doc < resident_->size()) return (*resident_)[doc];
  if (!fetcher_)
    throw std::logic_error(
        "ShardedBannerIndex: record fetch required but no fetcher attached "
        "(separator/no-token keywords and passive identification need one)");
  return fetcher_(doc);
}

std::vector<BannerRecord> ShardedBannerIndex::fetchAllRecords() const {
  std::vector<BannerRecord> out;
  out.reserve(docCount());
  for (std::uint32_t doc = 0; doc < docCount(); ++doc)
    out.push_back(fetchRecord(doc));
  return out;
}

void ShardedBannerIndex::lowerText(std::uint32_t doc, std::string& text,
                                   std::string& lowered) const {
  text.clear();
  if (resident_ != nullptr && doc < resident_->size())
    (*resident_)[doc].appendSearchableText(text);
  else
    fetchRecord(doc).appendSearchableText(text);
  util::toLowerInto(text, lowered);
}

std::vector<std::uint32_t> ShardedBannerIndex::decodeCountryBucket(
    const std::string& upperAlpha2) const {
  std::vector<std::uint32_t> out;
  const auto bucket = countryBuckets_.find(upperAlpha2);
  if (bucket != countryBuckets_.end()) bucket->second.decodeInto(out);
  return out;
}

std::vector<std::uint32_t> ShardedBannerIndex::keywordCandidates(
    const std::string& loweredKeyword) const {
  std::vector<std::string_view> keywordTokens;
  tokenizeAlnum(loweredKeyword, keywordTokens);

  std::vector<std::uint32_t> candidates;
  std::string text;
  std::string lowered;
  if (keywordTokens.empty()) {
    // No alphanumeric core (e.g. "=", whitespace, empty): substring-scan
    // every banner — the correctness path, not the fast path (product
    // keywords always have tokens). An empty keyword matches every document.
    for (std::uint32_t doc = 0; doc < docCount(); ++doc) {
      lowerText(doc, text, lowered);
      if (lowered.find(loweredKeyword) != std::string::npos)
        candidates.push_back(doc);
    }
    return candidates;
  }

  // Pre-filter on the keyword's longest token: any banner containing the
  // keyword must contain that token inside one of its own tokens, so the
  // union over every shard of the postings of vocabulary tokens containing
  // it is a superset of the exact match set.
  const std::string_view longest = *std::max_element(
      keywordTokens.begin(), keywordTokens.end(),
      [](std::string_view a, std::string_view b) { return a.size() < b.size(); });
  for (const auto& shard : shards_) shard.appendCandidates(longest, candidates);
  mergeSortedUnique(candidates);

  // A keyword that *is* its longest token (no separators) is exact already;
  // anything else ("cfru=", "mcafee web gateway", "8080/webadmin/") is
  // verified against the fetched banner text.
  if (loweredKeyword == longest) return candidates;
  std::vector<std::uint32_t> verified;
  verified.reserve(candidates.size());
  for (const auto doc : candidates) {
    lowerText(doc, text, lowered);
    if (lowered.find(loweredKeyword) != std::string::npos)
      verified.push_back(doc);
  }
  return verified;
}

std::vector<std::uint32_t> ShardedBannerIndex::search(
    const Query& query) const {
  std::vector<std::uint32_t> ids =
      keywordCandidates(util::toLower(query.keyword));
  if (query.countryAlpha2) {
    const auto bucket = decodeCountryBucket(util::toUpper(*query.countryAlpha2));
    ids = intersectSorted(ids, bucket);
  }
  return ids;
}

std::vector<std::uint32_t> ShardedBannerIndex::searchAll(
    const std::vector<Query>& queries) const {
  // The §3.1 fan-out repeats the same few keywords across every country
  // facet; resolve each distinct keyword once, in parallel.
  std::vector<std::string> keywords;
  std::unordered_map<std::string, std::size_t> keywordSlot;
  std::vector<std::size_t> querySlot(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const std::string lowered = util::toLower(queries[q].keyword);
    const auto [it, inserted] = keywordSlot.emplace(lowered, keywords.size());
    if (inserted) keywords.push_back(lowered);
    querySlot[q] = it->second;
  }

  std::vector<std::vector<std::uint32_t>> perKeyword(keywords.size());
  util::parallelFor(keywords.size(), [&](std::size_t k) {
    perKeyword[k] = keywordCandidates(keywords[k]);
  });

  // Decode each referenced country bucket once per searchAll, not once per
  // (keyword, country) combination.
  std::map<std::string, std::vector<std::uint32_t>> decoded;
  for (const auto& query : queries) {
    if (!query.countryAlpha2) continue;
    auto key = util::toUpper(*query.countryAlpha2);
    if (!decoded.contains(key)) {
      auto bucket = decodeCountryBucket(key);
      decoded.emplace(std::move(key), std::move(bucket));
    }
  }

  std::vector<std::uint32_t> out;
  std::set<std::uint64_t> seen;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const std::vector<std::uint32_t>* ids = &perKeyword[querySlot[q]];
    std::vector<std::uint32_t> restricted;
    if (queries[q].countryAlpha2) {
      restricted =
          intersectSorted(*ids, decoded.at(util::toUpper(*queries[q].countryAlpha2)));
      ids = &restricted;
    }
    for (const auto doc : *ids) {
      const auto s = surface(doc);
      const std::uint64_t key = (std::uint64_t{s.ip.value()} << 16) | s.port;
      if (seen.insert(key).second) out.push_back(doc);
    }
  }
  return out;
}

std::size_t ShardedBannerIndex::vocabularySize() const {
  std::size_t count = 0;
  forEachDistinctToken(
      shards_,
      [&count](std::string_view,
               std::span<const std::pair<std::uint32_t, std::uint32_t>>) {
        ++count;
      });
  return count;
}

std::size_t ShardedBannerIndex::memoryBytes() const {
  std::size_t total = ips_.capacity() * sizeof(std::uint32_t) +
                      ports_.capacity() * sizeof(std::uint16_t);
  for (const auto& shard : shards_) total += shard.memoryBytes();
  for (const auto& [alpha2, bucket] : countryBuckets_)
    total += alpha2.size() + bucket.byteSize() + sizeof(DeltaIdList);
  return total;
}

// --- crawling ---------------------------------------------------------------

std::vector<BannerRecord> probeDocs(
    const simnet::World& world,
    const std::vector<simnet::Surface>& surfaces,
    const geo::GeoDatabase& geo, std::uint64_t begin, std::uint64_t end,
    const StreamCrawlOptions& options) {
  const auto now = world.now();
  const auto* stream = world.hostStream();
  const std::uint64_t eagerCount = surfaces.size();
  if (end > eagerCount && stream == nullptr)
    throw std::logic_error("probeDocs: streamed docs but no host stream");
  std::vector<BannerRecord> batch(static_cast<std::size_t>(end - begin));
  util::parallelForChunks(
      batch.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const std::uint64_t doc = begin + i;
          if (doc < eagerCount) {
            const auto& surface = surfaces[doc];
            probeEndpointInto(*surface.endpoint, surface.ip, surface.port, geo,
                              now, options.bodySnippetLimit, batch[i]);
          } else {
            probeStreamedInto(*stream, doc - eagerCount, geo, now,
                              options.bodySnippetLimit, batch[i]);
          }
        }
      },
      options.threadLimit, 64);
  return batch;
}

ShardedBannerIndex::RecordFetcher streamFetcher(const simnet::World& world,
                                                const geo::GeoDatabase& geo,
                                                std::uint32_t eagerCount,
                                                std::size_t bodySnippetLimit) {
  return [&world, &geo, eagerCount, now = world.now(),
          bodySnippetLimit](std::uint32_t doc) {
    const auto* stream = world.hostStream();
    if (stream == nullptr || doc < eagerCount)
      throw std::logic_error("stream fetcher: no streamed doc " +
                             std::to_string(doc));
    BannerRecord record;
    probeStreamedInto(*stream, doc - eagerCount, geo, now, bodySnippetLimit,
                      record);
    return record;
  };
}

ShardedBannerIndex crawlStream(simnet::World& world,
                               const geo::GeoDatabase& geo,
                               StreamCrawlOptions options) {
  const auto surfaces = world.externalSurfaces();
  const auto eagerCount = static_cast<std::uint32_t>(surfaces.size());

  // Eagerly bound surfaces lead, in binding order; their records stay
  // resident as those docs' fetch source.
  ShardedBannerIndex index;
  auto eager = std::make_shared<const std::vector<BannerRecord>>(
      probeDocs(world, surfaces, geo, 0, eagerCount, options));
  index.appendShard(indexShard("eager/bindings", 0, *eager));

  // Stream shards: materialize, probe, index, discard — peak memory is one
  // shard's worth of banners, never the whole world.
  if (const auto* stream = world.hostStream()) {
    const auto shards = stream->shards(options.hostsPerShard == 0
                                           ? std::uint64_t{8192}
                                           : options.hostsPerShard);
    if (!shards.empty()) index.reserveDocs(eagerCount + shards.back().end);
    for (const auto& shard : shards) {
      const auto batch = probeDocs(world, surfaces, geo,
                                   eagerCount + shard.begin,
                                   eagerCount + shard.end, options);
      index.appendShard(indexShard(
          shard.label, eagerCount + static_cast<std::uint32_t>(shard.begin),
          batch));
    }
  }

  index.setResidentRecords(std::move(eager));
  index.setRecordFetcher(
      streamFetcher(world, geo, eagerCount, options.bodySnippetLimit));
  return index;
}

std::vector<BannerRecord> CensusScanner::sweep(
    simnet::World& world, const geo::GeoDatabase& geo,
    std::uint64_t maxAddressesPerPrefix) const {
  std::vector<BannerRecord> out;
  for (const auto* as : world.allAses()) {
    for (const auto& prefix : as->prefixes()) {
      const std::uint64_t count = std::min(prefix.size(), maxAddressesPerPrefix);
      for (std::uint64_t i = 0; i < count; ++i) {
        const auto ip = prefix.addressAt(i);
        for (const auto port : ports_) {
          auto* endpoint = world.externalEndpointAt(ip, port);
          if (endpoint == nullptr) continue;
          probeEndpointInto(*endpoint, ip, port, geo, world.now(), 2048,
                            out.emplace_back());
        }
      }
    }
  }
  return out;
}

}  // namespace urlf::scan
