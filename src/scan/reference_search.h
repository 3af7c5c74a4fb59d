#ifndef URLF_SCAN_REFERENCE_SEARCH_H
#define URLF_SCAN_REFERENCE_SEARCH_H

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "scan/banner_index.h"
#include "util/strings.h"

namespace urlf::scan {

/// The linear-scan oracle for ShardedBannerIndex::search and searchAll,
/// over the same records in doc order: every query's matches are the
/// records whose lowercased searchable text contains the lowercased keyword
/// (restricted to the country facet, case-insensitively), in record order.
/// With `dedupe`, results are the union across queries de-duplicated by
/// (ip, port) in first-match order — searchAll semantics; without it they
/// are the plain concatenation — for a single query, search semantics.
///
/// The obviously-correct definition of the index's query semantics, kept
/// for the property tests and the scan benchmark. Not used on any
/// production path.
[[nodiscard]] inline std::vector<std::uint32_t> referenceSearch(
    const std::vector<BannerRecord>& records, const std::vector<Query>& queries,
    bool dedupe = true) {
  std::vector<std::string> lowered;
  lowered.reserve(records.size());
  for (const auto& record : records)
    lowered.push_back(util::toLower(record.searchableText()));

  std::vector<std::uint32_t> out;
  std::set<std::uint64_t> seen;
  for (const auto& query : queries) {
    const std::string keyword = util::toLower(query.keyword);
    for (std::uint32_t doc = 0; doc < records.size(); ++doc) {
      const auto& record = records[doc];
      if (query.countryAlpha2 &&
          !util::iequals(record.countryAlpha2, *query.countryAlpha2))
        continue;
      if (lowered[doc].find(keyword) == std::string::npos) continue;
      const std::uint64_t key =
          (std::uint64_t{record.ip.value()} << 16) | record.port;
      if (!dedupe || seen.insert(key).second) out.push_back(doc);
    }
  }
  return out;
}

}  // namespace urlf::scan

#endif  // URLF_SCAN_REFERENCE_SEARCH_H
