#ifndef URLF_SCAN_DELTA_INDEX_H
#define URLF_SCAN_DELTA_INDEX_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "scan/banner_index.h"

namespace urlf::scan {

/// Delta-driven re-crawl: keeps one cell (ShardParts) per crawlStream shard
/// (the eager-bindings cell plus one cell per stream shard) and rebuilds
/// only the cells a change feed marks dirty, then reassembles a
/// ShardedBannerIndex from the cells. Cells are probed, indexed and fetched
/// through crawlStream's own probeDocs, indexShard and streamFetcher.
///
/// Equivalence contract (enforced by tests/monitor_incremental_property_test
/// and the monitor bench): after refresh(dirty) the assembled index is
/// semantically identical to a fresh crawlStream of the same world — same
/// doc-id layout (cells replicate crawlStream's shard order exactly), same
/// postings per cell, same country buckets, same fetch sources (eager docs
/// answer from the last eager-cell probe). That holds because
///   * the cell layout is pinned by a structural signature (the eager
///     surface list and the stream shard table); any layout change — a new
///     binding, an unbind, an attached/detached stream — forces a full
///     rebuild that tick, so doc ids baked into clean cells can never be
///     stale, and
///   * a clean cell's hosts are content-pure between rebuilds (the
///     WorldStream contract plus the churn feed's exactness), so re-probing
///     them would reproduce byte-identical records.
///
/// Each rebuild probes on the shared pool (output is byte-identical at any
/// thread count). Quiet ticks rebuild only the eager cell — bound surfaces
/// answer live policy state, which the feed cannot see — so per-tick cost is
/// O(bound surfaces + dirty hosts), not O(world).
class IncrementalCrawler {
 public:
  /// The change feed: true when the stream host's content may have changed
  /// since the previous refresh.
  using DirtyHostFn = std::function<bool(std::uint64_t)>;

  /// `world` and `geo` are captured by reference and must outlive the
  /// crawler and every index it assembles.
  IncrementalCrawler(simnet::World& world, const geo::GeoDatabase& geo,
                     StreamCrawlOptions options = {});

  /// Bring the cells up to date with the world: rebuild the eager cell,
  /// every cell containing a dirty host, and — on a structural change —
  /// everything. First call always builds everything.
  void refresh(const DirtyHostFn& dirtyHost);

  /// Assemble the current cells into a queryable index with crawlStream's
  /// fetch sources.
  [[nodiscard]] ShardedBannerIndex assemble() const;

  /// Diagnostics for the last refresh.
  [[nodiscard]] std::size_t cellsRebuilt() const { return cellsRebuilt_; }
  [[nodiscard]] std::size_t cellCount() const { return cells_.size(); }
  [[nodiscard]] bool lastRefreshStructural() const { return structural_; }

 private:
  struct Cell {
    /// Doc range [begin, end) in crawl order (eager surfaces, then stream
    /// hosts offset by the eager count).
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::string label;
    ShardParts parts;
  };

  [[nodiscard]] std::uint64_t layoutSignature() const;
  void rebuildLayout();
  void rebuildCell(Cell& cell, const std::vector<simnet::Surface>& surfaces);

  simnet::World* world_;
  const geo::GeoDatabase* geo_;
  StreamCrawlOptions options_;
  std::vector<Cell> cells_;
  /// The eager cell's records: the fetch source of eager docs.
  std::shared_ptr<const std::vector<BannerRecord>> eager_ =
      std::make_shared<const std::vector<BannerRecord>>();
  std::uint64_t signature_ = 0;
  bool built_ = false;
  std::size_t cellsRebuilt_ = 0;
  bool structural_ = false;
};

}  // namespace urlf::scan

#endif  // URLF_SCAN_DELTA_INDEX_H
