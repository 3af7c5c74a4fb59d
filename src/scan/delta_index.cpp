#include "scan/delta_index.h"

#include <utility>

#include "simnet/world_stream.h"
#include "util/hash.h"

namespace urlf::scan {

IncrementalCrawler::IncrementalCrawler(simnet::World& world,
                                       const geo::GeoDatabase& geo,
                                       StreamCrawlOptions options)
    : world_(&world), geo_(&geo), options_(options) {
  if (options_.hostsPerShard == 0) options_.hostsPerShard = 8192;
}

std::uint64_t IncrementalCrawler::layoutSignature() const {
  std::uint64_t sig = util::kFnvOffsetBasis;
  const auto fold = [&sig](std::uint64_t value) {
    char bytes[8];
    for (int i = 0; i < 8; ++i)
      bytes[i] = static_cast<char>((value >> (i * 8)) & 0xFF);
    sig = util::fnv1a64(std::string_view(bytes, 8), sig);
  };
  for (const auto& surface : world_->externalSurfaces()) {
    fold(surface.ip.value());
    fold(surface.port);
  }
  fold(0xEA6E55ECU);  // eager/stream separator
  if (const auto* stream = world_->hostStream()) {
    for (const auto& shard : stream->shards(options_.hostsPerShard)) {
      sig = util::fnv1a64(shard.label, sig);
      fold(shard.begin);
      fold(shard.end);
    }
  }
  return sig;
}

void IncrementalCrawler::rebuildLayout() {
  cells_.clear();
  const std::uint64_t eagerCount = world_->externalSurfaces().size();
  cells_.push_back({0, eagerCount, "eager/bindings", {}});
  if (const auto* stream = world_->hostStream()) {
    for (const auto& shard : stream->shards(options_.hostsPerShard))
      cells_.push_back(
          {eagerCount + shard.begin, eagerCount + shard.end, shard.label, {}});
  }
}

void IncrementalCrawler::rebuildCell(
    Cell& cell, const std::vector<simnet::Surface>& surfaces) {
  auto batch =
      probeDocs(*world_, surfaces, *geo_, cell.begin, cell.end, options_);
  cell.parts =
      indexShard(cell.label, static_cast<std::uint32_t>(cell.begin), batch);
  if (cell.begin == 0)
    eager_ = std::make_shared<const std::vector<BannerRecord>>(std::move(batch));
}

void IncrementalCrawler::refresh(const DirtyHostFn& dirtyHost) {
  const auto signature = layoutSignature();
  structural_ = !built_ || signature != signature_;
  signature_ = signature;

  if (structural_) rebuildLayout();

  const auto surfaces = world_->externalSurfaces();
  const std::uint64_t eagerCount = surfaces.size();
  std::vector<std::size_t> toRebuild;
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    if (structural_ || c == 0) {
      // Cell 0 is the eager cell: bound surfaces answer live policy/binding
      // state the change feed cannot see, so it rebuilds every refresh. A
      // layout change rebuilds everything — stale doc bases are never kept.
      toRebuild.push_back(c);
      continue;
    }
    const auto& cell = cells_[c];
    bool dirty = false;
    if (dirtyHost) {
      for (std::uint64_t doc = cell.begin; doc < cell.end && !dirty; ++doc)
        dirty = dirtyHost(doc - eagerCount);
    }
    if (dirty) toRebuild.push_back(c);
  }

  for (const auto c : toRebuild) rebuildCell(cells_[c], surfaces);

  cellsRebuilt_ = toRebuild.size();
  built_ = true;
}

ShardedBannerIndex IncrementalCrawler::assemble() const {
  ShardedBannerIndex index;
  index.reserveDocs(cells_.empty() ? 0 : cells_.back().end);
  for (const auto& cell : cells_) index.appendShard(cell.parts);
  index.setResidentRecords(eager_);
  index.setRecordFetcher(streamFetcher(
      *world_, *geo_, static_cast<std::uint32_t>(eager_->size()),
      options_.bodySnippetLimit));
  return index;
}

}  // namespace urlf::scan
