#ifndef URLF_SCAN_POSTINGS_H
#define URLF_SCAN_POSTINGS_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace urlf::scan {

/// Transparent string hasher: lets unordered maps keyed by std::string be
/// probed with a string_view, so hot indexing loops only materialize a key
/// string on first sight of a token.
struct TokenHash {
  using is_transparent = void;
  [[nodiscard]] std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

// --- varint codec -----------------------------------------------------------

/// LEB128-style little-endian base-128 varint append (7 payload bits per
/// byte, high bit = continuation). The codec behind every compressed id
/// stream in the sharded index.
void appendVarint(std::vector<std::uint8_t>& out, std::uint64_t value);

/// Decode one varint at `pos`; advances `pos` past it. Returns false on
/// truncated or overlong (> 10 byte) input, leaving `pos` unspecified.
[[nodiscard]] bool readVarint(std::span<const std::uint8_t> data,
                              std::size_t& pos, std::uint64_t& value);

// --- delta-coded id lists ---------------------------------------------------

/// A strictly ascending uint32 id list stored as varint deltas: the first id
/// verbatim, every subsequent id as (id - previous). Ascending ids make
/// every delta >= 1, so a dense list costs ~1 byte per id instead of 4 — the
/// compact posting-list and country-bucket representation.
class DeltaIdList {
 public:
  DeltaIdList() = default;

  /// Append `id`; must be strictly greater than the last appended id.
  void append(std::uint32_t id);

  /// Append the decoded ids to `out` (does not clear it).
  void decodeInto(std::vector<std::uint32_t>& out) const;

  [[nodiscard]] std::uint32_t count() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  /// The last appended id; meaningful only when !empty().
  [[nodiscard]] std::uint32_t lastId() const { return last_; }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return bytes_;
  }
  [[nodiscard]] std::size_t byteSize() const { return bytes_.size(); }

  /// Reconstruct from serialized parts (import path). The bytes are trusted
  /// to be a valid encoding of `count` ascending ids.
  static DeltaIdList fromRaw(std::uint32_t count,
                             std::vector<std::uint8_t> bytes);

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint32_t count_ = 0;
  std::uint32_t last_ = 0;
};

/// Shared tokenizer of the scan layer: maximal alphanumeric runs, appended
/// to `out` as views into `text`. Both banner text and query keywords use
/// the same character class, so a keyword with no separator can only ever
/// occur inside a single banner token.
void tokenizeAlnum(std::string_view text,
                   std::vector<std::string_view>& out);

// --- posting shards ---------------------------------------------------------

/// An immutable posting-list shard over a contiguous range of documents
/// [docBase, docBase + docCount): an interned, sorted vocabulary (one byte
/// arena plus offsets) and one delta-coded ascending id list per token.
/// Built shard-by-shard so peak build memory is O(shard), not O(corpus) —
/// the Posdb/RdbBase idea from open-source-search-engine, scaled down to
/// this simulator.
class PostingShard {
 public:
  /// Streaming builder: feed lowered document text in ascending doc order,
  /// then `finish()`. Postings are delta-compressed as they are appended, so
  /// even the builder never holds uncompressed id lists.
  class Builder {
   public:
    Builder(std::string label, std::uint32_t docBase);

    /// Index the next document (its id is docBase + documents added so far).
    void addDocument(std::string_view loweredText);

    [[nodiscard]] std::uint32_t docCount() const { return docCount_; }

    /// Seal the shard: sort the vocabulary, intern it into the arena, and
    /// concatenate the posting bytes.
    [[nodiscard]] PostingShard finish() &&;

   private:
    std::string label_;
    std::uint32_t docBase_ = 0;
    std::uint32_t docCount_ = 0;
    std::unordered_map<std::string, DeltaIdList, TokenHash, std::equal_to<>>
        lists_;
    std::vector<std::string_view> tokenScratch_;
  };

  PostingShard() = default;

  [[nodiscard]] const std::string& label() const { return label_; }
  [[nodiscard]] std::uint32_t docBase() const { return docBase_; }
  [[nodiscard]] std::uint32_t docCount() const { return docCount_; }
  [[nodiscard]] std::size_t tokenCount() const {
    return tokenOffsets_.empty() ? 0 : tokenOffsets_.size() - 1;
  }

  /// The k-th vocabulary token (ascending byte order).
  [[nodiscard]] std::string_view token(std::size_t k) const;

  /// Append the (global) doc ids of token k to `out`, ascending.
  void appendTokenPostings(std::size_t k, std::vector<std::uint32_t>& out) const;

  /// Append the doc ids of every document whose vocabulary contains a token
  /// with `needle` as a substring — the shard-local half of the index's
  /// vocabulary pre-filter. Appended ids may repeat across tokens;
  /// the caller sorts/uniques the union.
  void appendCandidates(std::string_view needle,
                        std::vector<std::uint32_t>& out) const;

  /// Heap + arena footprint in bytes (diagnostics / RSS accounting).
  [[nodiscard]] std::size_t memoryBytes() const;

  /// Binary serialization (appended to `out`); see scan/serialize.cpp for
  /// the framing that wraps whole indexes.
  void serializeTo(std::string& out) const;

  /// Parse one shard at `pos`, advancing it. Returns false on malformed
  /// input (truncation, non-monotone offsets).
  [[nodiscard]] static bool deserializeFrom(std::string_view data,
                                            std::size_t& pos,
                                            PostingShard& out);

 private:
  std::string label_;
  std::uint32_t docBase_ = 0;
  std::uint32_t docCount_ = 0;
  std::string arena_;                          ///< concatenated sorted tokens
  std::vector<std::uint32_t> tokenOffsets_;    ///< tokenCount()+1 bounds
  std::vector<std::uint32_t> postingOffsets_;  ///< tokenCount()+1 bounds
  std::vector<std::uint8_t> postings_;         ///< delta varints per token
};

/// Visit every distinct token across `shards` exactly once, ascending, with
/// the (shard, slot) pairs that hold it — a k-way merge over the shards'
/// sorted vocabularies (the RdbMerge pattern). Cross-shard consumers
/// (vocabulary statistics, index compaction) pay one visit per distinct
/// token instead of one per (token, shard).
void forEachDistinctToken(
    std::span<const PostingShard> shards,
    const std::function<void(
        std::string_view token,
        std::span<const std::pair<std::uint32_t, std::uint32_t>> holders)>&
        visit);

}  // namespace urlf::scan

#endif  // URLF_SCAN_POSTINGS_H
