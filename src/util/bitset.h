// Dynamic bitset used for pattern coverage over groups and tuple
// selections. Grouping-pattern dedup hashes these; the LP builder reads
// them as group-coverage sets.

#ifndef CAUSUMX_UTIL_BITSET_H_
#define CAUSUMX_UTIL_BITSET_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace causumx {

/// Fixed-universe dynamic bitset with the set operations the miners need.
class Bitset {
 public:
  Bitset() = default;
  /// Creates a bitset over universe [0, size), all bits clear.
  explicit Bitset(size_t size);

  size_t size() const { return size_; }

  void Set(size_t i) {
    assert(i < size_);
    words_[i >> 6] |= uint64_t{1} << (i & 63);
  }
  void Clear(size_t i) {
    assert(i < size_);
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }
  /// False for an index past the universe.
  bool Test(size_t i) const {
    return i < size_ && ((words_[i >> 6] >> (i & 63)) & 1) != 0;
  }

  /// Number of set bits.
  size_t Count() const;

  /// Number of set bits with index in [begin, end) — the per-shard
  /// popcount primitive. `end` is clamped to size().
  size_t CountRange(size_t begin, size_t end) const;

  /// popcount(this & ~other): the marginal-gain count of the greedy
  /// solver (|coverage \ covered|) without materializing the union.
  /// Sizes should match (debug-asserted); a shorter `other` is treated
  /// as zero-extended — this bitset's tail bits all count — so a size
  /// drift after appends over-counts predictably instead of reading out
  /// of bounds.
  size_t CountAndNot(const Bitset& other) const;

  /// popcount(this & ~other) restricted to bit indexes in [begin, end)
  /// (clamped to size()); `other` is zero-extended as above. Lets
  /// callers whose universe grew (appends) scan exactly the original
  /// range instead of counting tail bits.
  size_t CountAndNotRange(const Bitset& other, size_t begin,
                          size_t end) const;

  bool Any() const { return Count() > 0; }
  bool None() const { return Count() == 0; }

  /// In-place union / intersection. Sizes must match.
  Bitset& operator|=(const Bitset& other);
  Bitset& operator&=(const Bitset& other);

  Bitset operator|(const Bitset& other) const;
  Bitset operator&(const Bitset& other) const;

  bool operator==(const Bitset& other) const;

  /// True iff this is a subset of `other`.
  bool IsSubsetOf(const Bitset& other) const;

  /// Indices of all set bits, ascending.
  std::vector<size_t> ToIndices() const;

  /// Appends the indices of set bits in [begin, end) to `out`, ascending.
  /// Shard-wise row collection: per-shard calls over [ShardBegin,
  /// ShardEnd) ranges concatenate to exactly ToIndices().
  void AppendIndicesInRange(size_t begin, size_t end,
                            std::vector<size_t>* out) const;

  /// The bits [begin, end) as a new (end - begin)-bit bitset; bit i of
  /// the result is bit (begin + i) of this. `begin` must be a multiple
  /// of 64 (shard boundaries are word-aligned by construction).
  Bitset ExtractRange(size_t begin, size_t end) const;

  /// Writes `segment` over this bitset's range [offset, offset +
  /// segment.size()), replacing those bits. `offset` must be a multiple
  /// of 64 and the range must fit. Distinct word-aligned ranges may be
  /// written concurrently (the parallel shard assembly relies on this).
  void AssignRange(size_t offset, const Bitset& segment);

  /// ANDs `segment` into this bitset's range [offset, offset +
  /// segment.size()). Same alignment/concurrency contract as AssignRange.
  void AndRange(size_t offset, const Bitset& segment);

  /// FNV-1a style hash of the bit content (suitable for dedup maps).
  uint64_t Hash() const;

  /// Raw 64-bit word storage (little-endian bit order: bit i of the set
  /// lives in word i/64 at position i%64). The kernel layer
  /// (util/kernels.h) operates on these words directly.
  const uint64_t* data() const { return words_.data(); }

  /// Mutable word storage for kernel writers. Invariant: padding bits at
  /// indexes >= size() must stay clear (word-wise equality, Hash(), and
  /// Count() rely on canonical padding) — predicate kernels emit
  /// tail-masked words, so writes of whole kernel outputs preserve it.
  uint64_t* mutable_data() { return words_.data(); }

  /// Number of 64-bit words backing the set (= ceil(size() / 64)).
  size_t num_words() const { return words_.size(); }

  /// Sets every bit in the universe.
  void SetAll();

  /// Changes the universe to [0, new_size). Growing appends clear bits
  /// (existing bits keep their positions — the append-only streaming path
  /// relies on this); shrinking drops bits past the new size.
  void Resize(size_t new_size);

  /// Removes the first `n` bits: bit i of the result is bit (n + i) of
  /// the original, and the universe shrinks to size() - n. `n` may have
  /// any alignment. The windowed-retention retract path shifts cached
  /// bitsets down by the expired-prefix length with this.
  void DropPrefix(size_t n);

 private:
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

/// Dedup set of bitsets bucketed by Hash() with exact content comparison
/// on bucket hits, so a 64-bit hash collision can never conflate two
/// distinct bitsets. Shared by the top-k treated-set dedup and the greedy
/// solver's incomparability constraint.
class BitsetDedup {
 public:
  /// True iff an equal bitset was already inserted.
  bool Contains(const Bitset& bits) const;

  /// Inserts `bits` unless an equal bitset is present; returns true when
  /// it was new. The overload taking `hash` lets callers reuse (or, in
  /// tests, forge) a precomputed Hash() value.
  bool Insert(Bitset bits);
  bool Insert(uint64_t hash, Bitset bits);

 private:
  std::unordered_map<uint64_t, std::vector<Bitset>> buckets_;
};

}  // namespace causumx

#endif  // CAUSUMX_UTIL_BITSET_H_
