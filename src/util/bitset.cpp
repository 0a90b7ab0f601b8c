#include "util/bitset.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "util/kernels.h"

namespace causumx {

Bitset::Bitset(size_t size) : size_(size), words_((size + 63) / 64, 0) {}

size_t Bitset::Count() const {
  return kernels::PopcountWords(words_.data(), words_.size());
}

size_t Bitset::CountRange(size_t begin, size_t end) const {
  end = std::min(end, size_);
  if (begin >= end) return 0;
  const size_t first_word = begin >> 6;
  const size_t last_word = (end - 1) >> 6;
  // Mask off bits below `begin` in the first word and at/after `end` in
  // the last; whole words in between popcount directly.
  uint64_t first_mask = ~uint64_t{0} << (begin & 63);
  const size_t end_rem = end & 63;
  uint64_t last_mask =
      end_rem == 0 ? ~uint64_t{0} : (uint64_t{1} << end_rem) - 1;
  if (first_word == last_word) {
    return std::popcount(words_[first_word] & first_mask & last_mask);
  }
  size_t c = std::popcount(words_[first_word] & first_mask);
  for (size_t w = first_word + 1; w < last_word; ++w) {
    c += std::popcount(words_[w]);
  }
  c += std::popcount(words_[last_word] & last_mask);
  return c;
}

size_t Bitset::CountAndNot(const Bitset& other) const {
  assert(size_ == other.size_);
  // Normalize a size drift instead of reading past the shorter word
  // array: `other`'s absent words are zero, so every bit of ours in the
  // non-overlapping tail counts.
  const size_t common = std::min(words_.size(), other.words_.size());
  size_t c = kernels::AndNotPopcount(words_.data(), other.words_.data(),
                                     common);
  for (size_t i = common; i < words_.size(); ++i) {
    c += std::popcount(words_[i]);
  }
  return c;
}

size_t Bitset::CountAndNotRange(const Bitset& other, size_t begin,
                                size_t end) const {
  end = std::min(end, size_);
  if (begin >= end) return 0;
  auto other_word = [&](size_t w) -> uint64_t {
    return w < other.words_.size() ? other.words_[w] : 0;
  };
  const size_t first_word = begin >> 6;
  const size_t last_word = (end - 1) >> 6;
  const uint64_t first_mask = ~uint64_t{0} << (begin & 63);
  const size_t end_rem = end & 63;
  const uint64_t last_mask =
      end_rem == 0 ? ~uint64_t{0} : (uint64_t{1} << end_rem) - 1;
  if (first_word == last_word) {
    return std::popcount(words_[first_word] & ~other_word(first_word) &
                         first_mask & last_mask);
  }
  size_t c = std::popcount(words_[first_word] & ~other_word(first_word) &
                           first_mask);
  // Whole words in between go through the fused kernel; `other` only
  // needs the zero-extension fallback when it is genuinely shorter.
  const size_t mid_begin = first_word + 1;
  const size_t mid_end = last_word;
  if (mid_end > mid_begin) {
    const size_t overlap =
        std::min(mid_end, std::max(mid_begin, other.words_.size()));
    c += kernels::AndNotPopcount(words_.data() + mid_begin,
                                 other.words_.data() + mid_begin,
                                 overlap - mid_begin);
    for (size_t w = overlap; w < mid_end; ++w) {
      c += std::popcount(words_[w]);
    }
  }
  c += std::popcount(words_[last_word] & ~other_word(last_word) & last_mask);
  return c;
}

Bitset& Bitset::operator|=(const Bitset& other) {
  assert(size_ == other.size_);
  kernels::OrWords(words_.data(), other.words_.data(),
                   std::min(words_.size(), other.words_.size()));
  return *this;
}

Bitset& Bitset::operator&=(const Bitset& other) {
  assert(size_ == other.size_);
  kernels::AndWords(words_.data(), other.words_.data(),
                    std::min(words_.size(), other.words_.size()));
  return *this;
}

Bitset Bitset::operator|(const Bitset& other) const {
  Bitset r = *this;
  r |= other;
  return r;
}

Bitset Bitset::operator&(const Bitset& other) const {
  Bitset r = *this;
  r &= other;
  return r;
}

bool Bitset::operator==(const Bitset& other) const {
  return size_ == other.size_ && words_ == other.words_;
}

bool Bitset::IsSubsetOf(const Bitset& other) const {
  assert(size_ == other.size_);
  for (size_t i = 0; i < words_.size(); ++i) {
    if (words_[i] & ~other.words_[i]) return false;
  }
  return true;
}

std::vector<size_t> Bitset::ToIndices() const {
  std::vector<size_t> out;
  out.reserve(Count());
  for (size_t w = 0; w < words_.size(); ++w) {
    uint64_t bits = words_[w];
    while (bits) {
      const int b = std::countr_zero(bits);
      out.push_back(w * 64 + static_cast<size_t>(b));
      bits &= bits - 1;
    }
  }
  return out;
}

void Bitset::AppendIndicesInRange(size_t begin, size_t end,
                                  std::vector<size_t>* out) const {
  end = std::min(end, size_);
  for (size_t i = begin; i < end;) {
    if ((i & 63) == 0 && i + 64 <= end) {
      uint64_t bits = words_[i >> 6];
      while (bits) {
        const int b = std::countr_zero(bits);
        out->push_back(i + static_cast<size_t>(b));
        bits &= bits - 1;
      }
      i += 64;
    } else {
      if (Test(i)) out->push_back(i);
      ++i;
    }
  }
}

Bitset Bitset::ExtractRange(size_t begin, size_t end) const {
  assert((begin & 63) == 0 && end >= begin && end <= size_);
  Bitset out(end - begin);
  const size_t first_word = begin >> 6;
  for (size_t w = 0; w < out.words_.size(); ++w) {
    out.words_[w] = words_[first_word + w];
  }
  // Clear padding past the new size (the source word may carry bits of
  // rows beyond `end`).
  const size_t rem = out.size_ & 63;
  if (rem != 0 && !out.words_.empty()) {
    out.words_.back() &= (uint64_t{1} << rem) - 1;
  }
  return out;
}

void Bitset::AssignRange(size_t offset, const Bitset& segment) {
  assert((offset & 63) == 0 && offset + segment.size_ <= size_);
  const size_t first_word = offset >> 6;
  const size_t full_words = segment.size_ >> 6;
  for (size_t w = 0; w < full_words; ++w) {
    words_[first_word + w] = segment.words_[w];
  }
  const size_t rem = segment.size_ & 63;
  if (rem != 0) {
    // The segment's last word is partial; splice it under a mask so bits
    // of this bitset beyond the segment keep their value.
    const uint64_t mask = (uint64_t{1} << rem) - 1;
    uint64_t& dst = words_[first_word + full_words];
    dst = (dst & ~mask) | (segment.words_[full_words] & mask);
  }
}

void Bitset::AndRange(size_t offset, const Bitset& segment) {
  assert((offset & 63) == 0 && offset + segment.size_ <= size_);
  const size_t first_word = offset >> 6;
  const size_t full_words = segment.size_ >> 6;
  for (size_t w = 0; w < full_words; ++w) {
    words_[first_word + w] &= segment.words_[w];
  }
  const size_t rem = segment.size_ & 63;
  if (rem != 0) {
    const uint64_t mask = (uint64_t{1} << rem) - 1;
    uint64_t& dst = words_[first_word + full_words];
    dst &= segment.words_[full_words] | ~mask;
  }
}

uint64_t Bitset::Hash() const {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint64_t w : words_) {
    h ^= w;
    h *= 0x100000001b3ULL;
  }
  return h ^ size_;
}

void Bitset::SetAll() {
  for (auto& w : words_) w = ~uint64_t{0};
  // Clear padding bits past size_.
  const size_t rem = size_ & 63;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << rem) - 1;
  }
}

void Bitset::Resize(size_t new_size) {
  words_.resize((new_size + 63) / 64, 0);
  size_ = new_size;
  // Clear padding bits past the (possibly smaller) new size so word-wise
  // equality and Hash() stay canonical.
  const size_t rem = size_ & 63;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << rem) - 1;
  }
}

void Bitset::DropPrefix(size_t n) {
  assert(n <= size_);
  if (n == 0) return;
  const size_t new_size = size_ - n;
  const size_t word_shift = n >> 6;
  const size_t bit_shift = n & 63;
  const size_t new_words = (new_size + 63) / 64;
  if (bit_shift == 0) {
    words_.erase(words_.begin(),
                 words_.begin() + static_cast<ptrdiff_t>(word_shift));
  } else {
    for (size_t w = 0; w < new_words; ++w) {
      uint64_t lo = words_[word_shift + w] >> bit_shift;
      uint64_t hi = word_shift + w + 1 < words_.size()
                        ? words_[word_shift + w + 1] << (64 - bit_shift)
                        : 0;
      words_[w] = lo | hi;
    }
  }
  words_.resize(new_words);
  size_ = new_size;
  // Keep the canonical-padding invariant: bits at indexes >= size() clear.
  const size_t rem = size_ & 63;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << rem) - 1;
  }
}

bool BitsetDedup::Contains(const Bitset& bits) const {
  auto it = buckets_.find(bits.Hash());
  if (it == buckets_.end()) return false;
  for (const Bitset& b : it->second) {
    if (b == bits) return true;
  }
  return false;
}

bool BitsetDedup::Insert(Bitset bits) {
  const uint64_t h = bits.Hash();
  return Insert(h, std::move(bits));
}

bool BitsetDedup::Insert(uint64_t hash, Bitset bits) {
  std::vector<Bitset>& bucket = buckets_[hash];
  for (const Bitset& b : bucket) {
    if (b == bits) return false;
  }
  bucket.push_back(std::move(bits));
  return true;
}

}  // namespace causumx
