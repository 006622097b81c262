#include "roaring/roaring.h"

#include <algorithm>

namespace zv::roaring {

namespace {

inline uint16_t HighBits(uint32_t x) { return static_cast<uint16_t>(x >> 16); }
inline uint16_t LowBits(uint32_t x) { return static_cast<uint16_t>(x & 0xFFFF); }

}  // namespace

Container* RoaringBitmap::FindOrCreate(uint16_t key) {
  auto it = std::lower_bound(
      chunks_.begin(), chunks_.end(), key,
      [](const auto& chunk, uint16_t k) { return chunk.first < k; });
  if (it == chunks_.end() || it->first != key) {
    it = chunks_.insert(it, {key, Container()});
  }
  return &it->second;
}

const Container* RoaringBitmap::Find(uint16_t key) const {
  auto it = std::lower_bound(
      chunks_.begin(), chunks_.end(), key,
      [](const auto& chunk, uint16_t k) { return chunk.first < k; });
  if (it == chunks_.end() || it->first != key) return nullptr;
  return &it->second;
}

void RoaringBitmap::EraseEmpty() {
  chunks_.erase(std::remove_if(chunks_.begin(), chunks_.end(),
                               [](const auto& c) { return c.second.Empty(); }),
                chunks_.end());
}

RoaringBitmap RoaringBitmap::FromValues(const std::vector<uint32_t>& values) {
  std::vector<uint32_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  return FromSortedValues(sorted.data(), sorted.data() + sorted.size());
}

RoaringBitmap RoaringBitmap::FromSortedValues(const uint32_t* begin,
                                              const uint32_t* end) {
  RoaringBitmap bm;
  const uint32_t* it = begin;
  while (it != end) {
    const uint16_t key = HighBits(*it);
    std::vector<uint16_t> low;
    while (it != end && HighBits(*it) == key) {
      low.push_back(LowBits(*it));
      ++it;
    }
    bm.chunks_.emplace_back(key, Container::MakeArray(std::move(low)));
  }
  return bm;
}

RoaringBitmap RoaringBitmap::FromRange(uint32_t lo, uint32_t hi) {
  RoaringBitmap bm;
  if (lo >= hi) return bm;
  const uint32_t last = hi - 1;
  for (uint32_t key = HighBits(lo); key <= HighBits(last); ++key) {
    const uint16_t from = (key == HighBits(lo)) ? LowBits(lo) : 0;
    const uint16_t to = (key == HighBits(last)) ? LowBits(last) : 0xFFFF;
    const uint32_t count = static_cast<uint32_t>(to) - from + 1;
    if (count == kChunkCardinality) {
      // Fully covered chunk: the zero-byte all-set sentinel, no bit loop.
      bm.chunks_.emplace_back(static_cast<uint16_t>(key), Container::MakeAll());
    } else if (count >= kInvertedMinCardinality) {
      // Nearly full chunk: store the short absent prefix/suffix instead of
      // populating 8 KiB of words.
      std::vector<uint16_t> absent;
      absent.reserve(kChunkCardinality - count);
      for (uint32_t v = 0; v < from; ++v)
        absent.push_back(static_cast<uint16_t>(v));
      for (uint32_t v = static_cast<uint32_t>(to) + 1; v < kChunkCardinality;
           ++v)
        absent.push_back(static_cast<uint16_t>(v));
      bm.chunks_.emplace_back(static_cast<uint16_t>(key),
                              Container::MakeInverted(std::move(absent)));
    } else if (count > kArrayMaxCardinality) {
      std::vector<uint64_t> words(kBitmapWords, 0);
      for (uint32_t v = from; v <= to; ++v) words[v >> 6] |= 1ULL << (v & 63);
      bm.chunks_.emplace_back(static_cast<uint16_t>(key),
                              Container::MakeBitmap(std::move(words)));
    } else {
      std::vector<uint16_t> vals;
      vals.reserve(count);
      for (uint32_t v = from; v <= to; ++v)
        vals.push_back(static_cast<uint16_t>(v));
      bm.chunks_.emplace_back(static_cast<uint16_t>(key),
                              Container::MakeArray(std::move(vals)));
    }
    if (key == 0xFFFF) break;  // avoid uint16 overflow in the loop
  }
  return bm;
}

void RoaringBitmap::Add(uint32_t x) { FindOrCreate(HighBits(x))->Add(LowBits(x)); }

void RoaringBitmap::Remove(uint32_t x) {
  auto it = std::lower_bound(
      chunks_.begin(), chunks_.end(), HighBits(x),
      [](const auto& chunk, uint16_t k) { return chunk.first < k; });
  if (it == chunks_.end() || it->first != HighBits(x)) return;
  it->second.Remove(LowBits(x));
  if (it->second.Empty()) chunks_.erase(it);
}

bool RoaringBitmap::Contains(uint32_t x) const {
  const Container* c = Find(HighBits(x));
  return c != nullptr && c->Contains(LowBits(x));
}

uint64_t RoaringBitmap::Cardinality() const {
  uint64_t n = 0;
  for (const auto& [key, c] : chunks_) n += c.Cardinality();
  return n;
}

uint64_t RoaringBitmap::Rank(uint32_t x) const {
  uint64_t n = 0;
  const uint16_t key = HighBits(x);
  for (const auto& [k, c] : chunks_) {
    if (k < key) {
      n += c.Cardinality();
    } else if (k == key) {
      n += c.Rank(LowBits(x));
      break;
    } else {
      break;
    }
  }
  return n;
}

RoaringBitmap RoaringBitmap::And(const RoaringBitmap& a,
                                 const RoaringBitmap& b) {
  RoaringBitmap out;
  size_t i = 0, j = 0;
  while (i < a.chunks_.size() && j < b.chunks_.size()) {
    const uint16_t ka = a.chunks_[i].first, kb = b.chunks_[j].first;
    if (ka < kb) ++i;
    else if (kb < ka) ++j;
    else {
      Container c = Container::And(a.chunks_[i].second, b.chunks_[j].second);
      if (!c.Empty()) out.chunks_.emplace_back(ka, std::move(c));
      ++i;
      ++j;
    }
  }
  return out;
}

uint64_t RoaringBitmap::AndCardinality(const RoaringBitmap& a,
                                       const RoaringBitmap& b) {
  uint64_t n = 0;
  size_t i = 0, j = 0;
  while (i < a.chunks_.size() && j < b.chunks_.size()) {
    const uint16_t ka = a.chunks_[i].first, kb = b.chunks_[j].first;
    if (ka < kb) ++i;
    else if (kb < ka) ++j;
    else {
      n += Container::AndCardinality(a.chunks_[i].second, b.chunks_[j].second);
      ++i;
      ++j;
    }
  }
  return n;
}

RoaringBitmap RoaringBitmap::Or(const RoaringBitmap& a,
                                const RoaringBitmap& b) {
  RoaringBitmap out;
  size_t i = 0, j = 0;
  while (i < a.chunks_.size() || j < b.chunks_.size()) {
    if (j >= b.chunks_.size() ||
        (i < a.chunks_.size() && a.chunks_[i].first < b.chunks_[j].first)) {
      out.chunks_.push_back(a.chunks_[i++]);
    } else if (i >= a.chunks_.size() ||
               b.chunks_[j].first < a.chunks_[i].first) {
      out.chunks_.push_back(b.chunks_[j++]);
    } else {
      out.chunks_.emplace_back(
          a.chunks_[i].first,
          Container::Or(a.chunks_[i].second, b.chunks_[j].second));
      ++i;
      ++j;
    }
  }
  return out;
}

RoaringBitmap RoaringBitmap::OrMany(
    const std::vector<const RoaringBitmap*>& inputs) {
  // Every input's (key, container), grouped by key; the stable sort keeps
  // each key's containers in input order.
  std::vector<std::pair<uint16_t, const Container*>> all;
  size_t total = 0;
  for (const RoaringBitmap* b : inputs) total += b->chunks_.size();
  all.reserve(total);
  for (const RoaringBitmap* b : inputs) {
    for (const auto& [key, c] : b->chunks_) all.emplace_back(key, &c);
  }
  std::stable_sort(all.begin(), all.end(), [](const auto& x, const auto& y) {
    return x.first < y.first;
  });
  RoaringBitmap out;
  std::vector<const Container*> group;
  for (size_t i = 0; i < all.size();) {
    const uint16_t key = all[i].first;
    group.clear();
    for (; i < all.size() && all[i].first == key; ++i) {
      group.push_back(all[i].second);
    }
    out.chunks_.emplace_back(
        key, group.size() == 1 ? *group[0] : Container::OrMany(group));
  }
  return out;
}

RoaringBitmap RoaringBitmap::AndNot(const RoaringBitmap& a,
                                    const RoaringBitmap& b) {
  RoaringBitmap out;
  size_t i = 0, j = 0;
  while (i < a.chunks_.size()) {
    if (j >= b.chunks_.size() || a.chunks_[i].first < b.chunks_[j].first) {
      out.chunks_.push_back(a.chunks_[i++]);
    } else if (b.chunks_[j].first < a.chunks_[i].first) {
      ++j;
    } else {
      Container c =
          Container::AndNot(a.chunks_[i].second, b.chunks_[j].second);
      if (!c.Empty()) out.chunks_.emplace_back(a.chunks_[i].first, std::move(c));
      ++i;
      ++j;
    }
  }
  return out;
}

RoaringBitmap RoaringBitmap::Xor(const RoaringBitmap& a,
                                 const RoaringBitmap& b) {
  RoaringBitmap out;
  size_t i = 0, j = 0;
  while (i < a.chunks_.size() || j < b.chunks_.size()) {
    if (j >= b.chunks_.size() ||
        (i < a.chunks_.size() && a.chunks_[i].first < b.chunks_[j].first)) {
      out.chunks_.push_back(a.chunks_[i++]);
    } else if (i >= a.chunks_.size() ||
               b.chunks_[j].first < a.chunks_[i].first) {
      out.chunks_.push_back(b.chunks_[j++]);
    } else {
      Container c = Container::Xor(a.chunks_[i].second, b.chunks_[j].second);
      if (!c.Empty()) out.chunks_.emplace_back(a.chunks_[i].first, std::move(c));
      ++i;
      ++j;
    }
  }
  return out;
}

void RoaringBitmap::RunOptimize() {
  for (auto& [key, c] : chunks_) c.RunOptimize();
}

std::vector<uint32_t> RoaringBitmap::ToVector() const {
  std::vector<uint32_t> out;
  out.reserve(Cardinality());
  for (const auto& [key, c] : chunks_) {
    c.AppendValues(static_cast<uint32_t>(key) << 16, &out);
  }
  return out;
}

size_t RoaringBitmap::SizeInBytes() const {
  size_t n = 0;
  for (const auto& [key, c] : chunks_) n += c.SizeInBytes() + sizeof(key);
  return n;
}

bool RoaringBitmap::operator==(const RoaringBitmap& other) const {
  if (chunks_.size() != other.chunks_.size()) return false;
  for (size_t i = 0; i < chunks_.size(); ++i) {
    if (chunks_[i].first != other.chunks_[i].first) return false;
    if (!chunks_[i].second.SameSetAs(other.chunks_[i].second)) return false;
  }
  return true;
}

}  // namespace zv::roaring
