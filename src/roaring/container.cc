#include "roaring/container.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <iterator>

namespace zv::roaring {

namespace {

std::atomic<uint64_t> g_container_conversions{0};

/// Every representation change funnels through here so the wire stat can
/// report how hard the adaptive machinery is working.
inline void NoteConversion() {
  g_container_conversions.fetch_add(1, std::memory_order_relaxed);
}

inline uint32_t PopcountWords(const std::vector<uint64_t>& words) {
  uint32_t c = 0;
  for (uint64_t w : words) c += static_cast<uint32_t>(__builtin_popcountll(w));
  return c;
}

inline bool BitmapContains(const std::vector<uint64_t>& words, uint16_t x) {
  return (words[x >> 6] >> (x & 63)) & 1;
}

/// First index >= `pos` whose value is >= x, assuming v[0..pos) < x.
/// Exponential (1, 2, 4, ...) probe from pos brackets the answer in
/// O(log gap), then a binary search inside the window pins it down.
size_t GallopLowerBound(const std::vector<uint16_t>& v, size_t pos,
                        uint16_t x) {
  size_t lo = pos, hi = pos, step = 1;
  while (hi < v.size() && v[hi] < x) {
    lo = hi + 1;
    hi += step;
    step <<= 1;
  }
  const size_t end = std::min(hi + 1, v.size());
  return static_cast<size_t>(
      std::lower_bound(v.begin() + static_cast<ptrdiff_t>(lo),
                       v.begin() + static_cast<ptrdiff_t>(end), x) -
      v.begin());
}

}  // namespace

uint64_t ContainerConversions() {
  return g_container_conversions.load(std::memory_order_relaxed);
}

const char* ContainerTypeName(Container::Type type) {
  switch (type) {
    case Container::Type::kArray:
      return "array";
    case Container::Type::kBitmap:
      return "bitmap";
    case Container::Type::kRun:
      return "run";
    case Container::Type::kInverted:
      return "inverted";
    case Container::Type::kAll:
      return "all";
  }
  return "array";
}

std::vector<uint16_t> IntersectSorted(const std::vector<uint16_t>& a,
                                      const std::vector<uint16_t>& b,
                                      IntersectMode mode) {
  std::vector<uint16_t> out;
  out.reserve(std::min(a.size(), b.size()));
  if (mode == IntersectMode::kAuto) {
    // Galloping wins when one side is much smaller: it skips through the
    // large list in log-sized hops instead of visiting every element.
    const bool lopsided = a.size() * 16 < b.size() || b.size() * 16 < a.size();
    mode = lopsided ? IntersectMode::kGalloping : IntersectMode::kLinear;
  }
  if (mode == IntersectMode::kGalloping) {
    const auto& small = a.size() <= b.size() ? a : b;
    const auto& large = a.size() <= b.size() ? b : a;
    size_t pos = 0;
    for (uint16_t v : small) {
      pos = GallopLowerBound(large, pos, v);
      if (pos == large.size()) break;
      if (large[pos] == v) {
        out.push_back(v);
        ++pos;
      }
    }
  } else {
    size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i] < b[j]) {
        ++i;
      } else if (b[j] < a[i]) {
        ++j;
      } else {
        out.push_back(a[i]);
        ++i;
        ++j;
      }
    }
  }
  return out;
}

Container Container::MakeArray(std::vector<uint16_t> sorted_values) {
  Container c;
  c.type_ = Type::kArray;
  c.array_ = std::move(sorted_values);
  c.cardinality_ = static_cast<uint32_t>(c.array_.size());
  if (c.cardinality_ > kArrayMaxCardinality) c.Normalize();
  return c;
}

Container Container::MakeBitmap(std::vector<uint64_t> words) {
  assert(words.size() == kBitmapWords);
  Container c;
  c.type_ = Type::kBitmap;
  c.bitmap_ = std::move(words);
  c.cardinality_ = PopcountWords(c.bitmap_);
  c.Normalize();
  return c;
}

Container Container::MakeRuns(std::vector<Run> runs) {
  Container c;
  c.type_ = Type::kRun;
  c.runs_ = std::move(runs);
  c.cardinality_ = 0;
  for (const Run& r : c.runs_) c.cardinality_ += r.length + 1u;
  return c;
}

Container Container::MakeInverted(std::vector<uint16_t> sorted_absent) {
  Container c;
  c.type_ = Type::kInverted;
  c.array_ = std::move(sorted_absent);
  c.cardinality_ = kChunkCardinality - static_cast<uint32_t>(c.array_.size());
  if (c.array_.empty() || c.array_.size() > kArrayMaxCardinality) {
    c.Normalize();  // kAll when nothing is absent; bitmap when out of range
  }
  return c;
}

Container Container::MakeAll() {
  Container c;
  c.type_ = Type::kAll;
  c.cardinality_ = kChunkCardinality;
  return c;
}

void Container::ConvertArrayToBitmap() {
  bitmap_.assign(kBitmapWords, 0);
  for (uint16_t v : array_) bitmap_[v >> 6] |= 1ULL << (v & 63);
  array_.clear();
  array_.shrink_to_fit();
  type_ = Type::kBitmap;
  NoteConversion();
}

void Container::ConvertBitmapToArrayIfSmall() {
  if (type_ != Type::kBitmap || cardinality_ > kArrayMaxCardinality) return;
  std::vector<uint16_t> vals;
  vals.reserve(cardinality_);
  for (uint32_t w = 0; w < kBitmapWords; ++w) {
    uint64_t word = bitmap_[w];
    while (word != 0) {
      const int bit = __builtin_ctzll(word);
      vals.push_back(static_cast<uint16_t>((w << 6) + bit));
      word &= word - 1;
    }
  }
  array_ = std::move(vals);
  bitmap_.clear();
  bitmap_.shrink_to_fit();
  type_ = Type::kArray;
  NoteConversion();
}

Container Container::ToBitmapCopy() const {
  Container c;
  c.type_ = Type::kBitmap;
  c.bitmap_ = ToWords();
  c.cardinality_ = cardinality_;
  return c;
}

std::vector<uint64_t> Container::ToWords() const {
  switch (type_) {
    case Type::kBitmap:
      return bitmap_;
    case Type::kAll:
      return std::vector<uint64_t>(kBitmapWords, ~0ULL);
    case Type::kInverted: {
      std::vector<uint64_t> words(kBitmapWords, ~0ULL);
      for (uint16_t v : array_) words[v >> 6] &= ~(1ULL << (v & 63));
      return words;
    }
    case Type::kArray:
    case Type::kRun: {
      std::vector<uint64_t> words(kBitmapWords, 0);
      ForEach([&words](uint16_t v) { words[v >> 6] |= 1ULL << (v & 63); });
      return words;
    }
  }
  return std::vector<uint64_t>(kBitmapWords, 0);
}

std::vector<uint16_t> Container::ToArrayValues() const {
  std::vector<uint16_t> vals;
  vals.reserve(cardinality_);
  ForEach([&vals](uint16_t v) { vals.push_back(v); });
  return vals;
}

std::vector<uint16_t> Container::AbsentValues() const {
  if (type_ == Type::kAll) return {};
  if (type_ == Type::kInverted) return array_;
  std::vector<uint16_t> absent;
  absent.reserve(kChunkCardinality - cardinality_);
  const std::vector<uint64_t> words = ToWords();
  for (uint32_t w = 0; w < kBitmapWords; ++w) {
    uint64_t inv = ~words[w];
    while (inv != 0) {
      const int bit = __builtin_ctzll(inv);
      absent.push_back(static_cast<uint16_t>((w << 6) + bit));
      inv &= inv - 1;
    }
  }
  return absent;
}

void Container::Normalize() {
  Type want;
  if (cardinality_ == kChunkCardinality) {
    want = Type::kAll;
  } else if (cardinality_ >= kInvertedMinCardinality) {
    want = Type::kInverted;
  } else if (cardinality_ > kArrayMaxCardinality) {
    want = Type::kBitmap;
  } else {
    want = Type::kArray;
  }
  if (want == type_) return;
  switch (want) {
    case Type::kAll:
      array_.clear();
      array_.shrink_to_fit();
      bitmap_.clear();
      bitmap_.shrink_to_fit();
      runs_.clear();
      runs_.shrink_to_fit();
      break;
    case Type::kInverted:
      array_ = AbsentValues();
      bitmap_.clear();
      bitmap_.shrink_to_fit();
      runs_.clear();
      runs_.shrink_to_fit();
      break;
    case Type::kBitmap:
      bitmap_ = ToWords();
      array_.clear();
      array_.shrink_to_fit();
      runs_.clear();
      runs_.shrink_to_fit();
      break;
    case Type::kArray:
      array_ = ToArrayValues();
      bitmap_.clear();
      bitmap_.shrink_to_fit();
      runs_.clear();
      runs_.shrink_to_fit();
      break;
    case Type::kRun:
      break;  // unreachable: Normalize never targets runs
  }
  type_ = want;
  NoteConversion();
}

bool Container::Add(uint16_t x) {
  switch (type_) {
    case Type::kArray: {
      auto it = std::lower_bound(array_.begin(), array_.end(), x);
      if (it != array_.end() && *it == x) return false;
      array_.insert(it, x);
      ++cardinality_;
      if (cardinality_ > kArrayMaxCardinality) ConvertArrayToBitmap();
      return true;
    }
    case Type::kBitmap: {
      uint64_t& word = bitmap_[x >> 6];
      const uint64_t mask = 1ULL << (x & 63);
      if (word & mask) return false;
      word |= mask;
      ++cardinality_;
      if (cardinality_ >= kInvertedMinCardinality) Normalize();
      return true;
    }
    case Type::kRun: {
      // Keep runs sorted and coalesced.
      if (Contains(x)) return false;
      Run nr{x, 0};
      auto it = std::lower_bound(
          runs_.begin(), runs_.end(), nr,
          [](const Run& a, const Run& b) { return a.start < b.start; });
      it = runs_.insert(it, nr);
      // Merge with previous run if adjacent.
      if (it != runs_.begin()) {
        auto prev = std::prev(it);
        if (static_cast<uint32_t>(prev->start) + prev->length + 1 == x) {
          prev->length += 1;
          it = runs_.erase(it);
          it = std::prev(it);
        }
      }
      // Merge with next run if adjacent.
      auto next = std::next(it);
      if (next != runs_.end() &&
          static_cast<uint32_t>(it->start) + it->length + 1 == next->start) {
        it->length = static_cast<uint16_t>(it->length + next->length + 1);
        runs_.erase(next);
      }
      ++cardinality_;
      return true;
    }
    case Type::kInverted: {
      // Present unless on the absent list; adding erases from that list.
      auto it = std::lower_bound(array_.begin(), array_.end(), x);
      if (it == array_.end() || *it != x) return false;
      array_.erase(it);
      ++cardinality_;
      if (array_.empty()) Normalize();  // -> kAll
      return true;
    }
    case Type::kAll:
      return false;
  }
  return false;
}

void Container::AddRange(uint16_t lo, uint16_t hi) {
  // Simple but correct; bulk loads use MakeArray/MakeBitmap paths instead.
  for (uint32_t v = lo; v <= hi; ++v) Add(static_cast<uint16_t>(v));
}

bool Container::Remove(uint16_t x) {
  switch (type_) {
    case Type::kArray: {
      auto it = std::lower_bound(array_.begin(), array_.end(), x);
      if (it == array_.end() || *it != x) return false;
      array_.erase(it);
      --cardinality_;
      return true;
    }
    case Type::kBitmap: {
      uint64_t& word = bitmap_[x >> 6];
      const uint64_t mask = 1ULL << (x & 63);
      if (!(word & mask)) return false;
      word &= ~mask;
      --cardinality_;
      ConvertBitmapToArrayIfSmall();
      return true;
    }
    case Type::kRun: {
      for (size_t i = 0; i < runs_.size(); ++i) {
        Run& r = runs_[i];
        const uint32_t end = static_cast<uint32_t>(r.start) + r.length;
        if (x < r.start || x > end) continue;
        if (r.start == x && r.length == 0) {
          runs_.erase(runs_.begin() + static_cast<ptrdiff_t>(i));
        } else if (r.start == x) {
          r.start = static_cast<uint16_t>(r.start + 1);
          r.length = static_cast<uint16_t>(r.length - 1);
        } else if (end == x) {
          r.length = static_cast<uint16_t>(r.length - 1);
        } else {
          // Split the run.
          Run tail{static_cast<uint16_t>(x + 1),
                   static_cast<uint16_t>(end - x - 1)};
          r.length = static_cast<uint16_t>(x - r.start - 1);
          runs_.insert(runs_.begin() + static_cast<ptrdiff_t>(i) + 1, tail);
        }
        --cardinality_;
        return true;
      }
      return false;
    }
    case Type::kInverted: {
      auto it = std::lower_bound(array_.begin(), array_.end(), x);
      if (it != array_.end() && *it == x) return false;  // already absent
      array_.insert(it, x);
      --cardinality_;
      if (array_.size() > kArrayMaxCardinality) Normalize();  // -> bitmap
      return true;
    }
    case Type::kAll:
      array_.assign(1, x);
      type_ = Type::kInverted;
      --cardinality_;
      NoteConversion();
      return true;
  }
  return false;
}

bool Container::Contains(uint16_t x) const {
  switch (type_) {
    case Type::kArray:
      return std::binary_search(array_.begin(), array_.end(), x);
    case Type::kBitmap:
      return BitmapContains(bitmap_, x);
    case Type::kRun: {
      // Find last run with start <= x.
      auto it = std::upper_bound(
          runs_.begin(), runs_.end(), x,
          [](uint16_t v, const Run& r) { return v < r.start; });
      if (it == runs_.begin()) return false;
      --it;
      return x <= static_cast<uint32_t>(it->start) + it->length;
    }
    case Type::kInverted:
      return !std::binary_search(array_.begin(), array_.end(), x);
    case Type::kAll:
      return true;
  }
  return false;
}

uint32_t Container::Rank(uint16_t x) const {
  switch (type_) {
    case Type::kArray: {
      auto it = std::lower_bound(array_.begin(), array_.end(), x);
      return static_cast<uint32_t>(it - array_.begin());
    }
    case Type::kBitmap: {
      uint32_t count = 0;
      const uint32_t word_idx = x >> 6;
      for (uint32_t w = 0; w < word_idx; ++w)
        count += static_cast<uint32_t>(__builtin_popcountll(bitmap_[w]));
      const uint64_t mask = (1ULL << (x & 63)) - 1;
      count += static_cast<uint32_t>(__builtin_popcountll(bitmap_[word_idx] & mask));
      return count;
    }
    case Type::kRun: {
      uint32_t count = 0;
      for (const Run& r : runs_) {
        if (r.start >= x) break;
        const uint32_t end = static_cast<uint32_t>(r.start) + r.length;
        count += (end < x ? end : static_cast<uint32_t>(x) - 1) - r.start + 1;
      }
      return count;
    }
    case Type::kInverted: {
      // Values < x, minus the absent ones < x.
      auto it = std::lower_bound(array_.begin(), array_.end(), x);
      return x - static_cast<uint32_t>(it - array_.begin());
    }
    case Type::kAll:
      return x;
  }
  return 0;
}

void Container::AppendValues(uint32_t base, std::vector<uint32_t>* out) const {
  ForEach([base, out](uint16_t v) { out->push_back(base | v); });
}

// --- Binary operations -----------------------------------------------------
//
// Every pairing lands on the smallest canonical representation. The
// inverted/all encodings get native complement-space paths: an operation on
// two nearly-full containers touches only the (short) absent lists instead
// of 8 KiB of bitmap words.

namespace {

/// Returns a canonical copy (runs collapsed, thresholds re-applied).
Container CanonicalCopy(const Container& c) {
  Container out = c;
  out.Normalize();
  return out;
}

std::vector<uint16_t> UnionSorted(const std::vector<uint16_t>& a,
                                  const std::vector<uint16_t>& b) {
  std::vector<uint16_t> out;
  out.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<uint16_t> SymmetricDifferenceSorted(
    const std::vector<uint16_t>& a, const std::vector<uint16_t>& b) {
  std::vector<uint16_t> out;
  out.reserve(a.size() + b.size());
  std::set_symmetric_difference(a.begin(), a.end(), b.begin(), b.end(),
                                std::back_inserter(out));
  return out;
}

}  // namespace

Container Container::AndArrayArray(const std::vector<uint16_t>& a,
                                   const std::vector<uint16_t>& b) {
  return MakeArray(IntersectSorted(a, b, IntersectMode::kAuto));
}

Container Container::AndArrayBitmap(const std::vector<uint16_t>& a,
                                    const Container& b) {
  std::vector<uint16_t> out;
  out.reserve(a.size());
  for (uint16_t v : a) {
    if (BitmapContains(b.bitmap_, v)) out.push_back(v);
  }
  return MakeArray(std::move(out));
}

Container Container::AndBitmapBitmap(const Container& a, const Container& b) {
  std::vector<uint64_t> words(kBitmapWords);
  for (uint32_t w = 0; w < kBitmapWords; ++w)
    words[w] = a.bitmap_[w] & b.bitmap_[w];
  return MakeBitmap(std::move(words));
}

namespace {

/// Run ∩ run by merging sorted run lists — linear in the number of runs.
std::vector<Run> IntersectRuns(const std::vector<Run>& a,
                               const std::vector<Run>& b) {
  std::vector<Run> out;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const uint32_t a_start = a[i].start;
    const uint32_t a_end = a_start + a[i].length;
    const uint32_t b_start = b[j].start;
    const uint32_t b_end = b_start + b[j].length;
    const uint32_t lo = std::max(a_start, b_start);
    const uint32_t hi = std::min(a_end, b_end);
    if (lo <= hi) {
      out.push_back({static_cast<uint16_t>(lo),
                     static_cast<uint16_t>(hi - lo)});
    }
    if (a_end < b_end) ++i;
    else ++j;
  }
  return out;
}

}  // namespace

Container Container::And(const Container& a, const Container& b) {
  if (a.Empty() || b.Empty()) return Container();
  // All-set sentinel: intersection is the other side, verbatim.
  if (a.type_ == Type::kAll) return CanonicalCopy(b);
  if (b.type_ == Type::kAll) return CanonicalCopy(a);
  if (a.type_ == Type::kInverted && b.type_ == Type::kInverted) {
    // ¬A ∩ ¬B = ¬(A ∪ B): union the short absent lists.
    return MakeInverted(UnionSorted(a.array_, b.array_));
  }
  if (a.type_ == Type::kInverted || b.type_ == Type::kInverted) {
    const Container& inv = a.type_ == Type::kInverted ? a : b;
    const Container& other = a.type_ == Type::kInverted ? b : a;
    if (other.type_ == Type::kArray) {
      // Keep the array values not on the absent list.
      std::vector<uint16_t> out;
      out.reserve(other.array_.size());
      for (uint16_t v : other.array_) {
        if (!std::binary_search(inv.array_.begin(), inv.array_.end(), v))
          out.push_back(v);
      }
      return MakeArray(std::move(out));
    }
    // Bitmap/run side: clear the absent bits out of its words.
    std::vector<uint64_t> words = other.ToWords();
    for (uint16_t v : inv.array_) words[v >> 6] &= ~(1ULL << (v & 63));
    return MakeBitmap(std::move(words));
  }
  // Native run-container paths (runs stay runs where the result is still
  // run-friendly; see bench_roaring's run-optimized ablation).
  if (a.type_ == Type::kRun && b.type_ == Type::kRun) {
    Container c = MakeRuns(IntersectRuns(a.runs_, b.runs_));
    // Keep the run form only when it is the most compact representation.
    if (c.SizeInBytes() > kBitmapWords * sizeof(uint64_t) ||
        (c.cardinality_ <= kArrayMaxCardinality &&
         c.SizeInBytes() > c.cardinality_ * sizeof(uint16_t))) {
      c.Normalize();
    }
    return c;
  }
  if (a.type_ == Type::kRun || b.type_ == Type::kRun) {
    // Run ∩ array: membership-test the array side against the runs.
    const Container& run = a.type_ == Type::kRun ? a : b;
    const Container& other = a.type_ == Type::kRun ? b : a;
    if (other.type_ == Type::kArray) {
      std::vector<uint16_t> out;
      out.reserve(other.array_.size());
      for (uint16_t v : other.array_) {
        if (run.Contains(v)) out.push_back(v);
      }
      return MakeArray(std::move(out));
    }
    // Run ∩ bitmap: mask the bitmap with the run ranges.
    std::vector<uint64_t> words(kBitmapWords, 0);
    for (const Run& r : run.runs_) {
      const uint32_t end = static_cast<uint32_t>(r.start) + r.length;
      for (uint32_t w = r.start >> 6; w <= end >> 6; ++w) {
        uint64_t mask = ~0ULL;
        if (w == (static_cast<uint32_t>(r.start) >> 6)) {
          mask &= ~0ULL << (r.start & 63);
        }
        if (w == (end >> 6) && (end & 63) != 63) {
          mask &= (1ULL << ((end & 63) + 1)) - 1;
        }
        words[w] |= mask & other.bitmap_[w];
      }
    }
    return MakeBitmap(std::move(words));
  }
  if (a.type_ == Type::kArray && b.type_ == Type::kArray)
    return AndArrayArray(a.array_, b.array_);
  if (a.type_ == Type::kArray) return AndArrayBitmap(a.array_, b);
  if (b.type_ == Type::kArray) return AndArrayBitmap(b.array_, a);
  return AndBitmapBitmap(a, b);
}

uint32_t Container::AndCardinality(const Container& a, const Container& b) {
  if (a.Empty() || b.Empty()) return 0;
  if (a.type_ == Type::kAll) return b.cardinality_;
  if (b.type_ == Type::kAll) return a.cardinality_;
  if (a.type_ == Type::kInverted && b.type_ == Type::kInverted) {
    // |¬A ∩ ¬B| = 65536 - |A ∪ B|.
    return kChunkCardinality -
           static_cast<uint32_t>(UnionSorted(a.array_, b.array_).size());
  }
  if (a.type_ == Type::kInverted || b.type_ == Type::kInverted) {
    // |other ∩ ¬absent| = |other| - |other ∩ absent|.
    const Container& inv = a.type_ == Type::kInverted ? a : b;
    const Container& other = a.type_ == Type::kInverted ? b : a;
    uint32_t hit = 0;
    for (uint16_t v : inv.array_) hit += other.Contains(v);
    return other.cardinality_ - hit;
  }
  if (a.type_ == Type::kBitmap && b.type_ == Type::kBitmap) {
    uint32_t c = 0;
    for (uint32_t w = 0; w < kBitmapWords; ++w)
      c += static_cast<uint32_t>(
          __builtin_popcountll(a.bitmap_[w] & b.bitmap_[w]));
    return c;
  }
  if (a.type_ == Type::kArray && b.type_ == Type::kBitmap) {
    uint32_t c = 0;
    for (uint16_t v : a.array_) c += BitmapContains(b.bitmap_, v);
    return c;
  }
  if (b.type_ == Type::kArray && a.type_ == Type::kBitmap) {
    return AndCardinality(b, a);
  }
  return And(a, b).Cardinality();
}

Container Container::OrArrayArray(const std::vector<uint16_t>& a,
                                  const std::vector<uint16_t>& b) {
  return MakeArray(UnionSorted(a, b));
}

Container Container::OrBitmapAny(const Container& bitmap,
                                 const Container& any) {
  Container out = bitmap.type_ == Type::kBitmap ? bitmap
                                                : bitmap.ToBitmapCopy();
  any.ForEach([&out](uint16_t v) {
    uint64_t& word = out.bitmap_[v >> 6];
    const uint64_t mask = 1ULL << (v & 63);
    if (!(word & mask)) {
      word |= mask;
      ++out.cardinality_;
    }
  });
  out.Normalize();
  return out;
}

Container Container::Or(const Container& a, const Container& b) {
  if (a.Empty()) return CanonicalCopy(b);
  if (b.Empty()) return CanonicalCopy(a);
  // All-set sentinel absorbs everything.
  if (a.type_ == Type::kAll || b.type_ == Type::kAll) return MakeAll();
  if (a.type_ == Type::kInverted && b.type_ == Type::kInverted) {
    // ¬A ∪ ¬B = ¬(A ∩ B): intersect the short absent lists.
    return MakeInverted(
        IntersectSorted(a.array_, b.array_, IntersectMode::kAuto));
  }
  if (a.type_ == Type::kInverted || b.type_ == Type::kInverted) {
    // ¬A ∪ other = ¬(A \ other): drop the absents the other side covers.
    const Container& inv = a.type_ == Type::kInverted ? a : b;
    const Container& other = a.type_ == Type::kInverted ? b : a;
    std::vector<uint16_t> absent;
    absent.reserve(inv.array_.size());
    for (uint16_t v : inv.array_) {
      if (!other.Contains(v)) absent.push_back(v);
    }
    return MakeInverted(std::move(absent));
  }
  if (a.type_ == Type::kArray && b.type_ == Type::kArray)
    return OrArrayArray(a.array_, b.array_);
  if (a.type_ == Type::kBitmap) return OrBitmapAny(a, b);
  if (b.type_ == Type::kBitmap) return OrBitmapAny(b, a);
  // At least one run container and no bitmaps: merge through sorted arrays.
  return OrArrayArray(a.ToArrayValues(), b.ToArrayValues());
}

Container Container::OrMany(const std::vector<const Container*>& parts) {
  for (const Container* c : parts) {
    if (c->type_ == Type::kAll) return MakeAll();
  }
  std::vector<uint64_t> words(kBitmapWords, 0);
  for (const Container* c : parts) {
    switch (c->type_) {
      case Type::kArray:
        for (uint16_t v : c->array_) words[v >> 6] |= 1ULL << (v & 63);
        break;
      case Type::kBitmap:
        for (uint32_t w = 0; w < kBitmapWords; ++w) words[w] |= c->bitmap_[w];
        break;
      case Type::kRun:
        for (const Run& r : c->runs_) {
          const uint32_t end = static_cast<uint32_t>(r.start) + r.length;
          for (uint32_t w = r.start >> 6; w <= end >> 6; ++w) {
            uint64_t mask = ~0ULL;
            if (w == (static_cast<uint32_t>(r.start) >> 6)) {
              mask &= ~0ULL << (r.start & 63);
            }
            if (w == (end >> 6) && (end & 63) != 63) {
              mask &= (1ULL << ((end & 63) + 1)) - 1;
            }
            words[w] |= mask;
          }
        }
        break;
      case Type::kInverted: {
        const std::vector<uint64_t> inv = c->ToWords();
        for (uint32_t w = 0; w < kBitmapWords; ++w) words[w] |= inv[w];
        break;
      }
      case Type::kAll:
        break;  // returned above
    }
  }
  return MakeBitmap(std::move(words));  // canonicalizes once
}

Container Container::AndNot(const Container& a, const Container& b) {
  if (a.Empty() || b.type_ == Type::kAll) return Container();
  if (b.Empty()) return CanonicalCopy(a);
  if (b.type_ == Type::kInverted) {
    // a \ ¬B = a ∩ B: the subtrahend's absent list IS the intersection mask.
    return And(a, MakeArray(b.array_));
  }
  if (a.type_ == Type::kAll) {
    // Complement of b.
    switch (b.type_) {
      case Type::kArray:
        return MakeInverted(b.array_);
      case Type::kBitmap:
      case Type::kRun: {
        std::vector<uint64_t> words = b.ToWords();
        for (uint64_t& w : words) w = ~w;
        return MakeBitmap(std::move(words));
      }
      case Type::kInverted:
      case Type::kAll:
        break;  // handled above
    }
    return Container();
  }
  if (a.type_ == Type::kInverted) {
    // ¬A \ b = ¬(A ∪ b).
    if (b.type_ == Type::kArray) {
      return MakeInverted(UnionSorted(a.array_, b.array_));
    }
    std::vector<uint64_t> words = b.ToWords();
    for (uint16_t v : a.array_) words[v >> 6] |= 1ULL << (v & 63);
    for (uint64_t& w : words) w = ~w;
    return MakeBitmap(std::move(words));
  }
  if (a.type_ == Type::kArray || a.type_ == Type::kRun) {
    std::vector<uint16_t> out;
    out.reserve(a.cardinality_);
    a.ForEach([&](uint16_t v) {
      if (!b.Contains(v)) out.push_back(v);
    });
    return MakeArray(std::move(out));
  }
  // a is a bitmap.
  std::vector<uint64_t> words = a.bitmap_;
  if (b.type_ == Type::kBitmap) {
    for (uint32_t w = 0; w < kBitmapWords; ++w) words[w] &= ~b.bitmap_[w];
  } else {
    b.ForEach([&words](uint16_t v) { words[v >> 6] &= ~(1ULL << (v & 63)); });
  }
  return MakeBitmap(std::move(words));
}

Container Container::Xor(const Container& a, const Container& b) {
  if (a.Empty()) return CanonicalCopy(b);
  if (b.Empty()) return CanonicalCopy(a);
  // all ⊕ x = ¬x.
  if (a.type_ == Type::kAll) return AndNot(MakeAll(), b);
  if (b.type_ == Type::kAll) return AndNot(MakeAll(), a);
  if (a.type_ == Type::kInverted && b.type_ == Type::kInverted) {
    // ¬A ⊕ ¬B = A ⊕ B: symmetric difference of the absent lists.
    return MakeArray(SymmetricDifferenceSorted(a.array_, b.array_));
  }
  if (a.type_ == Type::kInverted || b.type_ == Type::kInverted) {
    // ¬A ⊕ b = ¬(A ⊕ b).
    const Container& inv = a.type_ == Type::kInverted ? a : b;
    const Container& other = a.type_ == Type::kInverted ? b : a;
    return AndNot(MakeAll(), Xor(MakeArray(inv.array_), other));
  }
  if (a.type_ == Type::kBitmap && b.type_ == Type::kBitmap) {
    std::vector<uint64_t> words(kBitmapWords);
    for (uint32_t w = 0; w < kBitmapWords; ++w)
      words[w] = a.bitmap_[w] ^ b.bitmap_[w];
    return MakeBitmap(std::move(words));
  }
  // Generic symmetric difference through union minus intersection.
  return AndNot(Or(a, b), And(a, b));
}

bool Container::RunOptimize() {
  if (type_ == Type::kRun || cardinality_ == 0) return false;
  // The all-set sentinel costs zero bytes; no run list can beat it.
  if (type_ == Type::kAll) return false;
  // Count runs.
  std::vector<Run> runs;
  bool open = false;
  uint32_t run_start = 0, prev = 0;
  ForEach([&](uint16_t v) {
    if (!open) {
      open = true;
      run_start = v;
    } else if (v != prev + 1) {
      runs.push_back({static_cast<uint16_t>(run_start),
                      static_cast<uint16_t>(prev - run_start)});
      run_start = v;
    }
    prev = v;
  });
  if (open) {
    runs.push_back({static_cast<uint16_t>(run_start),
                    static_cast<uint16_t>(prev - run_start)});
  }
  const size_t run_bytes = runs.size() * sizeof(Run);
  const size_t current_bytes = SizeInBytes();
  if (run_bytes >= current_bytes) return false;
  runs_ = std::move(runs);
  array_.clear();
  array_.shrink_to_fit();
  bitmap_.clear();
  bitmap_.shrink_to_fit();
  type_ = Type::kRun;
  NoteConversion();
  return true;
}

size_t Container::SizeInBytes() const {
  switch (type_) {
    case Type::kArray:
    case Type::kInverted:
      return array_.size() * sizeof(uint16_t);
    case Type::kBitmap:
      return kBitmapWords * sizeof(uint64_t);
    case Type::kRun:
      return runs_.size() * sizeof(Run);
    case Type::kAll:
      return 0;
  }
  return 0;
}

bool Container::SameSetAs(const Container& other) const {
  if (cardinality_ != other.cardinality_) return false;
  if (type_ == Type::kAll && other.type_ == Type::kAll) return true;
  if (type_ == Type::kInverted && other.type_ == Type::kInverted) {
    return array_ == other.array_;
  }
  std::vector<uint16_t> a = ToArrayValues();
  std::vector<uint16_t> b = other.ToArrayValues();
  return a == b;
}

}  // namespace zv::roaring
