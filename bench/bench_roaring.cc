/// \file bench_roaring.cc
/// \brief Adaptive-container ablation (DESIGN.md §3, docs/architecture.md
/// "Kernel layer"): bitmap-level AND/OR throughput at the container mixes
/// the RoaringDatabase actually sees (one bitmap per dictionary value),
/// decode throughput per representation, and the galloping vs linear
/// array-intersection walk. The `gallop_speedup` record asserts the >= 2x
/// win on skewed inputs the adaptive containers promise, and
/// `or_many_speedup` the >= 2x win of the k-way IN-list union
/// (RoaringBitmap::OrMany) over an OrWith fold at k = 5 and 20.
///
/// Emits one JSON record per case to ZV_BENCH_JSON (container mix in the
/// labels) so tools/run_bench.sh folds the container trajectory into
/// BENCH_fig7.json behind the >15% regression gate.

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "roaring/container.h"
#include "roaring/roaring.h"

namespace {

using zv::Rng;
using zv::roaring::Container;
using zv::roaring::IntersectMode;
using zv::roaring::IntersectSorted;
using zv::roaring::RoaringBitmap;

RoaringBitmap RandomBitmap(uint32_t universe, uint32_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> vals;
  vals.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    vals.push_back(static_cast<uint32_t>(rng.Uniform(universe)));
  }
  return RoaringBitmap::FromValues(vals);
}

std::vector<uint16_t> RandomChunkValues(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::set<uint16_t> vals;
  while (vals.size() < count) {
    vals.insert(static_cast<uint16_t>(rng.Uniform(65536)));
  }
  return {vals.begin(), vals.end()};
}

}  // namespace

int main() {
  zv::bench::PrintHeader("roaring containers (mixes & galloping intersect)");
  zv::bench::JsonRecorder rec("roaring_containers");

  // --- bitmap-level ops across container mixes ----------------------------
  // Mix labels name the dominant container pair the cardinalities induce:
  // array&array (sparse), bitmap&bitmap (dense), array&bitmap (index
  // probe), inverted&array (a near-full WHERE against a sparse one), and
  // all&bitmap (a full chunk run against a dense filter).
  zv::bench::PrintSubHeader("And/Or by container mix");
  const uint32_t universe = 10'000'000;
  struct MixCase {
    const char* label;
    RoaringBitmap a;
    RoaringBitmap b;
  };
  const MixCase mixes[] = {
      {"and_array_array", RandomBitmap(universe, 10'000, 1),
       RandomBitmap(universe, 10'000, 2)},
      {"and_bitmap_bitmap", RandomBitmap(universe, 5'000'000, 3),
       RandomBitmap(universe, 5'000'000, 4)},
      {"and_array_bitmap", RandomBitmap(universe, 10'000, 5),
       RandomBitmap(universe, 5'000'000, 6)},
      {"and_inverted_array", RoaringBitmap::FromRange(50, universe),
       RandomBitmap(universe, 10'000, 7)},
      {"and_all_bitmap", RoaringBitmap::FromRange(0, universe),
       RandomBitmap(universe, 5'000'000, 8)},
  };
  for (const MixCase& m : mixes) {
    const size_t reps = zv::bench::ScaledRows(20);
    uint64_t sink = 0;
    const zv::bench::WallTimer timer;
    for (size_t r = 0; r < reps; ++r) {
      sink += RoaringBitmap::And(m.a, m.b).Cardinality();
    }
    const double ms = timer.ElapsedMs();
    if (sink == 0xffffffffffffffffULL) std::printf("impossible\n");
    rec.Record(m.label, ms, {{"mix", m.label + 4}});
    std::printf("  %-22s %9.1f ms  (|a|=%llu |b|=%llu)\n", m.label, ms,
                static_cast<unsigned long long>(m.a.Cardinality()),
                static_cast<unsigned long long>(m.b.Cardinality()));
  }

  // --- decode throughput per representation -------------------------------
  zv::bench::PrintSubHeader("ForEach decode by representation");
  struct DecodeCase {
    const char* label;
    RoaringBitmap bm;
  };
  const DecodeCase decodes[] = {
      {"foreach_array", RandomBitmap(universe, 100'000, 9)},
      {"foreach_bitmap", RandomBitmap(universe, 5'000'000, 10)},
      {"foreach_inverted", RoaringBitmap::FromRange(500, universe)},
      {"foreach_all", RoaringBitmap::FromRange(0, universe)},
  };
  for (const DecodeCase& d : decodes) {
    const size_t reps = zv::bench::ScaledRows(5);
    uint64_t sum = 0;
    const zv::bench::WallTimer timer;
    for (size_t r = 0; r < reps; ++r) {
      d.bm.ForEach([&sum](uint32_t v) { sum += v; });
    }
    const double ms = timer.ElapsedMs();
    if (sum == 0xffffffffffffffffULL) std::printf("impossible\n");
    rec.Record(d.label, ms, {{"mix", d.label + 8}});
    std::printf("  %-22s %9.1f ms  (%llu values/pass)\n", d.label, ms,
                static_cast<unsigned long long>(d.bm.Cardinality()));
  }

  // --- galloping vs linear array intersection -----------------------------
  // The skewed shape a dictionary-value probe produces: a handful of set
  // values against a populous container. Linear walks both lists; galloping
  // skips through the large one in log-sized hops.
  zv::bench::PrintSubHeader("array intersect: linear vs galloping (skewed)");
  const std::vector<uint16_t> small = RandomChunkValues(48, 11);
  const std::vector<uint16_t> large = RandomChunkValues(4096, 12);
  const size_t reps = zv::bench::ScaledRows(200'000);
  double ms_by_mode[3] = {0, 0, 0};
  const IntersectMode modes[] = {IntersectMode::kLinear,
                                 IntersectMode::kGalloping,
                                 IntersectMode::kAuto};
  const char* mode_names[] = {"linear", "galloping", "auto"};
  for (int mi = 0; mi < 3; ++mi) {
    size_t sink = 0;
    const zv::bench::WallTimer timer;
    for (size_t r = 0; r < reps; ++r) {
      sink += IntersectSorted(small, large, modes[mi]).size();
    }
    ms_by_mode[mi] = timer.ElapsedMs();
    if (sink == static_cast<size_t>(-1)) std::printf("impossible\n");
    rec.Record(std::string("intersect_") + mode_names[mi], ms_by_mode[mi],
               {{"mix", "skewed_48_4096"}, {"mode", mode_names[mi]}});
    std::printf("  %-22s %9.1f ms\n", mode_names[mi], ms_by_mode[mi]);
  }

  // The adaptive-container acceptance floor: galloping at least 2x over
  // linear on this skew. "pass":"no" warns; fails under ZV_BENCH_STRICT=1.
  const double speedup = ms_by_mode[0] / ms_by_mode[1];
  const bool pass = speedup >= 2.0;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", speedup);
  rec.Record("gallop_speedup", ms_by_mode[1],
             {{"mix", "skewed_48_4096"},
              {"speedup", buf},
              {"pass", pass ? "yes" : "no"}});
  std::printf("  gallop_speedup: %.2fx (%s)\n", speedup,
              pass ? "pass" : "FAIL: below the 2x floor");

  // --- k-way union vs pairwise fold ---------------------------------------
  // The IN-list leaf shape: k per-value index bitmaps of a 4M-row table
  // with 40 equally likely values (every container an array of ~1.6K
  // values), unioned by one OrMany or by k-1 OrWith steps.
  zv::bench::PrintSubHeader("IN-list union: OrMany vs OrWith fold");
  const uint32_t index_rows = 4'000'000;
  std::vector<std::vector<uint32_t>> buckets(40);
  {
    Rng rng(23);
    for (uint32_t row = 0; row < index_rows; ++row) {
      buckets[rng.Uniform(buckets.size())].push_back(row);
    }
  }
  std::vector<RoaringBitmap> index;
  for (const std::vector<uint32_t>& bucket : buckets) {
    RoaringBitmap bm = RoaringBitmap::FromSortedValues(
        bucket.data(), bucket.data() + bucket.size());
    bm.RunOptimize();
    index.push_back(std::move(bm));
  }
  const size_t union_reps = std::max<size_t>(3, zv::bench::ScaledRows(200));
  std::map<std::string, std::string> union_extra = {{"mix", "in_list_4m_40"}};
  double worst_union_speedup = 1e300, union_ms = 0;
  for (size_t k : {5u, 20u}) {
    std::vector<const RoaringBitmap*> picked;
    for (size_t i = 0; i < k; ++i) picked.push_back(&index[i * 2]);
    uint64_t sink = 0;
    zv::bench::WallTimer fold_timer;
    for (size_t r = 0; r < union_reps; ++r) {
      RoaringBitmap acc;
      for (const RoaringBitmap* bm : picked) acc.OrWith(*bm);
      sink += acc.Cardinality();
    }
    const double fold_ms = fold_timer.ElapsedMs();
    zv::bench::WallTimer many_timer;
    for (size_t r = 0; r < union_reps; ++r) {
      sink += RoaringBitmap::OrMany(picked).Cardinality();
    }
    const double many_ms = many_timer.ElapsedMs();
    if (sink == 1) std::printf("impossible\n");
    const std::string kk = "k" + std::to_string(k);
    rec.Record("union_fold_" + kk, fold_ms, {{"mix", "in_list_4m_40"}});
    rec.Record("union_or_many_" + kk, many_ms, {{"mix", "in_list_4m_40"}});
    const double ratio = many_ms > 0 ? fold_ms / many_ms : 0;
    worst_union_speedup = std::min(worst_union_speedup, ratio);
    union_ms = std::max(union_ms, many_ms);
    std::snprintf(buf, sizeof buf, "%.2f", ratio);
    union_extra["speedup_" + kk] = buf;
    std::printf("  k=%-3zu fold %8.1f ms  or_many %8.1f ms  %.2fx\n", k,
                fold_ms, many_ms, ratio);
  }
  // Floor: the k-way union at least 2x over the fold at every k.
  const bool union_pass = worst_union_speedup >= 2.0;
  union_extra["pass"] = union_pass ? "yes" : "no";
  rec.Record("or_many_speedup", union_ms, union_extra);
  std::printf("  or_many_speedup: %.2fx worst (%s)\n", worst_union_speedup,
              union_pass ? "pass" : "FAIL: below the 2x floor");

  return 0;
}
