// The quantile-sketch contract: exact mode below the threshold, the
// rank-error guarantee on a 10^7-sample stream (property-tested against the
// exact sorted reference), merge-order-invariant byte-identical exports,
// exports pinned to recorded values, seed-determinism, scalar preservation,
// and the allocation profile of the update path: level 0 only at
// construction, one allocation at the first compaction, zero after
// (interposed global new/delete, the same gate the event engine's hot path
// uses).
#include "obs/sketch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <sstream>
#include <vector>

#include "expfw/scenarios.hpp"
#include "net/network.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "phy/phy_params.hpp"
#include "traffic/arrival_process.hpp"
#include "util/rng.hpp"

// ---- allocation counting ----------------------------------------------------
// Interposed global new/delete: counts every heap allocation made by this
// binary. Tests read the counter around a measurement window; gtest's own
// allocations outside the window are irrelevant.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
}  // namespace

// gcc -O2 cannot see that the replaced operator new forwards to malloc, so
// inlined delete sites trip -Wmismatched-new-delete; the pairing is correct.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t) { return counted_alloc(size); }
void* operator new[](std::size_t size, std::align_val_t) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace rtmac::obs {
namespace {

TEST(SketchOptionsTest, InvalidConfigurationsThrow) {
  EXPECT_THROW(QuantileSketch({/*k=*/3}), std::invalid_argument);
  EXPECT_THROW(QuantileSketch({/*k=*/7}), std::invalid_argument);
  EXPECT_THROW(QuantileSketch({/*k=*/8, /*exact_threshold=*/3}), std::invalid_argument);
  EXPECT_THROW(QuantileSketch({/*k=*/8, /*exact_threshold=*/9}), std::invalid_argument);
}

TEST(SketchTest, EmptySketchIsAllNaN) {
  const QuantileSketch s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.sum(), 0.0);
  EXPECT_TRUE(std::isnan(s.min()));
  EXPECT_TRUE(std::isnan(s.max()));
  EXPECT_TRUE(std::isnan(s.mean()));
  EXPECT_TRUE(std::isnan(s.quantile(0.5)));
  EXPECT_TRUE(s.exact());
}

TEST(SketchTest, NanQuantileRequestReturnsNan) {
  QuantileSketch s;
  s.update(1.0);
  EXPECT_TRUE(std::isnan(s.quantile(std::nan(""))));
}

// Below exact_threshold no compaction has happened: every quantile is the
// exact inverted-CDF value of the sample multiset.
TEST(SketchTest, ExactModeMatchesInvertedCdf) {
  QuantileSketch s{{/*k=*/16, /*exact_threshold=*/64}};
  std::vector<double> data;
  Rng rng{99};
  for (int i = 0; i < 63; ++i) {
    const double v = rng.next_double();
    data.push_back(v);
    s.update(v);
  }
  ASSERT_TRUE(s.exact());
  std::sort(data.begin(), data.end());
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const auto n = static_cast<double>(data.size());
    const auto rank = q == 0.0 ? std::size_t{1}
                               : static_cast<std::size_t>(std::ceil(q * n));
    EXPECT_DOUBLE_EQ(s.quantile(q), data[std::min(rank, data.size()) - 1]) << "q=" << q;
  }
  // q clamping mirrors Histogram::quantile.
  EXPECT_DOUBLE_EQ(s.quantile(-1.0), s.min());
  EXPECT_DOUBLE_EQ(s.quantile(2.0), s.max());
}

TEST(SketchTest, CompactionClearsExactFlagAndPreservesScalars) {
  QuantileSketch s{{/*k=*/8, /*exact_threshold=*/8}};
  double sum = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const double v = static_cast<double>((i * 37) % 101);
    s.update(v);
    sum += v;
  }
  EXPECT_FALSE(s.exact());
  EXPECT_EQ(s.count(), 1000u);
  EXPECT_DOUBLE_EQ(s.sum(), sum);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_DOUBLE_EQ(s.mean(), sum / 1000.0);
  // Memory actually stays bounded far below the input count.
  EXPECT_LT(s.retained(), 200u);
}

// The headline property: on a 10^7-sample stream the estimate for every
// tested q lands within options().rank_error() of q in rank space, measured
// against the fully-sorted exact reference. Uses a heavy-tailed mixture so
// the guarantee is exercised away from the uniform easy case.
TEST(SketchTest, RankErrorBoundOnTenMillionSamples) {
  constexpr std::size_t kN = 10'000'000;
  const SketchOptions opts{};  // default k = 256
  QuantileSketch s{opts};
  std::vector<double> data;
  data.reserve(kN);
  Rng rng{20260808};
  for (std::size_t i = 0; i < kN; ++i) {
    // Mixture: 90% uniform [0,1), 10% exponential-ish tail via -3*log(u).
    const double u = rng.next_double();
    const double v = (i % 10 == 9) ? -3.0 * std::log(u + 1e-18) : u;
    data.push_back(v);
    s.update(v);
  }
  ASSERT_EQ(s.count(), kN);
  std::sort(data.begin(), data.end());

  const double bound = opts.rank_error();
  for (const double q : {0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999}) {
    const double est = s.quantile(q);
    // Rank of the estimate in the exact reference, as the fraction of
    // samples <= est; a range because of duplicates.
    const auto lo = std::lower_bound(data.begin(), data.end(), est) - data.begin();
    const auto hi = std::upper_bound(data.begin(), data.end(), est) - data.begin();
    const double lo_frac = static_cast<double>(lo) / static_cast<double>(kN);
    const double hi_frac = static_cast<double>(hi) / static_cast<double>(kN);
    EXPECT_LE(lo_frac - bound, q) << "q=" << q << " est=" << est;
    EXPECT_GE(hi_frac + bound, q) << "q=" << q << " est=" << est;
  }
}

TEST(SketchTest, SameSeedSameInputIsBitIdentical) {
  const SketchOptions opts{/*k=*/32, /*exact_threshold=*/32, /*seed=*/1234};
  QuantileSketch a{opts};
  QuantileSketch b{opts};
  Rng rng{5};
  for (int i = 0; i < 100'000; ++i) {
    const double v = rng.next_double();
    a.update(v);
    b.update(v);
  }
  EXPECT_EQ(a.retained(), b.retained());
  for (const double q : {0.01, 0.1, 0.5, 0.9, 0.99}) {
    EXPECT_EQ(a.quantile(q), b.quantile(q)) << "q=" << q;
  }
}

// Fingerprint every exported statistic through the deterministic JSON
// number formatter: byte-equality here is exactly what "byte-identical
// JSONL exports" means downstream.
std::string export_fingerprint(const QuantileSketch& s) {
  std::ostringstream out;
  out << json_number(s.count()) << ',' << json_number(s.sum()) << ','
      << json_number(s.min()) << ',' << json_number(s.max()) << ','
      << json_number(s.mean());
  for (const double q : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    out << ',' << json_number(s.quantile(q));
  }
  return std::move(out).str();
}

TEST(SketchTest, MergeIsOrderAndGroupingInvariant) {
  const auto make_part = [](std::uint64_t seed, int n, double scale) {
    QuantileSketch s{{/*k=*/32, /*exact_threshold=*/32, seed}};
    Rng rng{seed};
    for (int i = 0; i < n; ++i) s.update(scale * rng.next_double());
    return s;
  };
  const QuantileSketch a = make_part(1, 5000, 1.0);
  const QuantileSketch b = make_part(2, 3000, 10.0);
  const QuantileSketch c = make_part(3, 7000, 0.1);
  const QuantileSketch d = make_part(4, 11, 100.0);  // exact-mode input

  QuantileSketch fwd = a;
  fwd.merge(b);
  fwd.merge(c);
  fwd.merge(d);

  QuantileSketch rev = d;
  rev.merge(c);
  rev.merge(b);
  rev.merge(a);

  QuantileSketch nested = a;
  QuantileSketch right = c;
  right.merge(d);
  nested.merge(b);
  nested.merge(right);

  const std::string want = export_fingerprint(fwd);
  EXPECT_EQ(export_fingerprint(rev), want);
  EXPECT_EQ(export_fingerprint(nested), want);
  EXPECT_EQ(fwd.count(), 15011u);
  EXPECT_FALSE(fwd.exact());
}

TEST(SketchTest, MergingExactSketchesStaysExact) {
  QuantileSketch a{{/*k=*/16, /*exact_threshold=*/64}};
  QuantileSketch b{{/*k=*/16, /*exact_threshold=*/64}};
  for (int i = 0; i < 20; ++i) a.update(static_cast<double>(i));
  for (int i = 20; i < 40; ++i) b.update(static_cast<double>(i));
  a.merge(b);
  EXPECT_TRUE(a.exact());
  EXPECT_EQ(a.count(), 40u);
  // Exact union: the median of 0..39 at ceil-rank 20 is 19.
  EXPECT_DOUBLE_EQ(a.quantile(0.5), 19.0);
  EXPECT_DOUBLE_EQ(a.min(), 0.0);
  EXPECT_DOUBLE_EQ(a.max(), 39.0);
}

// Estimates reuse one sorted gather until the sketch changes; an update()
// or merge() after a quantile() must invalidate it, or the next export
// would report the old samples.
TEST(SketchTest, QuantilesSeeSamplesAddedAfterAnEarlierRead) {
  // Each step adds samples below the ones already read, so a stale gather
  // would report a different value than the current multiset.
  QuantileSketch s{{/*k=*/16, /*exact_threshold=*/64}};
  for (int i = 1; i <= 10; ++i) s.update(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.9), 9.0);

  for (int i = 0; i < 10; ++i) s.update(0.0);  // 0 x10, 1..10
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.9), 8.0);

  QuantileSketch low{{/*k=*/16, /*exact_threshold=*/64}};
  for (int i = 0; i < 40; ++i) low.update(-1.0);
  s.merge(low);  // -1 x40, 0 x10, 1..10
  EXPECT_DOUBLE_EQ(s.quantile(0.5), -1.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.75), 0.0);

  // A batch merge invalidates the same way.
  QuantileSketch lower{{/*k=*/16, /*exact_threshold=*/64}};
  for (int i = 0; i < 200; ++i) lower.update(-5.0);
  const QuantileSketch* const batch[] = {&lower};
  s.merge(batch);  // -5 x200, -1 x40, 0 x10, 1..10
  EXPECT_DOUBLE_EQ(s.quantile(0.5), -5.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.9), -1.0);
  EXPECT_EQ(s.count(), 260u);
}

// A batch merge is the same fold as one merge() per input, in order.
TEST(SketchTest, BatchMergeMatchesSequentialMerges) {
  std::vector<QuantileSketch> parts;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    QuantileSketch s{{/*k=*/32, /*exact_threshold=*/32, seed}};
    Rng rng{seed};
    const int n = seed == 3 ? 0 : static_cast<int>(seed * 900);  // one empty input
    for (int i = 0; i < n; ++i) s.update(rng.next_double() * static_cast<double>(seed));
    parts.push_back(s);
  }
  QuantileSketch sequential{{/*k=*/32, /*exact_threshold=*/32}};
  sequential.update(0.5);
  QuantileSketch batched = sequential;
  std::vector<const QuantileSketch*> inputs;
  for (const QuantileSketch& p : parts) {
    sequential.merge(p);
    inputs.push_back(&p);
  }
  batched.merge(inputs);
  EXPECT_EQ(export_fingerprint(batched), export_fingerprint(sequential));
  EXPECT_EQ(batched.retained(), sequential.retained());
  EXPECT_EQ(batched.exact(), sequential.exact());
}

// Memory is sized by use: construction allocates only the exact-mode
// level 0, exact-mode updates never allocate, the first compaction sizes
// the whole hierarchy in exactly one allocation, and from then on update()
// never touches the allocator, however many compaction cascades run.
TEST(SketchTest, UpdatePathIsAllocationFree) {
  const SketchOptions opts{/*k=*/64, /*exact_threshold=*/128};
  const auto allocs = [] { return g_alloc_count.load(std::memory_order_relaxed); };

  const std::uint64_t bytes_before = g_alloc_bytes.load(std::memory_order_relaxed);
  const std::uint64_t construct_before = allocs();
  QuantileSketch s{opts};
  EXPECT_LE(allocs() - construct_before, 1u);
  EXPECT_LE(g_alloc_bytes.load(std::memory_order_relaxed) - bytes_before,
            std::uint64_t{opts.exact_threshold} * sizeof(double));

  Rng rng{7};
  const std::uint64_t exact_before = allocs();
  for (std::uint32_t i = 0; i + 1 < opts.exact_threshold; ++i) s.update(rng.next_double());
  EXPECT_EQ(allocs() - exact_before, 0u);
  EXPECT_TRUE(s.exact());

  const std::uint64_t first_before = allocs();
  s.update(rng.next_double());  // fills level 0: the first compaction
  EXPECT_EQ(allocs() - first_before, 1u);
  EXPECT_FALSE(s.exact());

  const std::uint64_t steady_before = allocs();
  for (int i = 0; i < 1'000'000; ++i) s.update(rng.next_double());
  EXPECT_EQ(allocs() - steady_before, 0u);
  EXPECT_EQ(s.count(), 1'000'000u + opts.exact_threshold);
}

// Every statistic the registry exports for a sketch, in export order plus
// the retained count, through the JSONL number formatter. Though `s` is
// const, the quantile reads reorder its retained samples in place (see
// QuantileSketch), so no other read of `s` may overlap this call.
std::string pinned_export(const QuantileSketch& s) {
  std::ostringstream out;
  out << json_number(s.count()) << ',' << json_number(s.sum()) << ','
      << json_number(s.min()) << ',' << json_number(s.max()) << ','
      << json_number(s.quantile(0.50)) << ',' << json_number(s.quantile(0.90)) << ','
      << json_number(s.quantile(0.99)) << ','
      << json_number(static_cast<std::uint64_t>(s.retained())) << ','
      << (s.exact() ? 1 : 0);
  return std::move(out).str();
}

QuantileSketch filled(const SketchOptions& opts, std::uint64_t stream, int n) {
  QuantileSketch s{opts};
  Rng rng{stream};
  for (int i = 0; i < n; ++i) {
    // Mixture: uniform body plus a -log tail, so the quantiles separate.
    const double u = rng.next_double();
    s.update(i % 7 == 6 ? -20.0 * std::log(u + 1e-12) : 10.0 * u);
  }
  return s;
}

// Exported values recorded before the level hierarchy became lazily sized:
// when and how the sketch allocates must not change a single exported byte,
// on either side of the exact -> estimate transition.
TEST(SketchTest, ExportsMatchRecordedValues) {
  const SketchOptions per_link{/*k=*/64, /*exact_threshold=*/256, /*seed=*/101};
  const SketchOptions wide{/*k=*/256, /*exact_threshold=*/2048, /*seed=*/202};
  const struct {
    const SketchOptions& opts;
    int n;
    const char* want;
  } cases[] = {
      {per_link, 255,
       "255,1920.877408935921,0.016938953597233075,70.67200997608033,5.458097286064083,"
       "9.85061045732946,60.29898735168925,255,1"},
      {per_link, 256,
       "256,1926.1384259863053,0.016938953597233075,70.67200997608033,5.2610170503841545,"
       "9.739499985234346,42.21615844380774,32,0"},
      {per_link, 100'000,
       "100000,716817.1102027426,7.427911670077059e-05,219.63924761779407,5.396766039195537,"
       "9.896547130553659,79.76724018200328,288,0"},
      {wide, 2047,
       "2047,15045.480665017358,0.009297039248197886,127.04297230898332,5.537352071904731,"
       "9.892635612344861,55.29585022041562,2047,1"},
      {wide, 2048,
       "2048,15051.867486523928,0.009297039248197886,127.04297230898332,5.452938084472859,"
       "9.893847059806838,52.15047319295877,128,0"},
      {wide, 100'000,
       "100000,716817.1102027426,7.427911670077059e-05,219.63924761779407,5.353997107475027,"
       "9.851525138295704,53.08317129195573,1952,0"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(pinned_export(filled(c.opts, 31, c.n)), c.want)
        << "k=" << c.opts.k << " n=" << c.n;
  }

  // A batch merge of exact, compacted and empty inputs into an exact target.
  QuantileSketch target = filled(per_link, 41, 100);
  const QuantileSketch exact_in = filled(per_link, 42, 200);
  const QuantileSketch compacted = filled(per_link, 43, 5000);
  const QuantileSketch empty{per_link};
  const QuantileSketch big = filled(wide, 44, 100'000);
  const QuantileSketch* const inputs[] = {&exact_in, &compacted, &empty, &big};
  target.merge(inputs);
  EXPECT_EQ(pinned_export(target),
            "105300,751393.2297031413,1.5177483516648493e-05,224.2489438041173,"
            "5.3728368419902885,9.861344738320092,46.918237060061195,2484,0");

  // A copy taken in exact mode owns only level 0; it must compact on its
  // own after the copy, leaving the original untouched.
  const QuantileSketch original = filled(per_link, 51, 200);
  QuantileSketch copy = original;
  Rng rng{52};
  for (int i = 0; i < 10'000; ++i) copy.update(rng.next_double());
  EXPECT_EQ(pinned_export(copy),
            "10200,6345.398918764665,3.126239258599561e-05,46.63114229827707,"
            "0.4961280520905298,0.9002861689700228,0.9935340194472386,344,0");
  EXPECT_EQ(pinned_export(original), pinned_export(filled(per_link, 51, 200)));
  EXPECT_TRUE(original.exact());
}

// Registry integration: get-or-create handles, per-name seed separation,
// and the v2 "sketch" JSONL record.
TEST(SketchTest, RegistryExportRoundTrips) {
  MetricsRegistry reg;
  QuantileSketch& s1 = reg.sketch("lat.us");
  QuantileSketch& s2 = reg.sketch("lat.us");
  EXPECT_EQ(&s1, &s2);
  // Distinct names derive distinct coin seeds from the same base.
  EXPECT_NE(reg.sketch("other").options().seed, s1.options().seed);

  for (int i = 1; i <= 100; ++i) s1.update(static_cast<double>(i));
  std::ostringstream out;
  reg.write_jsonl(out, "");
  std::istringstream in{std::move(out).str()};
  std::string line;
  bool found = false;
  while (std::getline(in, line)) {
    auto parsed = parse_flat_json(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    if (parsed->at("name") != "\"lat.us\"") continue;
    found = true;
    EXPECT_EQ(parsed->at("type"), "\"sketch\"");
    EXPECT_EQ(parsed->at("count"), "100");
    EXPECT_EQ(parsed->at("sum"), "5050");
    EXPECT_EQ(parsed->at("min"), "1");
    EXPECT_EQ(parsed->at("max"), "100");
    EXPECT_EQ(parsed->at("p50"), "50");
    EXPECT_EQ(parsed->at("exact"), "1");
  }
  EXPECT_TRUE(found);
}

// The footprint that motivated sizing sketches by use: attaching a
// registry to a 4,096-link city of 512 cells gives every link its own debt
// sketch and every cell registry two sample sketches, none of which leaves
// exact mode on a short run. The whole attach must cost at most 12 KiB per
// link; pre-sizing the full hierarchy cost about 108 KiB per link.
TEST(SketchFootprintTest, AttachMetricsOnCellCityIsSmallPerLink) {
  constexpr std::size_t kCells = 512;
  constexpr std::size_t kLinks = kCells * 8;
  net::NetworkConfig cfg = expfw::with_sparse_topology(
      net::symmetric_network(kLinks, Duration::milliseconds(2),
                             phy::PhyParams::control_80211a(), 0.7,
                             traffic::BernoulliArrivals{0.8}, 0.9, 21),
      expfw::city_unit_disk_topology(kCells, 8, 22));
  cfg.shards = kCells;
  cfg.shard_jobs = 1;
  net::Network net{std::move(cfg), expfw::dcf_factory()};
  ASSERT_EQ(net.cell_count(), kCells);

  MetricsRegistry registry;
  const std::uint64_t before = g_alloc_bytes.load(std::memory_order_relaxed);
  net.attach_metrics(&registry);
  const std::uint64_t bytes = g_alloc_bytes.load(std::memory_order_relaxed) - before;
  EXPECT_LE(bytes, kLinks * 12 * 1024) << "bytes per link: " << bytes / kLinks;
  net.attach_metrics(nullptr);
}

}  // namespace
}  // namespace rtmac::obs
