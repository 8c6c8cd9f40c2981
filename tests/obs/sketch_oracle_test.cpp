// Differential oracle for the quantile sketch's reads: every exported
// statistic of obs::QuantileSketch (count, sum, min, max, quantiles at fixed
// and rank-boundary probabilities, retained, exact) must equal the frozen
// gather-and-sort estimator's (reference_sketch.hpp) fed the same stream.
// Covered: exact and compacted sketches, batch merges with empty inputs,
// merged sketches that keep updating, reads interleaved with updates across
// the exact -> compacted boundary, copies taken after a read, heavy ties,
// and quantile() reads in any rank order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/reference_sketch.hpp"
#include "obs/sketch.hpp"
#include "util/rng.hpp"

namespace rtmac::obs {
namespace {

/// The same sketch twice: the implementation under test and the reference.
struct Twin {
  QuantileSketch got;
  reference::QuantileSketch want;

  explicit Twin(const SketchOptions& opts) : got{opts}, want{opts} {}
  void update(double v) {
    got.update(v);
    want.update(v);
  }
};

enum class Shape { kMixture, kTies, kAscending, kDescending };

/// Sample i of a seeded stream of the given shape.
double draw(Shape shape, Rng& rng, int i) {
  const double u = rng.next_double();
  switch (shape) {
    case Shape::kMixture:  // uniform body plus a -log tail
      return i % 7 == 6 ? -20.0 * std::log(u + 1e-12) : 10.0 * u;
    case Shape::kTies:  // four values, one of them 70 % of the mass
      return u < 0.7 ? 1.0 : std::floor(u * 4.0);
    case Shape::kAscending:
      return static_cast<double>(i) + u;
    case Shape::kDescending:
      return -static_cast<double>(i) - u;
  }
  return u;
}

void fill(Twin& t, Shape shape, std::uint64_t stream, int n) {
  Rng rng{stream};
  for (int i = 0; i < n; ++i) t.update(draw(shape, rng, i));
}

/// Fixed probabilities plus ones on and just below rank boundaries, where an
/// off-by-one rank changes the answer.
std::vector<double> probes(std::uint64_t count) {
  std::vector<double> qs{0.0, 1e-9, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0};
  if (count == 0) return qs;
  const auto c = static_cast<double>(count);
  for (const std::uint64_t r : {std::uint64_t{1}, std::uint64_t{2}, count / 3, count / 2,
                                count - 1, count}) {
    if (r == 0) continue;
    qs.push_back(static_cast<double>(r) / c);
    qs.push_back((static_cast<double>(r) - 0.5) / c);
  }
  return qs;
}

/// Every statistic the registry exports, plus quantiles at `qs`, through the
/// JSONL number formatter (bit-exact: shortest round-trip digits).
template <typename Sketch>
std::string estimates(const Sketch& s, const std::vector<double>& qs) {
  std::ostringstream out;
  out << json_number(s.count()) << ',' << json_number(s.sum()) << ',' << json_number(s.min())
      << ',' << json_number(s.max()) << " |";
  for (const double q : qs) out << ' ' << json_number(s.quantile(q));
  out << " | " << json_number(static_cast<std::uint64_t>(s.retained())) << ','
      << (s.exact() ? 1 : 0);
  return std::move(out).str();
}

void expect_same(const Twin& t, const std::string& where) {
  const std::vector<double> qs = probes(t.want.count());
  ASSERT_EQ(estimates(t.got, qs), estimates(t.want, qs)) << where;
}

/// quantile() reorders the retained samples in place, so a run of reads must
/// equal the reference whatever order the ranks come in: ascending (the
/// export's order), descending and interleaved.
void expect_same_in_any_order(const Twin& t, const std::string& where) {
  std::vector<double> qs = probes(t.want.count());
  std::sort(qs.begin(), qs.end());
  std::vector<std::vector<double>> orders{qs, {qs.rbegin(), qs.rend()}, {}};
  for (std::size_t i = 0; i < qs.size(); ++i) {
    orders[2].push_back(qs[i % 2 == 0 ? i / 2 : qs.size() - 1 - i / 2]);
  }
  for (const std::vector<double>& order : orders) {
    for (const double q : order) {
      ASSERT_EQ(json_number(t.got.quantile(q)), json_number(t.want.quantile(q)))
          << where << " q=" << q;
    }
  }
}

const SketchOptions kPerLink{/*k=*/64, /*exact_threshold=*/256, /*seed=*/11};
const SketchOptions kTiny{/*k=*/4, /*exact_threshold=*/4, /*seed=*/12};
const SketchOptions kWide{/*k=*/256, /*exact_threshold=*/2048, /*seed=*/13};

constexpr Shape kShapes[] = {Shape::kMixture, Shape::kTies, Shape::kAscending,
                             Shape::kDescending};

TEST(SketchOracleTest, ExactAndCompactedSketchesMatchTheReference) {
  for (const SketchOptions& opts : {kPerLink, kTiny, kWide}) {
    for (const Shape shape : kShapes) {
      for (const int n : {0, 1, 2, 3, 255, 256, 257, 2047, 2048, 5000, 60'000}) {
        Twin t{opts};
        fill(t, shape, 100 + static_cast<std::uint64_t>(n), n);
        const std::string where = "k=" + std::to_string(opts.k) + " shape=" +
                                  std::to_string(static_cast<int>(shape)) +
                                  " n=" + std::to_string(n);
        expect_same(t, where);
        expect_same_in_any_order(t, where);
      }
    }
  }
}

TEST(SketchOracleTest, ReadsInterleavedWithUpdatesMatchTheReference) {
  // Reads between bursts of updates, across the exact -> compacted boundary
  // (256 for kPerLink, 2048 for kWide): each read sorts or selects in place,
  // and the next burst must still compact to the reference's state. kWide's
  // bursts reach past the 256-sample tail that is merged rather than
  // re-sorted.
  const struct {
    const SketchOptions& opts;
    std::uint64_t max_burst;
  } cases[] = {{kPerLink, 40}, {kTiny, 40}, {kWide, 400}};
  for (const auto& [opts, max_burst] : cases) {
    for (const Shape shape : kShapes) {
      Twin t{opts};
      Rng rng{7};
      Rng burst{8};
      int i = 0;
      while (i < 3000) {
        const auto n = static_cast<int>(1 + burst.next_u64() % max_burst);
        for (int j = 0; j < n; ++j, ++i) t.update(draw(shape, rng, i));
        const std::string where = "k=" + std::to_string(opts.k) + " shape=" +
                                  std::to_string(static_cast<int>(shape)) +
                                  " after " + std::to_string(i);
        if (burst.next_u64() % 2 == 0) {
          expect_same(t, where);
        } else {
          expect_same_in_any_order(t, where);
        }
      }
    }
  }
}

TEST(SketchOracleTest, BatchMergesMatchTheReference) {
  for (const Shape shape : kShapes) {
    // Inputs: exact, empty, compacted, and one that is itself a merge.
    Twin exact_in{kPerLink};
    fill(exact_in, shape, 21, 200);
    const Twin empty{kPerLink};
    Twin compacted{kPerLink};
    fill(compacted, shape, 22, 7000);
    Twin nested{kPerLink};
    fill(nested, shape, 23, 300);
    {
      const QuantileSketch* const got_in[] = {&exact_in.got, &compacted.got};
      const reference::QuantileSketch* const want_in[] = {&exact_in.want, &compacted.want};
      nested.got.merge(got_in);
      nested.want.merge(want_in);
    }
    expect_same(exact_in, "exact input");  // read before it is merged
    const QuantileSketch* const got_in[] = {&exact_in.got, &empty.got, &compacted.got,
                                            &nested.got};
    const reference::QuantileSketch* const want_in[] = {&exact_in.want, &empty.want,
                                                        &compacted.want, &nested.want};

    // Targets: empty, exact and compacted; each keeps updating after the
    // merge (own levels beside merged samples) and merges again.
    for (const int own : {0, 100, 3000}) {
      Twin t{kPerLink};
      fill(t, shape, 24, own);
      const std::string where =
          "shape=" + std::to_string(static_cast<int>(shape)) + " own=" + std::to_string(own);
      if (own > 0) expect_same(t, where + " before merge");
      t.got.merge(got_in);
      t.want.merge(want_in);
      expect_same(t, where + " merged");
      expect_same_in_any_order(t, where + " merged");
      fill(t, shape, 25, 500);
      expect_same(t, where + " merged then updated");
      const QuantileSketch* const again_got[] = {&empty.got, &exact_in.got};
      const reference::QuantileSketch* const again_want[] = {&empty.want, &exact_in.want};
      t.got.merge(again_got);
      t.want.merge(again_want);
      expect_same_in_any_order(t, where + " merged twice");
    }

    // A batch of only empty inputs changes nothing.
    Twin t{kPerLink};
    fill(t, shape, 26, 50);
    const QuantileSketch* const empties_got[] = {&empty.got, &empty.got};
    const reference::QuantileSketch* const empties_want[] = {&empty.want, &empty.want};
    t.got.merge(empties_got);
    t.want.merge(empties_want);
    expect_same(t, "empty batch");
    EXPECT_TRUE(t.got.exact());
  }
}

TEST(SketchOracleTest, CopiesTakenAfterAReadMatchTheReference) {
  for (const Shape shape : kShapes) {
    for (const int n : {100, 250, 1000}) {
      Twin original{kPerLink};
      fill(original, shape, 31, n);
      expect_same(original, "original before copy");  // sorts level 0 in place
      original.update(-1.0);  // an unsorted tail at the moment of the copy
      Twin copy = original;
      fill(copy, shape, 32, 400);
      fill(original, shape, 33, 10);
      const std::string where =
          "shape=" + std::to_string(static_cast<int>(shape)) + " n=" + std::to_string(n);
      expect_same(copy, where + " copy");
      expect_same(original, where + " original");
    }
  }
}

}  // namespace
}  // namespace rtmac::obs
