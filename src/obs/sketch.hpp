// Mergeable streaming quantile sketch (KLL-style compactor hierarchy).
//
// Fixed-bucket histograms need hand-picked bounds and give rank estimates
// only as good as the bucket layout; at the ROADMAP north-star scale
// (10^5-10^6 links x 10^9 intervals) the obs layer instead needs a
// memory-bounded summary with a distribution-independent rank guarantee.
// QuantileSketch keeps a hierarchy of weighted sample buffers: level l holds
// samples that each represent 2^l inputs. When a level fills it is sorted
// and every other sample (starting offset drawn from a seeded util::Rng
// coin stream) is promoted to the next level at doubled weight; an odd
// leftover survives in place, so total retained weight always equals the
// exact input count. Level 0 is sized by `exact_threshold`: until it first
// compacts, the sketch holds every sample and quantiles are exact.
//
// Determinism and mergeability:
//  - All randomness comes from the seeded compaction coin stream, so the
//    same input sequence under the same seed yields a bit-identical sketch
//    regardless of thread count or scheduling (the property the sweep
//    engine's byte-identical --jobs exports rely on).
//  - merge() is a pure union: it appends the other sketch's retained
//    weighted samples and commutative scalars without re-compacting, and
//    every exported statistic is computed from the sorted weighted-sample
//    multiset (sums are reduced in a canonical order). Merging a set of
//    sketches therefore yields byte-identical exports for ANY merge order
//    or grouping, at the cost of O(retained) memory per merged input.
//
// Costs:
//  - merge() of a batch of inputs reserves the merged-sample buffer for
//    their whole union once, then appends: O(total retained) time, and the
//    buffer is never over-allocated. Fold many sketches (e.g. every cell
//    registry of a sharded run) with one batch call, not one call per
//    input, or each call re-copies the growing union.
//  - Estimates read a sorted gather of every retained sample. The gather
//    is cached until the next update()/merge(), so the quantiles of one
//    export (p50/p90/p99) share a single O(r log r) sort.
//
// Memory is sized by use. Construction allocates only the exact-mode level
// 0 (`exact_threshold` doubles), so a sketch that never compacts (a per-link
// series over a short run) costs kilobytes, not the whole hierarchy. The
// first compaction sizes every level in one allocation; from then on the
// update path allocates nothing (CI-gated by BM_SketchUpdateAllocs, like the
// event queue's steady state).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace rtmac::obs {

/// Tuning knobs for QuantileSketch. Memory and rank error trade off through
/// `k`; `exact_threshold` sizes the exact-mode level-0 buffer.
struct SketchOptions {
  /// Per-level compactor capacity (>= 4, even). Larger k = smaller rank
  /// error and more memory; the default targets ~1% worst-case rank error.
  std::uint32_t k = 256;
  /// Level-0 capacity (>= 4, even). While the total sample count stays
  /// below this, no compaction has happened and quantiles are exact.
  std::uint32_t exact_threshold = 2048;
  /// Seed of the compaction coin stream. The registry mixes the instrument
  /// name into this so distinct sketches use independent streams while
  /// staying deterministic across runs and thread counts.
  std::uint64_t seed = 0x534b4554'43480001ULL;  // "SKETCH"-flavored default

  /// Rank-error budget the configuration is expected to meet: an estimate
  /// for quantile q lands within `rank_error()` of q in rank space. The
  /// constant is empirical with margin (property-tested on 10^7 samples in
  /// tests/obs/sketch_test.cpp); KLL-style coin-compaction concentrates far
  /// below the worst-case deterministic bound.
  [[nodiscard]] double rank_error() const { return 4.0 / static_cast<double>(k); }
};

/// Deterministic, memory-bounded, mergeable rank sketch. Single-threaded,
/// like every obs instrument (one per simulation task).
class QuantileSketch {
 public:
  /// Throws std::invalid_argument on k < 4, exact_threshold < 4, or odd
  /// values (even capacities keep weight-preserving compaction simple).
  explicit QuantileSketch(const SketchOptions& opts = {});

  /// Inserts one sample. Allocates only once, when the first compaction
  /// sizes the level hierarchy; every other call is allocation-free.
  void update(double v);

  /// Folds `other` into this sketch as a pure union of retained weighted
  /// samples (no re-compaction), so any merge order/grouping of a fixed set
  /// of sketches exports byte-identically. Allocates (grows the merged-
  /// sample buffer); not an update-hot-path operation.
  void merge(const QuantileSketch& other);
  /// Folds every sketch of `others`, in order — the same state as merging
  /// them one at a time, but the merged-sample buffer is reserved for the
  /// whole union once, so the batch costs O(total retained).
  void merge(std::span<const QuantileSketch* const> others);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Exact-count-weighted sum, reduced in a canonical order over the own
  /// stream and every merged input so the bytes are merge-order-invariant.
  [[nodiscard]] double sum() const;
  [[nodiscard]] double min() const;   ///< NaN when empty
  [[nodiscard]] double max() const;   ///< NaN when empty
  [[nodiscard]] double mean() const;  ///< NaN when empty

  /// q is clamped to [0, 1]; q = 0 reports min(), q = 1 reports max();
  /// NaN q (or an empty sketch) returns NaN. The estimate is always one of
  /// the retained sample values (no interpolation), which keeps exports
  /// deterministic and merge-order-invariant.
  [[nodiscard]] double quantile(double q) const;

  /// True while every sample is still individually retained (level 0 has
  /// never compacted and only exact inputs were merged): quantiles are
  /// exact inverted-CDF values, not estimates.
  [[nodiscard]] bool exact() const { return exact_; }
  /// Number of retained weighted samples (levels + merged inputs).
  [[nodiscard]] std::size_t retained() const;
  [[nodiscard]] const SketchOptions& options() const { return opts_; }

 private:
  /// Enough levels for any reachable horizon: level l carries weight 2^l,
  /// so 48 levels cover > 10^16 samples before the top could fill.
  static constexpr std::size_t kMaxLevels = 48;

  struct Weighted {
    double value;
    std::uint64_t weight;
  };

  void compact(std::size_t level);
  /// Fills scratch_ with every retained weighted sample, sorted by value
  /// (ties by weight) — the canonical multiset view all estimates use.
  /// No-op while the cached gather is still current.
  void gather() const;

  SketchOptions opts_;
  Rng coin_;
  /// All levels, one flat block: level 0 only until the first compaction,
  /// then every level. Levels past the block are empty until then.
  std::vector<double> storage_;
  std::array<std::uint32_t, kMaxLevels> offset_{};    ///< level start in storage_
  std::array<std::uint32_t, kMaxLevels> capacity_{};  ///< level slot count
  std::array<std::uint32_t, kMaxLevels> size_{};      ///< live samples per level

  std::uint64_t count_ = 0;
  double sum_ = 0.0;  ///< own update stream only; see sum()
  double min_ = 0.0;
  double max_ = 0.0;
  bool exact_ = true;

  std::vector<Weighted> merged_;     ///< union of merged inputs' samples
  std::vector<double> merged_sums_;  ///< each merged input's own-stream sum
  mutable std::vector<Weighted> scratch_;  ///< estimate workspace (lazy)
  mutable bool gathered_ = false;  ///< scratch_ is current; update/merge clear it
};

}  // namespace rtmac::obs
