#include "obs/sketch.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/check.hpp"

namespace rtmac::obs {

QuantileSketch::QuantileSketch(const SketchOptions& opts)
    : opts_{opts}, coin_{opts.seed, /*stream_id=*/0x434f494eULL /* "COIN" */} {
  if (opts.k < 4 || opts.k % 2 != 0) {
    throw std::invalid_argument{"QuantileSketch: k must be even and >= 4"};
  }
  if (opts.exact_threshold < 4 || opts.exact_threshold % 2 != 0) {
    throw std::invalid_argument{"QuantileSketch: exact_threshold must be even and >= 4"};
  }
  // Level capacities: level 0 is the exact buffer; every higher level must
  // hold its own trigger fill (k - 1) plus the largest batch one compaction
  // below can promote (ceil(capacity/2)), so a promotion can never overrun
  // the block mid-cascade. Only level 0 is allocated here: most sketches
  // never leave exact mode, and the first compaction sizes the rest.
  std::uint32_t total = 0;
  for (std::size_t l = 0; l < kMaxLevels; ++l) {
    capacity_[l] = l == 0 ? opts.exact_threshold : opts.k + (capacity_[l - 1] + 1) / 2;
    offset_[l] = total;
    total += capacity_[l];
  }
  storage_.assign(capacity_[0], 0.0);
}

void QuantileSketch::update(double v) {
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  storage_[offset_[0] + size_[0]] = v;
  if (++size_[0] >= capacity_[0]) compact(0);
}

void QuantileSketch::compact(std::size_t level) {
  RTMAC_ASSERT(level + 1 < kMaxLevels, "sketch level hierarchy overflow");
  exact_ = false;
  // The exact -> estimate transition: size every level in one allocation,
  // so no later update or cascade allocates again.
  if (storage_.size() == capacity_[0]) {
    storage_.resize(offset_[kMaxLevels - 1] + capacity_[kMaxLevels - 1]);
  }
  double* base = storage_.data() + offset_[level];
  const std::uint32_t n = size_[level];
  std::sort(base, base + n);
  // Promote every other sample of the even prefix at doubled weight; the
  // coin picks which half survives, which is what keeps the estimator
  // unbiased. An odd leftover (the largest) stays behind at its own weight,
  // so retained weight stays exactly equal to the input count.
  const std::uint32_t survivors = n & 1U;
  const std::uint32_t even = n - survivors;
  const auto start = static_cast<std::uint32_t>(coin_.next_u64() & 1U);
  double* up = storage_.data() + offset_[level + 1];
  std::uint32_t up_n = size_[level + 1];
  for (std::uint32_t i = start; i < even; i += 2) up[up_n++] = base[i];
  if (survivors != 0) base[0] = base[n - 1];
  size_[level] = survivors;
  RTMAC_ASSERT(up_n <= capacity_[level + 1], "sketch promotion overran the level");
  size_[level + 1] = up_n;
  if (up_n >= opts_.k) compact(level + 1);  // levels >= 1 trigger at k
}

void QuantileSketch::merge(const QuantileSketch& other) {
  const QuantileSketch* const one[] = {&other};
  merge(one);
}

void QuantileSketch::merge(std::span<const QuantileSketch* const> others) {
  // Count the union per level first, then build the grouped buffer in one
  // allocation: each level's group holds this sketch's old group, then every
  // input's level and merged group of that weight, in input order.
  std::array<std::size_t, kMaxLevels> added{};
  std::size_t sums = 0;
  for (const QuantileSketch* other : others) {
    RTMAC_REQUIRE(other != this, "cannot merge a sketch into itself");
    if (other->count_ == 0) continue;
    for (std::size_t l = 0; l < kMaxLevels; ++l) added[l] += other->size_[l];
    for (std::size_t l = 0; l < other->merged_end_.size(); ++l) {
      added[l] += other->merged_group(l).size();
    }
    sums += 1 + other->merged_sums_.size();
  }
  if (sums == 0) return;
  std::size_t levels = merged_end_.size();
  std::size_t samples = merged_.size();
  for (std::size_t l = 0; l < kMaxLevels; ++l) {
    if (added[l] != 0) levels = std::max(levels, l + 1);
    samples += added[l];
  }
  std::vector<double> grouped;
  grouped.reserve(samples);
  std::vector<std::size_t> ends(levels);
  for (std::size_t l = 0; l < levels; ++l) {
    const std::span<const double> own = merged_group(l);
    grouped.insert(grouped.end(), own.begin(), own.end());
    for (const QuantileSketch* other : others) {
      if (other->count_ == 0) continue;
      // Empty levels may lie past the allocated block: skip them before
      // forming a pointer into it.
      if (other->size_[l] != 0) {
        const double* base = other->storage_.data() + other->offset_[l];
        grouped.insert(grouped.end(), base, base + other->size_[l]);
      }
      const std::span<const double> theirs = other->merged_group(l);
      grouped.insert(grouped.end(), theirs.begin(), theirs.end());
    }
    ends[l] = grouped.size();
  }
  merged_ = std::move(grouped);
  merged_end_ = std::move(ends);

  merged_sums_.reserve(merged_sums_.size() + sums);
  for (const QuantileSketch* other : others) {
    if (other->count_ == 0) continue;
    if (count_ == 0) {
      min_ = other->min_;
      max_ = other->max_;
    } else {
      min_ = std::min(min_, other->min_);
      max_ = std::max(max_, other->max_);
    }
    count_ += other->count_;
    exact_ = exact_ && other->exact_;
    merged_sums_.push_back(other->sum_);
    merged_sums_.insert(merged_sums_.end(), other->merged_sums_.begin(),
                        other->merged_sums_.end());
  }
  std::sort(merged_sums_.begin(), merged_sums_.end());
}

double QuantileSketch::sum() const {
  if (merged_sums_.empty()) return sum_;
  // Reduce the own-stream sum and every merged input's sum in value order:
  // the component multiset is the same whatever the merge grouping was, so
  // the reduction (and its bytes) is too. merged_sums_ is kept sorted; the
  // own sum joins it before the first component that is not smaller.
  double total = 0.0;
  bool own_added = false;
  for (const double part : merged_sums_) {
    if (!own_added && !(part < sum_)) {
      total += sum_;
      own_added = true;
    }
    total += part;
  }
  return own_added ? total : total + sum_;
}

double QuantileSketch::min() const {
  return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : min_;
}

double QuantileSketch::max() const {
  return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : max_;
}

double QuantileSketch::mean() const {
  return count_ == 0 ? std::numeric_limits<double>::quiet_NaN()
                     : sum() / static_cast<double>(count_);
}

std::span<double> QuantileSketch::merged_group(std::size_t level) const {
  if (level >= merged_end_.size()) return {};
  const std::size_t begin = level == 0 ? 0 : merged_end_[level - 1];
  return {merged_.data() + begin, merged_end_[level] - begin};
}

std::size_t QuantileSketch::retained() const {
  std::size_t total = merged_.size();
  for (std::size_t l = 0; l < kMaxLevels; ++l) total += size_[l];
  return total;
}

void QuantileSketch::sort_level0() const {
  // A tail up to kMergeTail samples is sorted in a stack buffer and merged
  // into the prefix from the back, so reads allocate nothing; a longer tail
  // (a first read, or reads far apart) re-sorts the level, which costs no
  // more than sorting that tail would.
  constexpr std::uint32_t kMergeTail = 256;
  double* base = storage_.data() + offset_[0];
  const std::uint32_t n = size_[0];
  const std::uint32_t tail = n - sorted_;
  if (tail > kMergeTail) {
    std::sort(base, base + n);
  } else if (tail > 0) {
    std::array<double, kMergeTail> sorted_tail{};
    std::copy(base + sorted_, base + n, sorted_tail.begin());
    std::sort(sorted_tail.begin(), sorted_tail.begin() + tail);
    const double* prefix_end = base + sorted_;
    const double* tail_end = sorted_tail.data() + tail;
    double* out = base + n;
    while (tail_end != sorted_tail.data()) {
      *--out = prefix_end != base && tail_end[-1] < prefix_end[-1] ? *--prefix_end : *--tail_end;
    }
  }
  sorted_ = n;
}

/// Weighted selection over the retained samples, in place. Each run is a
/// level or merged group (one weight per run).
struct QuantileSketch::RankSelect {
  struct Run {
    double* lo;   ///< active range start
    double* hi;   ///< active range end
    double* mid;  ///< partition scratch: first sample == pivot
    double* top;  ///< partition scratch: first sample > pivot
    std::uint64_t weight;
  };

  std::array<Run, 2 * kMaxLevels> runs{};
  std::size_t n = 0;
  std::uint64_t coin = 0x9e3779b97f4a7c15ULL;  // pivot positions; any value works

  void add(double* begin, std::size_t size, std::uint64_t weight) {
    if (size == 0) return;
    runs[n++] = Run{begin, begin + size, nullptr, nullptr, weight};
  }

  [[nodiscard]] std::uint64_t total_weight() const {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      total += runs[i].weight * static_cast<std::uint64_t>(runs[i].hi - runs[i].lo);
    }
    return total;
  }

  /// Median of three pseudo-randomly placed samples of the largest active
  /// run. The answer does not depend on the pivot, only the running time.
  double pivot() {
    const Run* widest = &runs[0];
    for (std::size_t i = 1; i < n; ++i) {
      if (runs[i].hi - runs[i].lo > widest->hi - widest->lo) widest = &runs[i];
    }
    const auto len = static_cast<std::uint64_t>(widest->hi - widest->lo);
    RTMAC_ASSERT(len > 0, "rank past the retained weight");
    std::array<double, 3> pick{};
    for (double& p : pick) {
      coin = mix64(coin, len);
      p = widest->lo[coin % len];
    }
    std::sort(pick.begin(), pick.end());
    return pick[1];
  }

  /// The smallest retained value v with W(<= v) >= rank: the value a scan
  /// of the value-sorted weighted samples stops on. Narrows the runs, so
  /// one RankSelect answers one rank.
  double at_rank(std::uint64_t rank) {
    std::uint64_t below = 0;  // weight of the samples dropped below the runs
    while (true) {
      const double p = pivot();
      std::uint64_t less = 0;
      std::uint64_t equal = 0;
      for (std::size_t i = 0; i < n; ++i) {
        Run& r = runs[i];
        // Three-way partition of the active range: [lo, mid) < p,
        // [mid, top) == p, [top, hi) > p.
        double* lt = r.lo;
        double* it = r.lo;
        double* gt = r.hi;
        while (it < gt) {
          if (*it < p) {
            std::swap(*lt++, *it++);
          } else if (p < *it) {
            std::swap(*it, *--gt);
          } else {
            ++it;
          }
        }
        r.mid = lt;
        r.top = gt;
        less += r.weight * static_cast<std::uint64_t>(lt - r.lo);
        equal += r.weight * static_cast<std::uint64_t>(gt - lt);
      }
      if (rank <= below + less) {
        for (std::size_t i = 0; i < n; ++i) runs[i].hi = runs[i].mid;
      } else if (rank <= below + less + equal) {
        return p;
      } else {
        below += less + equal;
        for (std::size_t i = 0; i < n; ++i) runs[i].lo = runs[i].top;
      }
    }
  }
};

double QuantileSketch::quantile(double q) const {
  if (count_ == 0 || std::isnan(q)) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  if (q == 0.0) return min_;
  if (q == 1.0) return max_;

  // Inverted-CDF rank over the weighted multiset (1-based, ceil — the same
  // convention Histogram::quantile uses); exact when every weight is 1.
  auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_)));
  rank = std::clamp<std::uint64_t>(rank, 1, count_);
  if (exact_ && merged_.empty()) {
    // Every sample sits at weight 1 in level 0, kept sorted: a rank is an
    // index.
    sort_level0();
    return storage_[offset_[0] + rank - 1];
  }
  RankSelect select;
  for (std::size_t l = 0; l < kMaxLevels; ++l) {
    if (size_[l] == 0) continue;  // may lie past the allocated block
    select.add(storage_.data() + offset_[l], size_[l], std::uint64_t{1} << l);
  }
  for (std::size_t l = 0; l < merged_end_.size(); ++l) {
    const std::span<double> group = merged_group(l);
    select.add(group.data(), group.size(), std::uint64_t{1} << l);
  }
  RTMAC_ASSERT(select.total_weight() == count_, "retained weight drifted from the input count");
  return select.at_rank(rank);
}

}  // namespace rtmac::obs
