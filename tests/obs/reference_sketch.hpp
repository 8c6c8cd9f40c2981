// A frozen copy of the quantile sketch's estimator as it stood before reads
// stopped copying: every read gathers all retained samples into a weighted
// scratch vector, sorts it by (value, weight) and scans cumulative weights;
// merged inputs are kept as (value, weight) pairs and sum() sorts a copy of
// the per-input sums. Compaction is the same coin-driven sort-and-promote,
// so fed the same stream it holds the same multiset as obs::QuantileSketch.
// It is deliberately slow and obviously correct; the oracle test
// (sketch_oracle_test.cpp) diffs every exported statistic against it.
// Test-only: nothing in src/ includes it.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "obs/sketch.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace rtmac::obs::reference {

class QuantileSketch {
 public:
  explicit QuantileSketch(const SketchOptions& opts = {})
      : opts_{opts}, coin_{opts.seed, /*stream_id=*/0x434f494eULL /* "COIN" */} {
    std::uint32_t total = 0;
    for (std::size_t l = 0; l < kMaxLevels; ++l) {
      capacity_[l] = l == 0 ? opts.exact_threshold : opts.k + (capacity_[l - 1] + 1) / 2;
      offset_[l] = total;
      total += capacity_[l];
    }
    storage_.assign(capacity_[0], 0.0);
  }

  void update(double v) {
    if (count_ == 0) {
      min_ = max_ = v;
    } else {
      min_ = std::min(min_, v);
      max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
    gathered_ = false;
    storage_[offset_[0] + size_[0]] = v;
    if (++size_[0] >= capacity_[0]) compact(0);
  }

  void merge(std::span<const QuantileSketch* const> others) {
    gathered_ = false;
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
      for (std::size_t l = 0; l < kMaxLevels; ++l) {
        if (other->size_[l] == 0) continue;
        const double* base = other->storage_.data() + other->offset_[l];
        for (std::uint32_t i = 0; i < other->size_[l]; ++i) {
          merged_.push_back(Weighted{base[i], std::uint64_t{1} << l});
        }
      }
      merged_.insert(merged_.end(), other->merged_.begin(), other->merged_.end());
      merged_sums_.push_back(other->sum_);
      merged_sums_.insert(merged_sums_.end(), other->merged_sums_.begin(),
                          other->merged_sums_.end());
    }
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }

  [[nodiscard]] double sum() const {
    if (merged_sums_.empty()) return sum_;
    std::vector<double> parts;
    parts.push_back(sum_);
    parts.insert(parts.end(), merged_sums_.begin(), merged_sums_.end());
    std::sort(parts.begin(), parts.end());
    double total = 0.0;
    for (const double p : parts) total += p;
    return total;
  }

  [[nodiscard]] double min() const {
    return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : min_;
  }
  [[nodiscard]] double max() const {
    return count_ == 0 ? std::numeric_limits<double>::quiet_NaN() : max_;
  }

  [[nodiscard]] double quantile(double q) const {
    if (count_ == 0 || std::isnan(q)) return std::numeric_limits<double>::quiet_NaN();
    q = std::clamp(q, 0.0, 1.0);
    if (q == 0.0) return min_;
    if (q == 1.0) return max_;
    gather();
    auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_)));
    rank = std::clamp<std::uint64_t>(rank, 1, count_);
    std::uint64_t cumulative = 0;
    for (const Weighted& w : scratch_) {
      cumulative += w.weight;
      if (cumulative >= rank) return w.value;
    }
    return max_;
  }

  [[nodiscard]] bool exact() const { return exact_; }

  [[nodiscard]] std::size_t retained() const {
    std::size_t total = merged_.size();
    for (std::size_t l = 0; l < kMaxLevels; ++l) total += size_[l];
    return total;
  }

 private:
  static constexpr std::size_t kMaxLevels = 48;

  struct Weighted {
    double value;
    std::uint64_t weight;
  };

  void compact(std::size_t level) {
    RTMAC_ASSERT(level + 1 < kMaxLevels, "sketch level hierarchy overflow");
    exact_ = false;
    if (storage_.size() == capacity_[0]) {
      storage_.resize(offset_[kMaxLevels - 1] + capacity_[kMaxLevels - 1]);
    }
    double* base = storage_.data() + offset_[level];
    const std::uint32_t n = size_[level];
    std::sort(base, base + n);
    const std::uint32_t survivors = n & 1U;
    const std::uint32_t even = n - survivors;
    const auto start = static_cast<std::uint32_t>(coin_.next_u64() & 1U);
    double* up = storage_.data() + offset_[level + 1];
    std::uint32_t up_n = size_[level + 1];
    for (std::uint32_t i = start; i < even; i += 2) up[up_n++] = base[i];
    if (survivors != 0) base[0] = base[n - 1];
    size_[level] = survivors;
    size_[level + 1] = up_n;
    if (up_n >= opts_.k) compact(level + 1);
  }

  void gather() const {
    if (gathered_) return;
    scratch_.clear();
    for (std::size_t l = 0; l < kMaxLevels; ++l) {
      if (size_[l] == 0) continue;
      const double* base = storage_.data() + offset_[l];
      for (std::uint32_t i = 0; i < size_[l]; ++i) {
        scratch_.push_back(Weighted{base[i], std::uint64_t{1} << l});
      }
    }
    scratch_.insert(scratch_.end(), merged_.begin(), merged_.end());
    std::sort(scratch_.begin(), scratch_.end(), [](const Weighted& a, const Weighted& b) {
      return a.value < b.value || (a.value == b.value && a.weight < b.weight);  // lint-ok: float-equality total order for determinism
    });
    gathered_ = true;
  }

  SketchOptions opts_;
  Rng coin_;
  std::vector<double> storage_;
  std::array<std::uint32_t, kMaxLevels> offset_{};
  std::array<std::uint32_t, kMaxLevels> capacity_{};
  std::array<std::uint32_t, kMaxLevels> size_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  bool exact_ = true;
  std::vector<Weighted> merged_;
  std::vector<double> merged_sums_;
  mutable std::vector<Weighted> scratch_;
  mutable bool gathered_ = false;
};

}  // namespace rtmac::obs::reference
