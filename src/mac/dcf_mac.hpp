// 802.11 DCF-style exponential-backoff baseline (extension).
//
// Not part of the paper's evaluation, but the paper's motivation cites
// Bianchi's analysis of DCF collision loss; this scheme makes that loss
// directly measurable inside the same harness. Plain CSMA/CA: uniform
// backoff in [0, CW-1], CW doubling from cw_min to cw_max on every failed
// attempt (collision or channel loss), reset to cw_min on success. Debt- and
// deadline-oblivious within an interval except for the standard gap rule.
// The contention loop itself is ContentionScheme (mac/contention_mac.hpp).
#pragma once

#include <algorithm>
#include <cstdint>

#include "mac/contention_mac.hpp"

namespace rtmac::mac {

/// Contention-window doubling parameters (802.11a defaults).
struct DcfParams {
  int cw_min = 16;
  int cw_max = 1024;
};

/// Binary exponential backoff. A link's window persists across intervals.
class DcfWindow {
 public:
  using Params = DcfParams;
  static constexpr std::uint64_t kStreamTag = 0xDCF00000000ULL;

  /// Throws std::invalid_argument unless 1 <= cw_min <= cw_max.
  DcfWindow(const SchemeContext& ctx, DcfParams params);

  [[nodiscard]] int initial_window() const { return params_.cw_min; }
  void on_interval(LinkId /*n*/, int& /*window*/) const {}
  void on_outcome(bool delivered, int& window) const {
    window = delivered ? params_.cw_min : std::min(window * 2, params_.cw_max);
  }

 private:
  DcfParams params_;
};

extern template class ContentionScheme<DcfWindow>;

/// MacScheme running N DCF links.
using DcfScheme = ContentionScheme<DcfWindow>;

}  // namespace rtmac::mac
