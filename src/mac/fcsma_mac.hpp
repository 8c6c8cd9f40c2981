// FCSMA baseline — discretized Fast-CSMA (Li & Eryilmaz [22] as evaluated
// by the paper).
//
// Each link contends with a RANDOM backoff drawn uniformly from a contention
// window whose size shrinks with the link's debt weight exp-style mapping:
// the weight w = f(d^+) p is quantised into a fixed number of sections, and
// each section has a predetermined window size. Two structural consequences
// the paper leans on, both reproduced here:
//   * random backoff means two links can draw the same residual count and
//     collide — collision rate grows with the number of contenders;
//   * the window mapping SATURATES: all debts beyond the top section get the
//     same (minimum) window, so FCSMA stops reacting to debt differences
//     precisely when debts are large (the Fig. 7 group-starvation effect).
//
// Reference [22] does not fix numerical constants in the paper text; the
// defaults below keep the documented structure and are swept by
// bench/ablation_fcsma_windows. The contention loop itself is
// ContentionScheme (mac/contention_mac.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "core/influence.hpp"
#include "mac/contention_mac.hpp"

namespace rtmac::mac {

/// Tunables of the discretized FCSMA.
///
/// Default constants are calibrated (bench/ablation_fcsma_windows) so the
/// baseline reproduces the paper's Fig. 3 behaviour: supporting roughly 70%
/// of the load the optimal schemes admit in the 20-link video scenario.
/// More aggressive ladders (e.g. saturating at CW=2) collapse under
/// collisions and make the baseline look unfairly bad.
struct FcsmaParams {
  core::Influence influence = core::Influence::paper_log();  ///< f in the weight
  /// Window size per debt section, most-patient first. The LAST entry serves
  /// every weight at or beyond the saturation threshold.
  std::vector<int> window_sizes = {128, 96, 64, 48, 32};
  /// Width of one section in weight units: section = floor(w / width).
  double section_width = 1.0;
};

/// Maps a debt weight to a window size per the section quantisation.
/// `params` must pass FcsmaWindow's constructor check. Exposed for unit tests.
[[nodiscard]] int fcsma_window_for_weight(double weight, const FcsmaParams& params);

/// Debt-driven windows: set once per interval from the link's weight, kept
/// through every retry within it (collision or loss leaves the packet
/// queued; the link just redraws).
class FcsmaWindow {
 public:
  using Params = FcsmaParams;
  static constexpr std::uint64_t kStreamTag = 0xFC500000000ULL;

  /// Throws std::invalid_argument unless the ladder is non-empty, every
  /// window is >= 1 and section_width > 0.
  FcsmaWindow(const SchemeContext& ctx, FcsmaParams params);

  [[nodiscard]] int initial_window() const { return 1; }
  void on_interval(LinkId n, int& window) const {
    window = fcsma_window_for_weight(params_.influence(debts_.debt_plus(n)) * p_[n], params_);
  }
  void on_outcome(bool /*delivered*/, int& /*window*/) const {}

 private:
  FcsmaParams params_;
  const core::DebtTracker& debts_;
  const ProbabilityVector& p_;
};

extern template class ContentionScheme<FcsmaWindow>;

/// MacScheme running N FCSMA links (contend, transmit one packet, redraw).
using FcsmaScheme = ContentionScheme<FcsmaWindow>;

}  // namespace rtmac::mac
