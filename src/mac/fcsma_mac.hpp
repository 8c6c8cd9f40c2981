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
// bench/ablation_fcsma_windows.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/influence.hpp"
#include "mac/backoff_engine.hpp"
#include "mac/link_mac.hpp"
#include "mac/shared_backoff_clock.hpp"
#include "util/rng.hpp"

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

/// MacScheme running N FCSMA links (contend, transmit one packet, redraw).
///
/// One layout: flat SoA per-link state (RNG stream, window, buffer). Only
/// the backoff clock depends on the cell's sense views: one
/// SharedBackoffClock for a complete-sensing domain, otherwise one
/// BackoffEngine per link on its own sense view (hidden terminals). Both
/// clocks consume the same per-link RNG streams in the same order.
class FcsmaScheme final : public MacScheme {
 public:
  FcsmaScheme(const SchemeContext& ctx, FcsmaParams params, std::string name);

  void begin_interval(IntervalIndex k, std::span<const int> arrivals,
                      TimePoint interval_end) override;
  void end_interval(std::span<int> delivered) override;
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::size_t memory_bytes() const override;
  [[nodiscard]] std::size_t pending_events_per_link() const override {
    return clock_ != nullptr ? 1 : 6;
  }

  /// True when one shared clock drives every countdown (complete sensing).
  [[nodiscard]] bool batch_path() const { return clock_ != nullptr; }

  /// Contention window link n selected for the current interval
  /// (diagnostics).
  [[nodiscard]] int current_window(LinkId n) const { return window_[n]; }

 private:
  void contend(LinkId n);
  void on_backoff_expired(LinkId n);
  void on_tx_done(LinkId n, phy::TxOutcome outcome);

  FcsmaParams params_;
  sim::Simulator& sim_;
  phy::Medium& medium_;
  const core::DebtTracker& debts_;
  const ProbabilityVector& p_;
  Duration data_airtime_;

  // Exactly one clock: the shared one, or one engine per link.
  std::unique_ptr<SharedBackoffClock> clock_;
  // Built in link order (their listener order); each registered `this` with
  // the Medium, so they live behind pointers and never move.
  std::vector<std::unique_ptr<BackoffEngine>> engines_;

  // Per-link state (SoA, indexed by local link id).
  std::vector<Rng> rng_;
  std::vector<int> window_;
  std::vector<int> buffer_;
  std::vector<int> delivered_;
  TimePoint interval_end_;

  std::string name_;
};

/// Maps a debt weight to a window size per the section quantisation.
/// Exposed for unit tests.
[[nodiscard]] int fcsma_window_for_weight(double weight, const FcsmaParams& params);

}  // namespace rtmac::mac
