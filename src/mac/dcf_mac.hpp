// 802.11 DCF-style exponential-backoff baseline (extension).
//
// Not part of the paper's evaluation, but the paper's motivation cites
// Bianchi's analysis of DCF collision loss; this scheme makes that loss
// directly measurable inside the same harness. Plain CSMA/CA: uniform
// backoff in [0, CW-1], CW doubling from cw_min to cw_max on every failed
// attempt (collision or channel loss), reset to cw_min on success. Debt- and
// deadline-oblivious within an interval except for the standard gap rule.
//
// One layout: flat SoA per-link state (window, buffer, RNG stream). Only the
// backoff clock depends on the cell's sense views. A complete-sensing domain
// arms ONE SharedBackoffClock (one listener visit per busy/idle edge, one
// pending expiry event for the domain); otherwise each link counts down on
// its own BackoffEngine over its own sense view (hidden terminals). Both
// clocks consume the same per-link RNG streams in the same order.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mac/backoff_engine.hpp"
#include "mac/link_mac.hpp"
#include "mac/shared_backoff_clock.hpp"
#include "util/rng.hpp"

namespace rtmac::mac {

/// Contention-window doubling parameters (802.11a defaults).
struct DcfParams {
  int cw_min = 16;
  int cw_max = 1024;
};

/// MacScheme running N DCF links.
class DcfScheme final : public MacScheme {
 public:
  DcfScheme(const SchemeContext& ctx, DcfParams params, std::string name);

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

  /// Link n's contention window (diagnostics).
  [[nodiscard]] int current_window(LinkId n) const { return cw_[n]; }

 private:
  void contend(LinkId n);
  void on_backoff_expired(LinkId n);
  void on_tx_done(LinkId n, phy::TxOutcome outcome);

  sim::Simulator& sim_;
  phy::Medium& medium_;
  DcfParams params_;
  Duration data_airtime_;

  // Exactly one clock: the shared one, or one engine per link.
  std::unique_ptr<SharedBackoffClock> clock_;
  // Built in link order (their listener order); each registered `this` with
  // the Medium, so they live behind pointers and never move.
  std::vector<std::unique_ptr<BackoffEngine>> engines_;

  // Per-link state (SoA, indexed by local link id).
  std::vector<Rng> rng_;
  std::vector<int> cw_;
  std::vector<int> buffer_;
  std::vector<int> delivered_;
  TimePoint interval_end_;

  std::string name_;
};

}  // namespace rtmac::mac
