// Random-backoff CSMA: the FCSMA baseline and the DCF extension.
//
// Every link draws a backoff uniformly from [0, W-1], counts it down, sends
// one packet at expiry if it still fits before the deadline (the gap rule),
// and redraws after every attempt while packets remain. The two schemes
// differ only in how a link picks W, so the window rule is a compile-time
// policy (DcfWindow, FcsmaWindow) and the hot path makes no virtual call. A
// rule has `Params`, an RNG stream tag `kStreamTag`, a (ctx, params)
// constructor that throws std::invalid_argument on any window that could
// fall below 1, initial_window(), on_interval(n, w) (once per interval,
// before link n contends) and on_outcome(delivered, w) (after each attempt).
// Only the backoff clock depends on the sense views (ClockArm); both clocks
// consume the same per-link RNG streams in the same order.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mac/clock_arm.hpp"
#include "mac/shared_backoff_clock.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace rtmac::mac {

template <class WindowRule>
class ContentionScheme final : public MacScheme {
 public:
  using Params = typename WindowRule::Params;

  /// Throws std::invalid_argument when the rule rejects `params`; the rule
  /// is checked before the clock registers with the Medium.
  ContentionScheme(const SchemeContext& ctx, Params params, std::string name)
      : sim_{ctx.simulator},
        medium_{ctx.medium},
        data_airtime_{ctx.phy.data_airtime},
        rule_{ctx, std::move(params)},
        clock_{ctx, ctx.phy.backoff_slot, /*label_engines=*/false,
               [this](LinkId n) { on_backoff_expired(n); }},
        window_(ctx.num_links, rule_.initial_window()),
        buffer_(ctx.num_links, 0),
        delivered_(ctx.num_links, 0),
        name_{std::move(name)} {
    rng_.reserve(ctx.num_links);
    for (LinkId n = 0; n < ctx.num_links; ++n) {
      rng_.emplace_back(ctx.seed, /*stream_id=*/WindowRule::kStreamTag + ctx.global_id(n));
    }
  }

  void begin_interval(IntervalIndex, std::span<const int> arrivals,
                      TimePoint interval_end) override {
    RTMAC_REQUIRE(arrivals.size() == buffer_.size());
    interval_end_ = interval_end;
    SharedBackoffClock* shared = clock_.shared();
    if (shared != nullptr) shared->begin_interval(sim_.now());
    for (LinkId n = 0; n < buffer_.size(); ++n) {
      RTMAC_REQUIRE(arrivals[n] >= 0);
      buffer_[n] = arrivals[n];
      delivered_[n] = 0;
      rule_.on_interval(n, window_[n]);
      if (buffer_[n] > 0) contend(n);
    }
    if (shared != nullptr) shared->finish_arming();
  }

  void end_interval(std::span<int> delivered) override {
    RTMAC_REQUIRE(delivered.size() == buffer_.size());
    clock_.stop();
    for (LinkId n = 0; n < buffer_.size(); ++n) {
      delivered[n] = delivered_[n];
      buffer_[n] = 0;
    }
  }

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::size_t memory_bytes() const override {
    return rng_.capacity() * sizeof(Rng) +
           (window_.capacity() + buffer_.capacity() + delivered_.capacity()) * sizeof(int) +
           clock_.memory_bytes();
  }
  [[nodiscard]] std::size_t pending_events_per_link() const override {
    return clock_.pending_events_per_link();
  }

  /// True when one shared clock drives every countdown (complete sensing).
  [[nodiscard]] bool batch_path() const { return clock_.batch_path(); }

  /// Link n's current contention window (diagnostics).
  [[nodiscard]] int current_window(LinkId n) const { return window_[n]; }

 private:
  void contend(LinkId n) {
    const int draw = static_cast<int>(rng_[n].uniform_int(0, window_[n] - 1));
    if (SharedBackoffClock* shared = clock_.shared(); shared != nullptr) {
      shared->arm(n, draw);
    } else {
      clock_.engine(n).start(draw, [this, n] { on_backoff_expired(n); });
    }
  }

  void on_backoff_expired(LinkId n) {
    if (sim_.now() + data_airtime_ > interval_end_) return;  // deadline gap rule
    medium_.start_transmission(n, data_airtime_, phy::PacketKind::kData,
                               [this, n](phy::TxOutcome o) { on_tx_done(n, o); });
  }

  void on_tx_done(LinkId n, phy::TxOutcome outcome) {
    const bool delivered = outcome == phy::TxOutcome::kDelivered;
    if (delivered) {
      --buffer_[n];
      ++delivered_[n];
    }
    rule_.on_outcome(delivered, window_[n]);
    if (buffer_[n] > 0) contend(n);
  }

  sim::Simulator& sim_;
  phy::Medium& medium_;
  Duration data_airtime_;
  WindowRule rule_;
  ClockArm<SharedBackoffClock> clock_;

  // Per-link state (SoA, indexed by local link id).
  std::vector<Rng> rng_;
  std::vector<int> window_;
  std::vector<int> buffer_;
  std::vector<int> delivered_;
  TimePoint interval_end_;

  std::string name_;
};

}  // namespace rtmac::mac
