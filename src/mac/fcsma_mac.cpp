#include "mac/fcsma_mac.hpp"

#include <cmath>

#include "util/check.hpp"

namespace rtmac::mac {

int fcsma_window_for_weight(double weight, const FcsmaParams& params) {
  RTMAC_REQUIRE(!params.window_sizes.empty());
  RTMAC_REQUIRE(params.section_width > 0.0);
  const auto section = static_cast<std::size_t>(
      std::max(0.0, std::floor(weight / params.section_width)));
  const std::size_t clamped = std::min(section, params.window_sizes.size() - 1);
  return params.window_sizes[clamped];
}

FcsmaScheme::FcsmaScheme(const SchemeContext& ctx, FcsmaParams params, std::string name)
    : params_{std::move(params)},
      sim_{ctx.simulator},
      medium_{ctx.medium},
      debts_{ctx.debts},
      p_{ctx.success_prob},
      data_airtime_{ctx.phy.data_airtime},
      name_{std::move(name)} {
  if (ctx.medium.topology().complete_sensing()) {
    clock_ = std::make_unique<SharedBackoffClock>(
        ctx.simulator, ctx.medium, ctx.phy.backoff_slot, ctx.num_links,
        [this](LinkId n) { on_backoff_expired(n); });
  } else {
    engines_.reserve(ctx.num_links);
    for (LinkId n = 0; n < ctx.num_links; ++n) {
      engines_.push_back(
          std::make_unique<BackoffEngine>(ctx.simulator, ctx.medium, ctx.phy.backoff_slot, n));
    }
  }
  rng_.reserve(ctx.num_links);
  for (LinkId n = 0; n < ctx.num_links; ++n) {
    rng_.emplace_back(ctx.seed, /*stream_id=*/0xFC500000000ULL + ctx.global_id(n));
  }
  window_.assign(ctx.num_links, 1);
  buffer_.assign(ctx.num_links, 0);
  delivered_.assign(ctx.num_links, 0);
}

std::size_t FcsmaScheme::memory_bytes() const {
  return rng_.capacity() * sizeof(Rng) +
         (window_.capacity() + buffer_.capacity() + delivered_.capacity()) * sizeof(int) +
         (clock_ != nullptr ? clock_->memory_bytes() : 0) +
         engines_.capacity() * sizeof(engines_[0]) + engines_.size() * sizeof(BackoffEngine);
}

void FcsmaScheme::contend(LinkId n) {
  const int draw = static_cast<int>(rng_[n].uniform_int(0, window_[n] - 1));
  if (clock_ != nullptr) {
    clock_->arm(n, draw);
  } else {
    engines_[n]->start(draw, [this, n] { on_backoff_expired(n); });
  }
}

void FcsmaScheme::on_backoff_expired(LinkId n) {
  if (sim_.now() + data_airtime_ > interval_end_) return;  // deadline gap rule
  medium_.start_transmission(n, data_airtime_, phy::PacketKind::kData,
                             [this, n](phy::TxOutcome o) { on_tx_done(n, o); });
}

void FcsmaScheme::on_tx_done(LinkId n, phy::TxOutcome outcome) {
  if (outcome == phy::TxOutcome::kDelivered) {
    --buffer_[n];
    ++delivered_[n];
  }
  // Collision or channel loss: the packet stays queued. Either way the link
  // redraws a fresh backoff for its next attempt.
  if (buffer_[n] > 0) contend(n);
}

void FcsmaScheme::begin_interval(IntervalIndex, std::span<const int> arrivals,
                                 TimePoint interval_end) {
  RTMAC_REQUIRE(arrivals.size() == buffer_.size());
  interval_end_ = interval_end;
  if (clock_ != nullptr) clock_->begin_interval(sim_.now());
  for (LinkId n = 0; n < buffer_.size(); ++n) {
    RTMAC_REQUIRE(arrivals[n] >= 0);
    buffer_[n] = arrivals[n];
    delivered_[n] = 0;
    // The window reacts to debt once per interval (the discretized design:
    // the mapping is static within an interval and saturates for large debt).
    const double weight = params_.influence(debts_.debt_plus(n)) * p_[n];
    window_[n] = fcsma_window_for_weight(weight, params_);
    if (buffer_[n] > 0) contend(n);
  }
  if (clock_ != nullptr) clock_->finish_arming();
}

void FcsmaScheme::end_interval(std::span<int> delivered) {
  RTMAC_REQUIRE(delivered.size() == buffer_.size());
  if (clock_ != nullptr) clock_->stop();
  for (const auto& engine : engines_) engine->stop();
  for (LinkId n = 0; n < buffer_.size(); ++n) {
    delivered[n] = delivered_[n];
    buffer_[n] = 0;
  }
}

}  // namespace rtmac::mac
