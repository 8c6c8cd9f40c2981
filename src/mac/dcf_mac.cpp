#include "mac/dcf_mac.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace rtmac::mac {

DcfScheme::DcfScheme(const SchemeContext& ctx, DcfParams params, std::string name)
    : sim_{ctx.simulator},
      medium_{ctx.medium},
      params_{params},
      data_airtime_{ctx.phy.data_airtime},
      name_{std::move(name)} {
  RTMAC_REQUIRE(params.cw_min >= 1 && params.cw_max >= params.cw_min);
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
    rng_.emplace_back(ctx.seed, /*stream_id=*/0xDCF00000000ULL + ctx.global_id(n));
  }
  cw_.assign(ctx.num_links, params.cw_min);
  buffer_.assign(ctx.num_links, 0);
  delivered_.assign(ctx.num_links, 0);
}

std::size_t DcfScheme::memory_bytes() const {
  return rng_.capacity() * sizeof(Rng) +
         (cw_.capacity() + buffer_.capacity() + delivered_.capacity()) * sizeof(int) +
         (clock_ != nullptr ? clock_->memory_bytes() : 0) +
         engines_.capacity() * sizeof(engines_[0]) + engines_.size() * sizeof(BackoffEngine);
}

void DcfScheme::contend(LinkId n) {
  const int draw = static_cast<int>(rng_[n].uniform_int(0, cw_[n] - 1));
  if (clock_ != nullptr) {
    clock_->arm(n, draw);
  } else {
    engines_[n]->start(draw, [this, n] { on_backoff_expired(n); });
  }
}

void DcfScheme::on_backoff_expired(LinkId n) {
  if (sim_.now() + data_airtime_ > interval_end_) return;
  medium_.start_transmission(n, data_airtime_, phy::PacketKind::kData,
                             [this, n](phy::TxOutcome o) { on_tx_done(n, o); });
}

void DcfScheme::on_tx_done(LinkId n, phy::TxOutcome outcome) {
  if (outcome == phy::TxOutcome::kDelivered) {
    --buffer_[n];
    ++delivered_[n];
    cw_[n] = params_.cw_min;  // success resets the window
  } else {
    cw_[n] = std::min(cw_[n] * 2, params_.cw_max);  // binary exponential backoff
  }
  if (buffer_[n] > 0) contend(n);
}

void DcfScheme::begin_interval(IntervalIndex, std::span<const int> arrivals,
                               TimePoint interval_end) {
  RTMAC_REQUIRE(arrivals.size() == buffer_.size());
  interval_end_ = interval_end;
  if (clock_ != nullptr) clock_->begin_interval(sim_.now());
  for (LinkId n = 0; n < buffer_.size(); ++n) {
    buffer_[n] = arrivals[n];
    delivered_[n] = 0;
    if (buffer_[n] > 0) contend(n);
  }
  if (clock_ != nullptr) clock_->finish_arming();
}

void DcfScheme::end_interval(std::span<int> delivered) {
  RTMAC_REQUIRE(delivered.size() == buffer_.size());
  if (clock_ != nullptr) clock_->stop();
  for (const auto& engine : engines_) engine->stop();
  for (LinkId n = 0; n < buffer_.size(); ++n) {
    delivered[n] = delivered_[n];
    buffer_[n] = 0;
  }
}

}  // namespace rtmac::mac
