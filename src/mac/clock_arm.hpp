// The backoff-clock choice shared by every contention MAC (DCF, FCSMA, DP).
//
// A complete-sensing domain counts every countdown on ONE shared clock
// (SharedBackoffClock for DCF/FCSMA, DpBatchBackoff for DP): one listener
// visit per busy/idle edge and one pending expiry event for the domain.
// Otherwise (hidden terminals) each link counts down on its own
// BackoffEngine over its own sense view. ClockArm makes that choice once and
// owns the clock it built; each scheme still arms it its own way.
// Non-virtual, so the hot path pays one pointer test.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "mac/backoff_engine.hpp"
#include "mac/link_mac.hpp"

namespace rtmac::mac {

template <class SharedClock>
class ClockArm {
 public:
  /// `shared_args` follow (simulator, medium, slot, num_links) in
  /// SharedClock's constructor. `label_engines` names each engine's traces
  /// and freeze counter by its link's global id (DP); unlabelled engines
  /// share one "mac.freeze_ns" counter, as SharedBackoffClock does.
  template <class... SharedArgs>
  ClockArm(const SchemeContext& ctx, Duration slot, bool label_engines,
           SharedArgs&&... shared_args) {
    if (ctx.medium.topology().complete_sensing()) {
      shared_ = std::make_unique<SharedClock>(ctx.simulator, ctx.medium, slot, ctx.num_links,
                                              std::forward<SharedArgs>(shared_args)...);
      return;
    }
    // Built in link order (their listener order); each registers itself with
    // the Medium, so they live behind pointers and never move.
    engines_.reserve(ctx.num_links);
    for (LinkId n = 0; n < ctx.num_links; ++n) {
      engines_.push_back(std::make_unique<BackoffEngine>(ctx.simulator, ctx.medium, slot, n));
      if (label_engines) engines_.back()->set_trace_link(ctx.global_id(n));
    }
  }

  /// The shared clock, or null when every link has its own engine().
  [[nodiscard]] SharedClock* shared() const { return shared_.get(); }
  [[nodiscard]] BackoffEngine& engine(LinkId n) const { return *engines_[n]; }
  [[nodiscard]] bool batch_path() const { return shared_ != nullptr; }
  [[nodiscard]] std::size_t pending_events_per_link() const { return batch_path() ? 1 : 6; }

  /// Disarms every countdown at the interval boundary (engines in link order).
  void stop() {
    if (shared_ != nullptr) shared_->stop();
    for (const auto& engine : engines_) engine->stop();
  }

  [[nodiscard]] std::size_t memory_bytes() const {
    return (shared_ != nullptr ? shared_->memory_bytes() : 0) +
           engines_.capacity() * sizeof(engines_[0]) + engines_.size() * sizeof(BackoffEngine);
  }

 private:
  std::unique_ptr<SharedClock> shared_;
  std::vector<std::unique_ptr<BackoffEngine>> engines_;
};

}  // namespace rtmac::mac
