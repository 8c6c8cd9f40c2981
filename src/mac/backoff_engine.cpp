#include "mac/backoff_engine.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "util/check.hpp"

namespace rtmac::mac {

BackoffEngine::BackoffEngine(sim::Simulator& simulator, phy::Medium& medium, Duration slot,
                             LinkId sense_node)
    : sim_{simulator}, medium_{medium}, slot_{slot}, sense_node_{sense_node} {
  RTMAC_REQUIRE(slot > Duration{});
  medium_.add_listener(this, sense_node_);
}

void BackoffEngine::trace(sim::TraceKind kind, std::int64_t a) {
  if (sim::Tracer* tracer = medium_.tracer(); tracer != nullptr) {
    tracer->record(sim_.now(), kind, trace_link_, a);
  }
}

void BackoffEngine::account_freeze(Duration frozen_for) {
  total_frozen_ += frozen_for;
  // Handles are cached across events and re-resolved only when the Medium's
  // registry changes; detached cost is one pointer compare.
  if (obs::MetricsRegistry* m = medium_.metrics(); m != metrics_seen_) {
    metrics_seen_ = m;
    if (m == nullptr) {
      freeze_hist_ = nullptr;
      freeze_ns_ = nullptr;
    } else {
      // Freezes last one airtime to most of an interval: ~3 us to ~65 ms.
      freeze_hist_ = &m->histogram("mac.backoff_freeze_us", obs::log_bounds(1.0, 65536.0, 2.0));
      freeze_ns_ = &m->counter(trace_link_ == sim::kNoLink
                                   ? std::string{"mac.freeze_ns"}
                                   : obs::link_metric("mac.freeze_ns", trace_link_));
    }
  }
  if (freeze_hist_ != nullptr) {
    freeze_hist_->observe(frozen_for.us_f());
    freeze_ns_->inc(static_cast<std::uint64_t>(frozen_for.ns()));
  }
}

void BackoffEngine::start(int count, ExpiryCallback on_expire) {
  RTMAC_ASSERT(count >= 0);
  stop();
  running_ = true;
  expired_ = false;
  freeze_values_.clear();
  on_expire_ = std::move(on_expire);
  count_ = count;
  trace(sim::TraceKind::kBackoffArmed, count);
  if (medium_.sense_busy(sense_node_)) {
    frozen_ = true;  // begin counting at the next idle transition
    frozen_since_ = sim_.now();
  } else {
    frozen_ = false;
    arm_expiry(sim_.now());
  }
}

void BackoffEngine::stop() {
  if (expiry_event_.valid()) sim_.cancel(expiry_event_);
  expiry_event_ = {};
  running_ = false;
  if (frozen_) account_freeze(sim_.now() - frozen_since_);  // close the open freeze
  frozen_ = false;
  on_expire_ = nullptr;
}

int BackoffEngine::remaining() const {
  if (!running_) return 0;
  if (frozen_) return count_;
  // Live countdown: report the value as of the last completed slot boundary.
  const auto elapsed_slots = (sim_.now() - resume_time_).floor_div(slot_);
  return std::max(0, count_at_resume_ - static_cast<int>(elapsed_slots));
}

bool BackoffEngine::was_frozen_at(int value) const {
  return std::find(freeze_values_.begin(), freeze_values_.end(), value) != freeze_values_.end();
}

void BackoffEngine::arm_expiry(TimePoint resume_at) {
  resume_time_ = resume_at;
  count_at_resume_ = count_;
  const TimePoint expiry_at = resume_at + count_ * slot_;
  // Resuming from a freeze finds the expiry event parked at the far-future
  // sentinel (see on_medium_busy): move it rather than allocate a new one.
  // reschedule() takes a fresh FIFO sequence number, so same-timestamp
  // ordering is exactly what a cancel + fresh schedule_at would produce.
  if (!sim_.reschedule(expiry_event_, expiry_at)) {
    expiry_event_ = sim_.schedule_at(expiry_at, [this] { fire_expiry(); });
  }
}

void BackoffEngine::fire_expiry() {
  expiry_event_ = {};
  running_ = false;
  frozen_ = false;
  count_ = 0;
  expired_ = true;
  trace(sim::TraceKind::kBackoffExpired);
  // Move the callback out: it commonly re-arms this engine.
  auto cb = std::move(on_expire_);
  on_expire_ = nullptr;
  if (cb) cb();
}

void BackoffEngine::on_medium_busy(TimePoint t) {
  if (!running_ || frozen_) return;
  // Charge the countdown for full idle slots completed before the freeze;
  // partial-slot progress is discarded (802.11 semantics).
  const auto elapsed_slots = static_cast<int>((t - resume_time_).floor_div(slot_));
  const int count_after = count_at_resume_ - elapsed_slots;
  if (count_after <= 0) {
    // The busy transition coincides with our own expiry instant: the expiry
    // event is firing at this same timestamp; let it proceed (in CSMA terms,
    // both stations counted down to zero in the same slot and will collide).
    return;
  }
  // Park the expiry event at the far-future sentinel instead of cancelling
  // it: freeze/resume is the hottest churn in contention-heavy cells, and a
  // cancel + re-push per edge costs a tombstone (skimmed or compacted
  // later), a slot recycle, and a rebuilt callback, where two in-place
  // reschedules cost one O(log n) sift each. The parked event can never
  // fire (run horizons are finite) and keeps next_event_time() exact: a
  // frozen engine contributes no activity bound, same as a cancelled one.
  sim_.reschedule(expiry_event_, sim::Simulator::no_run_limit());
  count_ = count_after;
  frozen_ = true;
  frozen_since_ = t;
  // Steady state allocation-free: the first freeze reserves past the usual
  // depth (a countdown rarely freezes 16 times).
  if (freeze_values_.capacity() == 0) freeze_values_.reserve(16);
  freeze_values_.push_back(count_);
  trace(sim::TraceKind::kBackoffFrozen, count_);
}

void BackoffEngine::on_medium_idle(TimePoint t) {
  if (!running_ || !frozen_) return;
  frozen_ = false;
  account_freeze(t - frozen_since_);
  trace(sim::TraceKind::kBackoffResumed, count_);
  arm_expiry(t);
}

}  // namespace rtmac::mac
