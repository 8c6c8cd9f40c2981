// Carrier-sense backoff countdown with freeze/resume semantics.
//
// Standard listen-before-talk timing, shared by every contention-based MAC
// in this library: a counter of B backoff slots decrements once per slot
// while the medium is idle, freezes whenever the medium turns busy
// (discarding partial-slot progress, as in 802.11), resumes on idle, and
// fires an expiry callback when it reaches zero.
//
// For the DP protocol's swap detection (paper eqs. 7-8) the engine records
// the counter value at every freeze: "the channel was busy when the backoff
// timer decreased to 1" is exactly "a freeze occurred while the remaining
// count was 1", because with the DP protocol's unique backoff assignment the
// only transmission that can start one slot before ours is the swap
// partner's.
#pragma once

#include <vector>

#include "core/types.hpp"
#include "phy/medium.hpp"
#include "sim/simulator.hpp"
#include "util/inplace_function.hpp"
#include "util/time.hpp"

namespace rtmac::mac {

/// One countdown instance. Register it with the Medium once; start()/stop()
/// as often as needed. Not running between stop()/expiry and next start().
class BackoffEngine final : public phy::MediumListener {
 public:
  /// `sense_node` selects which sense view drives freeze/resume: the
  /// owning link's id for a real device (it freezes only on transmissions
  /// it can hear — under partial topologies that is strictly less than the
  /// global channel state), or Medium::kAllNodes for the global view (the
  /// default, which on a complete graph is the same thing).
  BackoffEngine(sim::Simulator& simulator, phy::Medium& medium, Duration slot,
                LinkId sense_node = phy::Medium::kAllNodes);

  BackoffEngine(const BackoffEngine&) = delete;
  BackoffEngine& operator=(const BackoffEngine&) = delete;

  /// Expiry callback type: inline-stored, so arming a countdown never
  /// allocates (protocol state machines re-arm every interval).
  using ExpiryCallback = util::InplaceFunction<void()>;

  /// Arms the countdown at `count` slots (count >= 0). `on_expire` fires
  /// through the event queue when the counter reaches zero (a count of 0
  /// on an idle medium expires after a zero-delay event hop, preserving the
  /// no-synchronous-transmit rule). Any previous countdown is discarded.
  void start(int count, ExpiryCallback on_expire);

  /// Disarms; freeze records are kept until the next start().
  void stop();

  [[nodiscard]] bool running() const { return running_; }

  /// Remaining slot count (live countdowns report the value as of the last
  /// slot boundary).
  [[nodiscard]] int remaining() const;

  /// True iff, since the last start(), the medium turned busy while the
  /// remaining count was exactly `value`.
  [[nodiscard]] bool was_frozen_at(int value) const;

  /// True iff the countdown reached zero and the expiry callback fired.
  [[nodiscard]] bool expired() const { return expired_; }

  /// Labels this engine's trace events with the owning link (tracing flows
  /// through the Medium's attached Tracer; see phy::Medium::set_tracer).
  /// The same label names this engine's metrics (freeze-time accounting
  /// flows through the Medium's attached MetricsRegistry).
  void set_trace_link(LinkId link) { trace_link_ = link; }

  /// Total time this engine has spent frozen (medium busy while armed)
  /// since construction. Always tracked; also exported to the metrics
  /// registry when one is attached to the Medium.
  [[nodiscard]] Duration total_frozen_time() const { return total_frozen_; }

  // phy::MediumListener:
  void on_medium_busy(TimePoint t) override;
  void on_medium_idle(TimePoint t) override;

 private:
  void arm_expiry(TimePoint resume_at);
  void fire_expiry();

  void trace(sim::TraceKind kind, std::int64_t a = 0);
  void account_freeze(Duration frozen_for);

  sim::Simulator& sim_;
  phy::Medium& medium_;
  Duration slot_;
  LinkId sense_node_;  ///< whose sense view this engine observes
  LinkId trace_link_ = sim::kNoLink;

  bool running_ = false;
  bool frozen_ = false;     ///< true while medium busy (or awaiting first idle)
  int count_ = 0;           ///< remaining slots while frozen
  TimePoint resume_time_;   ///< when the live countdown last (re)started
  TimePoint frozen_since_;  ///< when the current freeze began (valid while frozen_)
  int count_at_resume_ = 0;
  sim::EventId expiry_event_;
  bool expired_ = false;
  ExpiryCallback on_expire_;
  std::vector<int> freeze_values_;

  Duration total_frozen_;
  // Cached metric handles, re-resolved when the Medium's registry changes
  // (attachment may happen after construction, like the tracer).
  obs::MetricsRegistry* metrics_seen_ = nullptr;
  obs::Histogram* freeze_hist_ = nullptr;
  obs::Counter* freeze_ns_ = nullptr;
};

}  // namespace rtmac::mac
