// One shared backoff clock for all CSMA countdowns of a complete-sensing
// collision domain, replacing N BackoffEngines for the random-window schemes
// (DCF, FCSMA).
//
// DpBatchBackoff already folds the DP protocol's N engines into one clock,
// but it leans on a DP-only invariant (windows are unique per interval, so
// expiries never tie). DCF and FCSMA draw windows at random and DO tie —
// that is exactly how their collisions happen — and they re-arm mid-interval
// after every transmission. This clock handles both, reproducing per-link
// engines' behaviour bit for bit:
//
//   * Under complete sensing every countdown freezes and resumes at the same
//     instants, and every transmission starts at an expiry instant — which is
//     always a whole number of slots past the last resume. Busy edges
//     therefore land exactly on shared slot boundaries, the 802.11
//     partial-slot discard never discards anything, and one elapsed-idle-slot
//     counter E serves every link: a countdown of c slots armed at elapsed
//     count e expires when E reaches the DEADLINE e + c.
//   * Armed countdowns live in one min-heap of (deadline, seq) entries and
//     the whole domain holds ONE pending simulator event (the earliest
//     deadline). A busy edge parks that event (one reschedule) instead of
//     visiting N listeners; an idle edge re-arms it (one reschedule).
//   * Tie order is result-affecting (complete domains draw channel losses
//     from one shared stream in completion order), so `seq` replays the
//     per-link engines' event-queue sequence numbers exactly: a link arming
//     while the medium is idle gets a fresh seq immediately, and every idle
//     edge re-issues seqs to the frozen countdowns in link order — the order
//     per-link engines registered as listeners and were resumed in.
//   * Countdowns due exactly at a busy edge must still fire (the per-link
//     engines' count_after <= 0 rule: both stations counted down to zero in
//     the same slot and will collide), so fire() keeps a same-instant tie
//     visible in the simulator queue before running the expiry handler, and
//     the busy edge only parks the domain event when it is strictly in the
//     future.
//
// Tracer and metrics emulation mirror DpBatchBackoff: per-link freeze/resume
// records in link order, and the same shared "mac.freeze_ns" counter and
// freeze histogram the label-less per-link engines feed.
//
// Registers itself as a global-view Medium listener at construction; must
// outlive the run (same contract as BackoffEngine).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "phy/medium.hpp"
#include "sim/simulator.hpp"
#include "util/inplace_function.hpp"
#include "util/time.hpp"

namespace rtmac::mac {

class SharedBackoffClock final : public phy::MediumListener {
 public:
  /// Fired through the event queue when a link's countdown expires;
  /// inline-stored so re-arming never allocates.
  using ExpiryHandler = util::InplaceFunction<void(LinkId)>;

  SharedBackoffClock(sim::Simulator& simulator, phy::Medium& medium, Duration slot,
                     std::size_t num_links, ExpiryHandler on_expire);

  SharedBackoffClock(const SharedBackoffClock&) = delete;
  SharedBackoffClock& operator=(const SharedBackoffClock&) = delete;

  /// Resets the clock's slot phase for a new interval (countdowns from the
  /// previous interval must have been stop()ped). Call before the arm loop;
  /// finish_arming() closes it.
  void begin_interval(TimePoint now);

  /// Starts a countdown of `count` slots for link n (one per-link
  /// BackoffEngine::start). Legal at the current resume instant or while the
  /// medium is busy — the only places the CSMA schemes arm. Does not touch
  /// the simulator event until finish_arming() (inside begin_interval's arm
  /// loop) or immediately (mid-interval re-arms).
  void arm(LinkId n, int count);

  /// Schedules the domain expiry event after begin_interval's arm loop.
  void finish_arming();

  /// Disarms everything at the interval boundary (per-link engines: stop()
  /// on every engine, in link order — freeze accounting is closed the same
  /// way).
  void stop();

  /// Bytes of long-lived storage (the armed heap), for mem gauges.
  [[nodiscard]] std::size_t memory_bytes() const {
    return heap_.capacity() * sizeof(Entry) +
           trace_scratch_.capacity() * sizeof(trace_scratch_[0]);
  }

  // phy::MediumListener:
  void on_medium_busy(TimePoint t) override;
  void on_medium_idle(TimePoint t) override;

 private:
  /// One armed countdown. `deadline` is on the shared elapsed-slot axis;
  /// `seq` replays a per-link engine's event-queue sequence number;
  /// `arm_epoch`/`live`/`arm_time` classify the entry at the next idle edge
  /// (armed since the busy edge began / armed while the medium sensed idle /
  /// when — frozen arms account their freeze from the arm instant).
  struct Entry {
    std::int64_t deadline;
    std::uint64_t seq;
    LinkId link;
    std::uint64_t arm_epoch;
    bool live;
    TimePoint arm_time;
  };

  [[nodiscard]] std::int64_t elapsed_now() const {
    return frozen_ ? elapsed_frozen_ : elapsed_at_resume_;
  }
  void heap_push(Entry e);
  Entry heap_pop();
  void arm_event();
  void fire();
  void resequence();
  void account_freezes(TimePoint resume_at);

  sim::Simulator& sim_;
  phy::Medium& medium_;
  Duration slot_;
  std::size_t num_links_;
  ExpiryHandler on_expire_;

  std::vector<Entry> heap_;  ///< min-heap by (deadline, seq)
  std::vector<std::pair<LinkId, int>> trace_scratch_;  ///< link-order tracer walk
  std::uint64_t next_seq_ = 0;
  std::uint64_t busy_epoch_ = 0;  ///< bumped at every busy edge

  bool arming_ = false;  ///< inside begin_interval's arm loop
  bool in_interval_ = false;
  bool frozen_ = false;
  std::int64_t elapsed_at_resume_ = 0;  ///< whole slots elapsed when last resumed
  std::int64_t elapsed_frozen_ = 0;     ///< elapsed count captured at the freeze
  TimePoint resume_time_;               ///< when the shared clock last (re)started
  TimePoint freeze_time_;               ///< when the current freeze began
  sim::EventId expiry_event_;
  TimePoint event_wall_;  ///< wall time expiry_event_ is scheduled at (while valid)

  // Cached metric handles, re-resolved when the Medium's registry changes
  // (parity with per-link engines' shared-label freeze accounting).
  obs::MetricsRegistry* metrics_seen_ = nullptr;
  obs::Histogram* freeze_hist_ = nullptr;
  obs::Counter* freeze_ns_ = nullptr;
};

}  // namespace rtmac::mac
