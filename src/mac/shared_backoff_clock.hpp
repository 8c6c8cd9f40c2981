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
//   * Armed countdowns live in one indexed min-heap of links keyed by
//     (deadline, tie key), and the whole domain holds ONE pending simulator
//     event (the earliest deadline). A busy edge parks that event (one
//     reschedule) instead of visiting N listeners; an idle edge re-arms it
//     (one reschedule).
//   * Tie order is result-affecting (complete domains draw channel losses
//     from one shared stream in completion order), so equal deadlines fire
//     in the order per-link engines' event-queue sequence numbers give
//     them: a resume puts the links that armed live at the last completion
//     first, in arm order (their engines scheduled in the outcome
//     callbacks), then every frozen countdown in link order (the listener
//     order the idle sweep resumes engines in); a countdown armed after
//     that resume goes last, in arm order. The tie key encodes that class
//     and order. At a resume only two groups change class — the arms since
//     the previous resume and that resume's live arms — so only they are
//     re-keyed: O(k log N) per idle edge for k such countdowns, not a sort.
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

  /// Starts a countdown of `count` slots for link n, which must not be
  /// armed (one per-link BackoffEngine::start). Legal at the current resume
  /// instant or while the medium is busy — the only places the CSMA schemes
  /// arm. Does not touch the simulator event until finish_arming() (inside
  /// begin_interval's arm loop) or immediately (mid-interval re-arms).
  void arm(LinkId n, int count);

  /// Schedules the domain expiry event after begin_interval's arm loop.
  void finish_arming();

  /// Disarms everything at the interval boundary (per-link engines: stop()
  /// on every engine, in link order — freeze accounting is closed the same
  /// way).
  void stop();

  /// Bytes of long-lived storage (per-link state, heap and re-key list),
  /// for mem gauges.
  [[nodiscard]] std::size_t memory_bytes() const {
    return countdowns_.capacity() * sizeof(Countdown) +
           (heap_.capacity() + rekey_.capacity()) * sizeof(LinkId);
  }

  // phy::MediumListener:
  void on_medium_busy(TimePoint t) override;
  void on_medium_idle(TimePoint t) override;

 private:
  /// Tie classes, in firing order among equal deadlines: the top two bits
  /// of a tie key. The low bits order a class — the arm sequence, or the
  /// link id for kByLink.
  enum TieClass : std::uint64_t {
    kLive = 0,    ///< armed live at the completion that ended the last freeze
    kByLink = 1,  ///< resumed from a freeze, or armed before the last resume
    kLate = 2,    ///< armed since the last resume, not live at a completion
    kAtEdge = 3,  ///< armed live at the completion ending the current freeze
  };
  static constexpr int kClassShift = 62;
  static constexpr std::uint64_t kOrderMask = (std::uint64_t{1} << kClassShift) - 1;
  static constexpr std::uint32_t kUnarmed = ~std::uint32_t{0};

  /// One link's countdown, armed while `pos` != kUnarmed.
  struct Countdown {
    std::int64_t deadline = 0;     ///< on the shared elapsed-slot axis
    std::uint64_t key = 0;         ///< (TieClass << kClassShift) | order
    TimePoint arm_time;            ///< frozen arms account their freeze from here
    std::uint32_t pos = kUnarmed;  ///< index in heap_
    bool queued = false;           ///< listed in rekey_
  };

  [[nodiscard]] static std::uint64_t tie_key(TieClass c, std::uint64_t order) {
    return (std::uint64_t{c} << kClassShift) | order;
  }
  [[nodiscard]] static TieClass tie_class(const Countdown& c) {
    return static_cast<TieClass>(c.key >> kClassShift);
  }
  [[nodiscard]] bool before(LinkId a, LinkId b) const {
    const Countdown& x = countdowns_[a];
    const Countdown& y = countdowns_[b];
    return x.deadline != y.deadline ? x.deadline < y.deadline : x.key < y.key;
  }
  [[nodiscard]] std::int64_t elapsed_now() const {
    return frozen_ ? elapsed_frozen_ : elapsed_at_resume_;
  }
  void place(std::size_t i, LinkId n);
  void sift(std::size_t i);
  LinkId heap_pop();
  void arm_event();
  void fire();
  void rekey();
  void account_freezes(TimePoint resume_at);

  sim::Simulator& sim_;
  phy::Medium& medium_;
  Duration slot_;
  ExpiryHandler on_expire_;

  std::vector<Countdown> countdowns_;  ///< per link
  std::vector<LinkId> heap_;           ///< armed links, min-heap by before()
  std::vector<LinkId> rekey_;          ///< links whose tie class the next resume changes
  std::uint64_t next_seq_ = 0;         ///< arm sequence

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
