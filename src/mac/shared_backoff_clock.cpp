#include "mac/shared_backoff_clock.hpp"

#include <utility>

#include "util/check.hpp"

namespace rtmac::mac {

SharedBackoffClock::SharedBackoffClock(sim::Simulator& simulator, phy::Medium& medium,
                                       Duration slot, std::size_t num_links,
                                       ExpiryHandler on_expire)
    : sim_{simulator},
      medium_{medium},
      slot_{slot},
      on_expire_{std::move(on_expire)},
      countdowns_(num_links) {
  RTMAC_REQUIRE(slot.ns() > 0);
  heap_.reserve(num_links);
  rekey_.reserve(num_links);
  medium_.add_listener(this);  // global view: the domain has complete sensing
}

void SharedBackoffClock::place(std::size_t i, LinkId n) {
  heap_[i] = n;
  countdowns_[n].pos = static_cast<std::uint32_t>(i);
}

void SharedBackoffClock::sift(std::size_t i) {
  // Restores the heap around index i after its key changed either way.
  const LinkId n = heap_[i];
  while (i > 0 && before(n, heap_[(i - 1) / 2])) {
    place(i, heap_[(i - 1) / 2]);
    i = (i - 1) / 2;
  }
  for (std::size_t c = 2 * i + 1; c < heap_.size(); c = 2 * i + 1) {
    if (c + 1 < heap_.size() && before(heap_[c + 1], heap_[c])) ++c;
    if (!before(heap_[c], n)) break;
    place(i, heap_[c]);
    i = c;
  }
  place(i, n);
}

LinkId SharedBackoffClock::heap_pop() {
  const LinkId top = heap_.front();
  countdowns_[top].pos = kUnarmed;
  const LinkId last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_.front() = last;
    sift(0);
  }
  return top;
}

void SharedBackoffClock::begin_interval(TimePoint now) {
  RTMAC_ASSERT(!in_interval_ && heap_.empty(), "begin_interval with countdowns armed");
  in_interval_ = true;
  arming_ = true;
  elapsed_at_resume_ = 0;
  if (medium_.sense_busy(phy::Medium::kAllNodes)) {
    // Defensive: the Network's gap-rule invariant keeps interval starts
    // idle, but mirror BackoffEngine::start anyway (arms freeze until the
    // next idle transition; the clock has not run yet).
    frozen_ = true;
    elapsed_frozen_ = 0;
    freeze_time_ = now;
  } else {
    frozen_ = false;
    resume_time_ = now;
  }
}

void SharedBackoffClock::arm(LinkId n, int count) {
  RTMAC_ASSERT(count >= 0);
  RTMAC_ASSERT(in_interval_, "arm outside an interval");
  // All arms happen at resume instants or during a busy period — the CSMA
  // schemes arm from begin_interval and from transmission outcomes only, and
  // every completion instant that leaves the medium idle becomes the resume
  // instant. This keeps deadline arithmetic exact (no partial slots at arm).
  RTMAC_ASSERT(frozen_ || sim_.now() == resume_time_, "arm off the resume instant");
  if (sim::Tracer* tracer = medium_.tracer(); tracer != nullptr) {
    tracer->record(sim_.now(), sim::TraceKind::kBackoffArmed, sim::kNoLink, count);
  }
  // A per-link engine checks carrier-sense, not our freeze flag: a link
  // arming at the LAST completion of a busy period senses idle (the Medium
  // runs outcome callbacks before the idle notification) and schedules its
  // expiry event immediately — taking a sequence number BEFORE the frozen
  // engines are resumed. kAtEdge records that class for rekey().
  Countdown& c = countdowns_[n];
  RTMAC_ASSERT(c.pos == kUnarmed, "link armed twice");
  const bool at_edge = frozen_ && !medium_.sense_busy(phy::Medium::kAllNodes);
  c.deadline = elapsed_now() + count;
  c.key = tie_key(at_edge ? kAtEdge : kLate, next_seq_++);
  c.arm_time = sim_.now();
  if (!c.queued) {
    c.queued = true;
    rekey_.push_back(n);
  }
  heap_.push_back(n);
  sift(heap_.size() - 1);
  if (!frozen_ && !arming_) {
    // Mid-interval arm on an idle medium: keep the single domain event on
    // the earliest deadline. (Unreachable for DCF/FCSMA, which only re-arm
    // from completion callbacks, but cheap to keep correct.)
    if (heap_.front() == n) arm_event();
  }
}

void SharedBackoffClock::finish_arming() {
  arming_ = false;
  if (!frozen_ && !heap_.empty()) arm_event();
}

void SharedBackoffClock::stop() {
  if (expiry_event_.valid()) sim_.cancel(expiry_event_);
  expiry_event_ = sim::EventId{};
  if (in_interval_ && frozen_) account_freezes(sim_.now());
  frozen_ = false;
  in_interval_ = false;
  for (const LinkId n : heap_) countdowns_[n].pos = kUnarmed;
  heap_.clear();
  for (const LinkId n : rekey_) countdowns_[n].queued = false;
  rekey_.clear();
}

void SharedBackoffClock::arm_event() {
  const std::int64_t deadline = countdowns_[heap_.front()].deadline;
  event_wall_ = resume_time_ + static_cast<int>(deadline - elapsed_at_resume_) * slot_;
  // Resuming from a freeze finds the event parked at the far-future sentinel
  // (see on_medium_busy): move it rather than allocate a new one. The fresh
  // FIFO sequence number matches what a cancel + schedule_at would produce.
  if (!sim_.reschedule(expiry_event_, event_wall_)) {
    expiry_event_ = sim_.schedule_at(event_wall_, [this] { fire(); });
  }
}

void SharedBackoffClock::fire() {
  expiry_event_ = sim::EventId{};
  RTMAC_ASSERT(!heap_.empty(), "spurious domain expiry");
  const LinkId top = heap_pop();
  const std::int64_t deadline = countdowns_[top].deadline;
  RTMAC_ASSERT(deadline ==
                   (frozen_ ? elapsed_frozen_
                            : elapsed_at_resume_ +
                                  (sim_.now() - resume_time_).floor_div(slot_)),
               "expiry off the shared clock");
  if (!heap_.empty() && countdowns_[heap_.front()].deadline == deadline) {
    // Another countdown is due at this same instant — a collision in the
    // making. Its event must sit IN the simulator queue before the handler
    // runs: per-link engines keep same-instant events pending (their
    // count_after <= 0 rule skips the freeze), and the Medium's burst fast
    // path reads the queue (no_event_before) to decide whether it may
    // resolve a transmission synchronously. Hiding the tie inside this heap
    // would let it conclude the coast is clear.
    event_wall_ = sim_.now();
    expiry_event_ = sim_.schedule_at(event_wall_, [this] { fire(); });
  }
  if (sim::Tracer* tracer = medium_.tracer(); tracer != nullptr) {
    tracer->record(sim_.now(), sim::TraceKind::kBackoffExpired, sim::kNoLink);
  }
  on_expire_(top);
  // If the handler started a transmission, our own on_medium_busy froze the
  // clock synchronously (and honours a pending same-instant tie); only an
  // idle clock re-arms toward the next deadline here.
  if (in_interval_ && !frozen_ && !expiry_event_.valid() && !heap_.empty()) arm_event();
}

void SharedBackoffClock::on_medium_busy(TimePoint t) {
  if (!in_interval_ || frozen_) return;
  const auto k = (t - resume_time_).floor_div(slot_);
  // Transmissions start at expiry instants, which sit a whole number of
  // slots past the shared resume — the 802.11 partial-slot discard the
  // per-link engines apply here never has anything to discard.
  RTMAC_ASSERT(resume_time_ + static_cast<int>(k) * slot_ == t,
               "busy edge off the shared slot grid");
  frozen_ = true;
  elapsed_frozen_ = elapsed_at_resume_ + k;
  freeze_time_ = t;
  // Park the domain event at the far-future sentinel — but ONLY when it is
  // strictly in the future. An event due at this very instant is a countdown
  // that reached zero in the same slot as the transmission now starting; the
  // per-link engines let it fire into the collision, and so do we.
  if (expiry_event_.valid() && event_wall_ > t) {
    sim_.reschedule(expiry_event_, sim::Simulator::no_run_limit());
  }
  if (sim::Tracer* tracer = medium_.tracer(); tracer != nullptr) {
    // Per-engine emulation in link order (the order per-link engines
    // registered as listeners). Countdowns due at this instant are skipped,
    // exactly as the per-link count_after <= 0 rule skips the freeze.
    for (const Countdown& c : countdowns_) {
      if (c.pos != kUnarmed && c.deadline > elapsed_frozen_) {
        tracer->record(t, sim::TraceKind::kBackoffFrozen, sim::kNoLink,
                       c.deadline - elapsed_frozen_);
      }
    }
  }
}

void SharedBackoffClock::on_medium_idle(TimePoint t) {
  if (!in_interval_ || !frozen_) return;
  frozen_ = false;
  account_freezes(t);
  if (sim::Tracer* tracer = medium_.tracer(); tracer != nullptr) {
    // Every frozen countdown resumes, in link order; a link that armed live
    // at this instant (the last completion's outcome callback) never froze.
    for (const Countdown& c : countdowns_) {
      if (c.pos != kUnarmed && tie_class(c) != kAtEdge) {
        tracer->record(t, sim::TraceKind::kBackoffResumed, sim::kNoLink,
                       c.deadline - elapsed_frozen_);
      }
    }
  }
  rekey();
  elapsed_at_resume_ = elapsed_frozen_;
  resume_time_ = t;
  if (!heap_.empty()) arm_event();
}

void SharedBackoffClock::rekey() {
  // Per-link engines' sequence numbers at a resume: links that armed live at
  // this instant already hold their events (issued in the outcome callbacks,
  // in arm order), then the idle sweep reschedules every frozen engine in
  // listener = link order. Ties between expiries are result-affecting —
  // complete domains draw channel losses from one shared stream in
  // completion order — so this order is exact, not cosmetic. Countdowns
  // keyed kByLink keep their key; every other armed one is listed here.
  std::size_t kept = 0;
  for (const LinkId n : rekey_) {
    Countdown& c = countdowns_[n];
    if (c.pos == kUnarmed) {
      c.queued = false;
      continue;
    }
    if (tie_class(c) == kAtEdge) {
      c.key = tie_key(kLive, c.key & kOrderMask);
      rekey_[kept++] = n;  // joins the by-link group at the next resume
    } else {
      c.key = tie_key(kByLink, n);
      c.queued = false;
    }
    sift(c.pos);
  }
  rekey_.resize(kept);
}

void SharedBackoffClock::account_freezes(TimePoint resume_at) {
  // Handles are cached across events and re-resolved only when the Medium's
  // registry changes (parity with BackoffEngine::account_freeze; the per-link
  // DCF/FCSMA engines carry no trace label, so they all share one counter).
  if (obs::MetricsRegistry* m = medium_.metrics(); m != metrics_seen_) {
    metrics_seen_ = m;
    if (m == nullptr) {
      freeze_hist_ = nullptr;
      freeze_ns_ = nullptr;
    } else {
      freeze_hist_ = &m->histogram("mac.backoff_freeze_us", obs::log_bounds(1.0, 65536.0, 2.0));
      freeze_ns_ = &m->counter("mac.freeze_ns");
    }
  }
  if (freeze_hist_ == nullptr) return;
  // Link order: the per-link engines' listener order, so the histogram's
  // floating-point sum adds in the same order.
  for (const Countdown& c : countdowns_) {
    if (c.pos == kUnarmed || tie_class(c) == kAtEdge) continue;  // armed idle; never froze
    // A countdown armed DURING the busy period (a non-final completion's
    // outcome callback) has been frozen since its arm instant, not since the
    // busy edge; a per-link engine accounts the same span.
    const TimePoint since = c.arm_time > freeze_time_ ? c.arm_time : freeze_time_;
    const Duration frozen_for = resume_at - since;
    freeze_hist_->observe(frozen_for.us_f());
    freeze_ns_->inc(static_cast<std::uint64_t>(frozen_for.ns()));
  }
}

}  // namespace rtmac::mac
