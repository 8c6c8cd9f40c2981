#pragma once

// Phantom capability modelling the sharded coordinator's window barrier.
//
// The Chandy–Misra style coordinator in sim/sharded_simulator alternates two
// phases: a serial *barrier* phase (on the coordinating thread: drain
// cut-crossing outboxes, deliver remote activity, open the next conflict-free
// window) and a parallel *window* phase (per-shard engines advance
// independently, possibly on pool threads). Cross-shard state — mailboxes,
// remote-sense injection, the resolution horizon — must only be touched in
// the barrier phase.
//
// There is no runtime lock enforcing that: the discipline is structural. The
// phantom capability below makes it compile-time checkable under clang
// -Wthread-safety: barrier-phase-only entry points carry
// RTMAC_REQUIRES(sim::shard_barrier) and the coordinator wraps its serial
// section in a util::PhantomLock. Calling a barrier-phase method from the
// parallel phase (or any unannotated context) is a compile error in the
// clang CI lanes. Zero runtime cost everywhere.

#include "core/types.hpp"
#include "util/thread_annotations.hpp"
#include "util/time.hpp"

namespace rtmac::sim {

inline constinit util::PhantomCapability shard_barrier{};

/// One cut-link transmission occupying [start, end), in the link's GLOBAL id.
/// A cell's Medium exports it when it starts; the barrier hands it to the
/// cut-neighbor cells (remote sense activity) and to the cross-cell
/// collision ledger.
struct CutTxRecord {
  LinkId link = 0;
  TimePoint start;
  TimePoint end;
};

}  // namespace rtmac::sim
