// Shared command line for the bench binaries: the --reps/--jobs/--smoke
// triad plus --intervals and the observability outputs, so every figure
// bench exposes the same knobs.
//
//   --intervals N     deadline intervals per simulation (default per bench;
//                     a bare positional integer is accepted for backward
//                     compatibility with the pre-flag invocation style)
//   --reps N          independent replications per grid point (default 1)
//   --jobs N          sweep pool workers beside the calling thread
//                     (default 0 = one per hardware thread)
//   --smoke           CI mode: tiny grid + short horizon, exercises the full
//                     binary in seconds
//   --metrics-out D   write JSONL metrics (per-link delivery/collision
//                     rates, busy fraction, debt, engine profile) under
//                     directory D; default output stays byte-identical
//   --trace-out F     write a Chrome trace-event timeline of the first
//                     task's opening intervals to file F (Perfetto-loadable)
//   --metrics-stream F  stream whole-registry metric snapshots (JSONL, sim-time
//                     stamped, byte-identical across --jobs) to file F
//   --stream-every N  snapshot cadence in intervals (default 10)
//   --progress        live heartbeat on stderr: tasks/grid points done,
//                     events/s, intervals/s, ETA (wall-clock; stderr only)
//
// Unknown flags print a usage line and exit(2), so typos cannot silently
// run a multi-minute sweep with default settings.
#pragma once

#include <string>

#include "core/types.hpp"
#include "expfw/runner.hpp"

namespace rtmac::expfw {

/// Parsed bench command line.
struct BenchArgs {
  IntervalIndex intervals = 0;  ///< horizon per simulation (smoke-adjusted)
  SweepOptions sweep;           ///< reps + jobs, passed straight to run_sweeps
  bool smoke = false;           ///< tiny-grid CI mode

  /// Grid size to use: `full` normally, at most 3 points in smoke mode.
  [[nodiscard]] std::size_t grid_points(std::size_t full) const;
  /// Scales an auxiliary count (trials, burn-in, ...) down in smoke mode.
  [[nodiscard]] IntervalIndex scaled(IntervalIndex full, IntervalIndex smoke_value) const;
};

/// Parses the standard bench flags. `default_intervals` is the bench's
/// normal horizon; smoke mode caps it at `smoke_intervals`. Exits(2) with
/// a usage message on unknown flags; exits(0) on --help.
[[nodiscard]] BenchArgs parse_bench_args(int argc, const char* const* argv,
                                         IntervalIndex default_intervals,
                                         IntervalIndex smoke_intervals = 25);

}  // namespace rtmac::expfw
