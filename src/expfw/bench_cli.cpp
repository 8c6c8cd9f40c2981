#include "expfw/bench_cli.hpp"

#include <climits>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "util/args.hpp"
#include "util/thread_pool.hpp"

namespace rtmac::expfw {

std::size_t BenchArgs::grid_points(std::size_t full) const {
  return smoke ? std::min<std::size_t>(full, 3) : full;
}

IntervalIndex BenchArgs::scaled(IntervalIndex full, IntervalIndex smoke_value) const {
  return smoke ? std::min(full, smoke_value) : full;
}

BenchArgs parse_bench_args(int argc, const char* const* argv,
                           IntervalIndex default_intervals, IntervalIndex smoke_intervals) {
  const ArgParser args{argc, argv};
  const auto usage = [&](std::ostream& out) {
    out << "usage: " << (argc > 0 ? argv[0] : "bench")
        << " [--intervals N] [--reps N] [--jobs N] [--smoke]\n"
        << "             [--shards N] [--shard-jobs N]\n"
        << "             [--metrics-out DIR] [--trace-out FILE]\n"
        << "             [--metrics-stream FILE] [--stream-every N] [--progress]\n"
        << "  --intervals N    deadline intervals per simulation (default "
        << default_intervals << ")\n"
        << "  --reps N         replications per grid point (default 1)\n"
        << "  --jobs N         sweep pool workers beside the calling thread\n"
        << "                   (default 0 = one per core)\n"
        << "  --shards N       partition each network into N shards (0 = one cell,\n"
        << "                   no partitioning; default: whatever the bench's\n"
        << "                   configs say). Results are byte-identical for any value.\n"
        << "  --shard-jobs N   pool workers per sharded network, beside the calling\n"
        << "                   thread (default 0 = one per core beyond the caller's;\n"
        << "                   1 = serial)\n"
        << "  --smoke          tiny grid + short horizon for CI\n"
        << "  --metrics-out D  write JSONL metrics + engine profile under D\n"
        << "  --trace-out F    write a Perfetto-loadable Chrome trace to F\n"
        << "  --metrics-stream F  stream in-run metric snapshots (JSONL) to F\n"
        << "  --stream-every N    snapshot cadence in intervals (default 10)\n"
        << "  --progress       live heartbeat on stderr (tasks, rates, ETA)\n";
  };
  if (args.has("help")) {
    usage(std::cout);
    std::exit(0);
  }
  const auto unknown = args.unknown_flags({"intervals", "reps", "jobs", "smoke",
                                           "shards", "shard-jobs",
                                           "metrics-out", "trace-out", "metrics-stream",
                                           "stream-every", "progress", "help"});
  if (!unknown.empty()) {
    std::cerr << "unknown flag --" << unknown.front() << "\n";
    usage(std::cerr);
    std::exit(2);
  }

  BenchArgs out;
  try {
    // Legacy style: a bare positional integer is the interval count.
    std::int64_t intervals = static_cast<std::int64_t>(default_intervals);
    if (!args.positional().empty()) {
      intervals = std::strtoll(args.positional().front().c_str(), nullptr, 10);
      if (intervals == 0) intervals = static_cast<std::int64_t>(default_intervals);
    }
    intervals = args.get("intervals", intervals);
    if (intervals < 0) {
      // An unchecked cast would wrap to ~1.8e19 intervals and never finish.
      std::cerr << "--intervals must be >= 0\n";
      std::exit(2);
    }
    out.smoke = args.get("smoke", false);
    out.intervals = out.smoke ? std::min(static_cast<IntervalIndex>(intervals), smoke_intervals)
                              : static_cast<IntervalIndex>(intervals);
    const std::int64_t reps = args.get("reps", std::int64_t{1});
    const std::int64_t jobs = args.get("jobs", std::int64_t{0});
    if (reps < 1) {
      std::cerr << "--reps must be >= 1\n";
      std::exit(2);
    }
    // Worker counts are bounded before any pool exists.
    constexpr auto kMaxJobs = static_cast<std::int64_t>(ThreadPool::kMaxThreads);
    if (jobs < 0 || jobs > kMaxJobs) {
      std::cerr << "--jobs must be in [0, " << kMaxJobs << "] (0 = all cores)\n";
      std::exit(2);
    }
    out.sweep.reps = static_cast<std::size_t>(reps);
    out.sweep.jobs = static_cast<std::size_t>(jobs);
    const std::int64_t shards = args.get("shards", std::int64_t{-1});
    const std::int64_t shard_jobs = args.get("shard-jobs", std::int64_t{-1});
    // --shards lands in an int: a larger value would wrap instead of failing.
    if (args.has("shards") && (shards < 0 || shards > INT_MAX)) {
      std::cerr << "--shards must be in [0, INT_MAX] (0 = one cell, no partitioning)\n";
      std::exit(2);
    }
    if (args.has("shard-jobs") && (shard_jobs < 0 || shard_jobs > kMaxJobs)) {
      std::cerr << "--shard-jobs must be in [0, " << kMaxJobs
                << "] (0 = one per core beyond the caller's)\n";
      std::exit(2);
    }
    out.sweep.shards = static_cast<int>(shards);
    out.sweep.shard_jobs = static_cast<int>(shard_jobs);
    out.sweep.metrics_dir = args.get("metrics-out", std::string{});
    out.sweep.trace_out = args.get("trace-out", std::string{});
    out.sweep.stream_path = args.get("metrics-stream", std::string{});
    if ((args.has("metrics-out") && out.sweep.metrics_dir.empty()) ||
        (args.has("trace-out") && out.sweep.trace_out.empty()) ||
        (args.has("metrics-stream") && out.sweep.stream_path.empty())) {
      std::cerr << "--metrics-out/--trace-out/--metrics-stream expect a path\n";
      usage(std::cerr);
      std::exit(2);
    }
    const std::int64_t stream_every = args.get("stream-every", std::int64_t{10});
    if (stream_every < 1) {
      std::cerr << "--stream-every must be >= 1\n";
      std::exit(2);
    }
    out.sweep.stream_every = static_cast<std::uint64_t>(stream_every);
    out.sweep.progress = args.get("progress", false);
  } catch (const std::invalid_argument& e) {
    // A malformed number must fail loudly, not rerun the default.
    std::cerr << e.what() << "\n";
    usage(std::cerr);
    std::exit(2);
  }
  return out;
}

}  // namespace rtmac::expfw
