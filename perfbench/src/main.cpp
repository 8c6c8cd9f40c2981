// perfbench: runs one rtmac benchmark workload and prints one JSON line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// The line carries the run's digest, its attempted/failed run counts, the
// CPU and worker counts and its metrics (end-to-end with --trace 0,
// per-layer with --trace 1). perfbench/run.py builds this binary, checks
// the digest against the recorded one and prints the benchmark's result
// line.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include <sched.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "spans.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
               " [--out-dir <dir>]\nworkloads:";
  for (const auto& name : perfbench::workload_names()) std::cerr << ' ' << name;
  std::cerr << '\n';
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(text, &used);
  } catch (const std::exception&) {
    usage("bad value for " + flag + ": " + text);
  }
  if (used != text.size() || text.front() == '-') usage("bad value for " + flag + ": " + text);
  return v;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// CPUs this process may run on (its affinity mask), at least 1.
std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1U, std::thread::hardware_concurrency());
}

/// Keeps freed heap memory in the process, so every unit after the warm-up
/// builds its Network on pages the process already holds. By default glibc
/// serves blocks above 128 KiB with mmap and returns them to the kernel on
/// free, and trims the heap top above 128 KiB; a unit would then fault in
/// (and the kernel zero) its large per-link and event blocks afresh, and
/// how much of that happened would depend on what earlier units left.
/// 32 MiB is the largest mmap threshold glibc accepts on 64-bit targets.
bool keep_freed_memory() {
#if defined(__GLIBC__)
  return mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1;
#else
  return true;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  if (!keep_freed_memory()) {
    std::cerr << "perfbench: the allocator refused the fixed malloc thresholds\n";
    return 1;
  }
  perfbench::Options opts;
  opts.nproc = usable_cpus();
  // Pool threads; the caller thread also runs queued tasks while it waits,
  // so workers + 1 = min(nproc, 4) threads execute at once.
  opts.workers = std::max<std::size_t>(1, std::min<std::size_t>(opts.nproc, 4) - 1);
  opts.out_dir = ".";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opts.seed = parse_uint(flag, value);
    } else if (flag == "--seconds") {
      opts.seconds = static_cast<double>(parse_uint(flag, value));
    } else if (flag == "--trace") {
      opts.trace = parse_uint(flag, value) != 0;
    } else if (flag == "--out-dir") {
      opts.out_dir = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  const auto& names = perfbench::workload_names();
  if (!have_workload || std::find(names.begin(), names.end(), opts.workload) == names.end()) {
    usage("unknown or missing --workload");
  }
  std::filesystem::create_directories(opts.out_dir);

  perfbench::Outcome out;
  try {
    out = perfbench::run_workload(opts);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opts.workload << " failed: " << e.what() << '\n';
    return 1;
  }
  if (opts.trace) {
    const std::string path = opts.out_dir + "/spans-" + opts.workload + ".jsonl";
    if (!perfbench::SpanLog::write_jsonl(path)) {
      std::cerr << "perfbench: cannot write " << path << '\n';
      return 1;
    }
  }
  for (const auto& why : out.failures) std::cerr << "perfbench: check failed: " << why << '\n';

  std::string line = "{\"workload\":" + json_string(opts.workload) +
                     ",\"seed\":" + std::to_string(opts.seed) +
                     ",\"trace\":" + (opts.trace ? "true" : "false") +
                     ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
                     ",\"nproc\":" + std::to_string(opts.nproc) +
                     ",\"workers\":" + std::to_string(opts.workers) +
                     ",\"digest\":" + json_string(out.digest) +
                     ",\"attempted\":" + std::to_string(out.attempted) +
                     ",\"failed\":" + std::to_string(out.failed) + ",\"metrics\":{";
  bool first = true;
  for (const auto& m : out.metrics) {
    if (!first) line += ',';
    first = false;
    line += json_string(m.name) + ":{\"value\":" + json_number(m.value) +
            ",\"unit\":" + json_string(m.unit) + "}";
  }
  line += "}}";
  std::cout << line << std::endl;
  return 0;
}
