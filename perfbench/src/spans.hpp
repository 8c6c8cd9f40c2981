// In-memory span recorder for the benchmark's traced mode.
//
// A span brackets one call the benchmark makes into an rtmac layer
// ("net.Network", "obs.collect", ...; the text before the first '.' names
// the layer). Spans carry their parent and the run (workload unit) they
// belong to, are kept in memory while the benchmark runs, and are written
// out once at exit together with per-name self times. When tracing is off
// nothing is recorded: begin() returns kNoSpan and end() ignores it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::int64_t kNoSpan = -1;

/// Nanoseconds on the steady clock since the recorder was first used.
[[nodiscard]] std::int64_t now_ns();

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  ///< -1 while open
  std::int64_t parent = kNoSpan;
  std::uint32_t run = 0;
};

/// Time a span name accumulated: wall duration and self time (duration
/// minus the part of it that child spans cover).
struct SpanTotals {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class SpanLog {
 public:
  /// Turns recording on or off (off by default).
  static void enable(bool on);
  [[nodiscard]] static bool enabled();

  /// Opens a span. The parent defaults to the innermost span this thread
  /// has open; pass `parent` to attach work that runs on another thread.
  static std::int64_t begin(const char* name, std::int64_t parent = kNoSpan);
  static void end(std::int64_t id);
  /// Records an already-finished span (e.g. from two timestamps taken in a
  /// callback); never pushed on the thread's open-span stack.
  static void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                     std::int64_t parent);
  /// Sets the run id given to root spans opened from now on.
  static void set_run(std::uint32_t run);

  /// Durations (seconds) of every closed span called `name`.
  [[nodiscard]] static std::vector<double> durations(const std::string& name);
  /// Self-time totals per span name and per layer ("layer:<prefix>"),
  /// optionally only over spans inside workload units (run id > 0).
  [[nodiscard]] static std::vector<SpanTotals> totals(bool units_only = false);
  /// Writes every span plus the totals as JSONL; returns false on I/O error.
  static bool write_jsonl(const std::string& path);
};

/// Scoped span on the calling thread.
class Span {
 public:
  explicit Span(const char* name) : id_{SpanLog::begin(name)} {}
  ~Span() { SpanLog::end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&&) = delete;
  Span& operator=(Span&&) = delete;

  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  std::int64_t id_;
};

}  // namespace perfbench
