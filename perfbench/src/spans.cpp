#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <mutex>
#include <utility>

namespace perfbench {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_run{0};
std::mutex g_mutex;
std::vector<SpanRecord> g_spans;  // guarded by g_mutex
thread_local std::vector<std::int64_t> t_open;

const std::chrono::steady_clock::time_point g_epoch = std::chrono::steady_clock::now();

std::int64_t push(const char* name, std::int64_t start, std::int64_t end, std::int64_t parent) {
  const std::lock_guard lock{g_mutex};
  const std::uint32_t run = parent != kNoSpan ? g_spans[static_cast<std::size_t>(parent)].run
                                              : g_run.load(std::memory_order_relaxed);
  g_spans.push_back({name, start, end, parent, run});
  return static_cast<std::int64_t>(g_spans.size()) - 1;
}

/// Length of the union of [start, end) intervals, clipped to [lo, hi).
double covered_s(std::vector<std::pair<std::int64_t, std::int64_t>> iv, std::int64_t lo,
                 std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0;
  std::int64_t reach = lo;
  for (auto [s, e] : iv) {
    s = std::max(s, reach);
    e = std::min(e, hi);
    if (e > s) {
      covered += e - s;
      reach = e;
    }
  }
  return static_cast<double>(covered) * 1e-9;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              g_epoch)
      .count();
}

void SpanLog::enable(bool on) { g_enabled.store(on); }
bool SpanLog::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::int64_t SpanLog::begin(const char* name, std::int64_t parent) {
  if (!enabled()) return kNoSpan;
  if (parent == kNoSpan && !t_open.empty()) parent = t_open.back();
  const std::int64_t id = push(name, now_ns(), -1, parent);
  t_open.push_back(id);
  return id;
}

void SpanLog::end(std::int64_t id) {
  if (id == kNoSpan) return;
  const std::int64_t t = now_ns();
  {
    const std::lock_guard lock{g_mutex};
    g_spans[static_cast<std::size_t>(id)].end_ns = t;
  }
  // Spans closed on another thread than they opened on (a sweep task opened
  // in ConfigAt and closed in MetricFn runs on one worker, so this is rare)
  // simply are not on this thread's stack.
  const auto it = std::find(t_open.begin(), t_open.end(), id);
  if (it != t_open.end()) t_open.erase(it, t_open.end());
}

void SpanLog::record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                     std::int64_t parent) {
  if (!enabled()) return;
  (void)push(name, start_ns, end_ns, parent);
}

void SpanLog::set_run(std::uint32_t run) { g_run.store(run); }

std::vector<double> SpanLog::durations(const std::string& name) {
  const std::lock_guard lock{g_mutex};
  std::vector<double> out;
  for (const SpanRecord& s : g_spans) {
    if (s.end_ns >= 0 && s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return out;
}

std::vector<SpanTotals> SpanLog::totals(bool units_only) {
  const std::lock_guard lock{g_mutex};
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(g_spans.size());
  for (const SpanRecord& s : g_spans) {
    if (s.parent != kNoSpan && s.end_ns >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, SpanTotals> by_name;
  for (std::size_t i = 0; i < g_spans.size(); ++i) {
    const SpanRecord& s = g_spans[i];
    if (s.end_ns < 0 || (units_only && s.run == 0)) continue;
    const double total = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    const double self = total - covered_s(children[i], s.start_ns, s.end_ns);
    const std::string layer = "layer:" + s.name.substr(0, s.name.find('.'));
    for (const std::string& key : {s.name, layer}) {
      SpanTotals& t = by_name[key];
      t.name = key;
      ++t.count;
      t.total_s += total;
      t.self_s += self;
    }
  }
  std::vector<SpanTotals> out;
  out.reserve(by_name.size());
  for (auto& [name, t] : by_name) out.push_back(std::move(t));
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) {
  const std::vector<SpanTotals> sums = totals();
  std::ofstream out{path};
  if (!out) return false;
  {
    const std::lock_guard lock{g_mutex};
    for (const SpanRecord& s : g_spans) {
      out << "{\"span\":\"" << json_escape(s.name) << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << ",\"run\":" << s.run
          << "}\n";
    }
  }
  for (const SpanTotals& t : sums) {
    out << "{\"totals\":\"" << json_escape(t.name) << "\",\"count\":" << t.count
        << ",\"total_s\":" << t.total_s << ",\"self_s\":" << t.self_s << "}\n";
  }
  return static_cast<bool>(out.flush());
}

}  // namespace perfbench
