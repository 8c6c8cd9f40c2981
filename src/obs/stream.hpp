// Streaming sinks for in-run time-series metric export.
//
// MetricsRegistry::stream_to() points the registry at one of these; every
// cadence interval the network's interval loop triggers a schema-versioned
// JSONL snapshot of the whole registry into the sink. Sinks carry only
// sim-domain bytes (wall-clock profiling stays quarantined in
// profile.jsonl), so a streamed file is byte-identical across --jobs when
// the per-task blocks are concatenated in deterministic task order — the
// same contract metrics.jsonl already meets.
//
// Threading: a sink is single-owner — each sweep task writes to its own
// StringStreamSink, and the FileStreamSink concatenation happens after the
// pool has joined. Nothing here is locked, and nothing may be shared across
// concurrently running tasks; the sweep engine's per-task-slot block scheme
// (see expfw/runner.cpp) is what keeps output deterministic.
#pragma once

#include <fstream>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <utility>

namespace rtmac::obs {

/// Version of the streamed time-series schema; the header line of every
/// stream file carries it: {"schema":"rtmac.metrics-stream","version":N}.
inline constexpr int kMetricsStreamSchemaVersion = 1;

/// Writes the stream schema header line (once per stream file).
void write_stream_header(std::ostream& out);

/// Destination for streamed snapshots. Implementations own their buffering;
/// flush() is called after every snapshot so in-flight runs stay readable.
class StreamSink {
 public:
  StreamSink() = default;
  StreamSink(const StreamSink&) = delete;
  StreamSink& operator=(const StreamSink&) = delete;
  virtual ~StreamSink() = default;

  [[nodiscard]] virtual std::ostream& stream() = 0;
  virtual void flush() {}
};

/// Buffered file sink. Creates parent directories; check ok() after
/// construction (a failed open degrades to dropping output, not throwing,
/// so observability can never kill a run).
class FileStreamSink final : public StreamSink {
 public:
  explicit FileStreamSink(const std::string& path);

  [[nodiscard]] bool ok() const { return static_cast<bool>(out_); }
  [[nodiscard]] std::ostream& stream() override { return out_; }
  void flush() override { out_.flush(); }

 private:
  std::ofstream out_;
};

/// In-memory sink; the sweep engine gives each task one of these and
/// concatenates the blocks in deterministic task order afterwards.
class StringStreamSink final : public StreamSink {
 public:
  [[nodiscard]] std::ostream& stream() override { return out_; }
  /// The bytes written so far, without a copy; valid until the next write
  /// or take().
  [[nodiscard]] std::string_view str() const { return out_.view(); }
  /// Moves the bytes out, leaving the sink empty.
  [[nodiscard]] std::string take() { return std::move(out_).str(); }

 private:
  std::ostringstream out_;
};

/// Discards everything; lets callers keep streaming wired unconditionally.
class NullStreamSink final : public StreamSink {
 public:
  NullStreamSink() : out_{&buf_} {}
  [[nodiscard]] std::ostream& stream() override { return out_; }

 private:
  struct DiscardBuf final : std::streambuf {
    int overflow(int c) override { return c == traits_type::eof() ? 0 : c; }
    std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
  };
  DiscardBuf buf_;
  std::ostream out_;
};

}  // namespace rtmac::obs
