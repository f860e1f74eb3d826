#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace qoslb::obs {

/// Immutable run header, pushed to a sink before the first row.
struct TraceRunInfo {
  std::string protocol;
  std::uint64_t users = 0;
  std::uint64_t resources = 0;
  std::uint64_t seed = 0;
  std::uint64_t threads = 1;
  std::string mode;  // "dense" | "active" | "sequential"
};

/// One per-round trace row — the structured successor of the legacy
/// RoundRecord. Counters are cumulative; `active_size` is the number of
/// users the round iterated (n on the dense paths, |unsatisfied| in active
/// mode, 0 for the round-0 snapshot row).
struct TraceRow {
  std::uint64_t round = 0;
  std::uint64_t unsatisfied = 0;
  std::uint64_t migrations = 0;  // cumulative
  std::uint64_t messages = 0;    // cumulative
  std::int64_t max_load = 0;
  double potential = 0.0;  // Rosenthal potential
  std::uint64_t active_size = 0;
};

/// Where trace rows go. The engine is the only producer and calls from the
/// driving thread only, strictly outside the decide/commit hot path, so
/// implementations need no synchronization. Sinks must not observe or
/// mutate simulation state — the hash-invariance contract
/// (tests/core_telemetry_test.cpp) holds for any sink.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  virtual void begin_run(const TraceRunInfo& info) { (void)info; }
  virtual void row(const TraceRow& row) = 0;
  virtual void end_run() {}
};

/// Buffers rows in memory — tests and in-process consumers use this.
class MemoryTraceSink final : public TraceSink {
 public:
  void begin_run(const TraceRunInfo& info) override;
  void row(const TraceRow& row) override;

  const std::vector<TraceRunInfo>& runs() const { return runs_; }
  const std::vector<TraceRow>& rows() const { return rows_; }
  void clear();

 private:
  std::vector<TraceRunInfo> runs_;
  std::vector<TraceRow> rows_;
};

/// One JSON object per line (schema golden-tested in
/// tests/obs_trace_test.cpp, documented in docs/observability.md):
///   {"event":"begin","protocol":...,"users":...,"resources":...,
///    "seed":...,"threads":...,"mode":...}
///   {"round":0,"unsatisfied":...,...,"active_size":...}
///   {"event":"end"}
class JsonlTraceSink final : public TraceSink {
 public:
  /// The stream is borrowed and must outlive the sink.
  explicit JsonlTraceSink(std::ostream& out) : out_(&out) {}

  void begin_run(const TraceRunInfo& info) override;
  void row(const TraceRow& row) override;
  void end_run() override;

 private:
  std::ostream* out_;
};

/// CSV with the legacy trace.hpp column set plus active_size. The header is
/// written once per sink (on the first begin_run).
class CsvTraceSink final : public TraceSink {
 public:
  explicit CsvTraceSink(std::ostream& out) : out_(&out) {}

  void begin_run(const TraceRunInfo& info) override;
  void row(const TraceRow& row) override;
  void end_run() override;

 private:
  std::ostream* out_;
  bool header_written_ = false;
};

/// Fans rows out to several sinks (borrowed, nulls skipped) in order.
class TeeTraceSink final : public TraceSink {
 public:
  TeeTraceSink() = default;
  explicit TeeTraceSink(std::vector<TraceSink*> sinks)
      : sinks_(std::move(sinks)) {}

  void add(TraceSink* sink) { sinks_.push_back(sink); }

  void begin_run(const TraceRunInfo& info) override;
  void row(const TraceRow& row) override;
  void end_run() override;

 private:
  std::vector<TraceSink*> sinks_;
};

/// Logs a one-line progress summary through QOSLB_INFO every `every` rounds
/// (and for the final row, on end_run) — the CLI's --progress flag.
class ProgressTraceSink final : public TraceSink {
 public:
  explicit ProgressTraceSink(std::uint64_t every = 100);

  void begin_run(const TraceRunInfo& info) override;
  void row(const TraceRow& row) override;
  void end_run() override;

 private:
  void log_row(const TraceRow& row) const;

  std::uint64_t every_;
  std::string label_;
  TraceRow last_{};
  bool last_logged_ = true;
};

}  // namespace qoslb::obs
