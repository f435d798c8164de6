#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Measurement pieces shared by the workloads: percentiles, the span recorder
// and its self-time rollup, the open-loop request generator, the parallelism
// calibration loop, and the result line. Nothing here depends on the system
// under test, so selftest.cc can exercise it with fakes.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
double SecondsSince(Clock::time_point start);

// ---------------------------------------------------------------------------
// Statistics

double Median(std::vector<double> values);

/// The highest percentile that still has at least ten samples beyond it.
/// With n sorted samples that is the sample at 0-based index n - 11, i.e.
/// percentile 100 * (n - 10) / n. `ok` is false when n < 11: no percentile
/// has ten samples beyond it, and `value` then holds the maximum.
struct Tail {
  double value = 0;
  double percentile = 0;
  int64_t samples = 0;
  int64_t beyond = 0;
  bool ok = false;
};
Tail TailPercentile(std::vector<double> values);

// ---------------------------------------------------------------------------
// Deterministic generator: splitmix64, so the same seed gives the same
// inputs on every platform (std::*_distribution is implementation-defined).

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  /// Standard normal (Box-Muller).
  double Normal();
  /// Uniform integer in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

// ---------------------------------------------------------------------------
// Spans. One operation id covers every span of one operation. Spans are kept
// in memory and written out at the end of the run.

struct SpanRecord {
  int64_t op = 0;
  int32_t id = 0;
  int32_t parent = -1;  // -1: the operation's root span
  std::string name;
  std::string layer;
  double start_s = 0;  // relative to the recorder's epoch
  double end_s = 0;
  /// Time inside this span that belongs to another layer but has no span of
  /// its own (instruction timings taken from counter deltas).
  std::vector<std::pair<std::string, double>> rows;
};

class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span; the innermost open span is its parent. Returns its index.
  int32_t Begin(const std::string& name, const std::string& layer);
  void End(int32_t id);
  /// Attributes `seconds` of span `id` to `layer`.
  void AddRow(int32_t id, const std::string& layer, double seconds);
  /// Starts a new operation id; the next Begin opens its root span.
  int64_t NewOp();

  double Duration(int32_t id) const;
  /// Spans of one operation.
  std::vector<SpanRecord> OpSpans(int64_t op) const;
  /// Chrome trace-event JSON of every recorded span.
  std::string ToJson() const;

 private:
  Clock::time_point epoch_;
  int64_t op_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a no-op when the recorder is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const std::string& name,
             const std::string& layer);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_ = nullptr;
  int32_t id_ = -1;
};

/// Per-layer self time of one operation. A span's self time is its duration
/// minus its child spans and its rows; the root span's self time is reported
/// as "unattributed". The values sum to the root span's duration.
std::map<std::string, double> RollupSelfTimes(
    const std::vector<SpanRecord>& op_spans);

// ---------------------------------------------------------------------------
// Open loop. Requests are due on a fixed schedule (request i at
// start + i / rate) whatever the system does; latency runs from the due
// time, so a stall is charged to every request queued behind it.

class OpenLoopBackend {
 public:
  virtual ~OpenLoopBackend() = default;
  /// Sends request `i`. Returns false when it is refused at once.
  virtual bool Send(int64_t i, Clock::time_point due) = 0;
  /// Appends (request, correct) for every request completed since the last
  /// call.
  virtual void Poll(std::vector<std::pair<int64_t, bool>>* done) = 0;
  virtual int64_t Outstanding() const = 0;
};

struct OpenLoopResult {
  double rate = 0;
  int64_t attempted = 0;
  int64_t failed = 0;  // refused, timed out, errored or wrong answer
  /// Per-request seconds from due time to completion; failed requests are
  /// +infinity so they count as over any limit.
  std::vector<double> latency_s;
  std::vector<double> gen_lag_s;  // how late each request was sent
  int64_t outstanding_mid = 0;    // in flight halfway through the schedule
  int64_t outstanding_end = 0;    // in flight when the schedule ended
};

/// Runs `seconds` of schedule at `rate` requests/s, then waits up to
/// `drain_s` for the stragglers (anything still open counts as failed).
OpenLoopResult RunOpenLoop(OpenLoopBackend* backend, double rate,
                           double seconds, double drain_s);

/// True when the run kept up: the backlog at the end of the schedule is no
/// larger than `slack` requests more than it was halfway through.
bool BacklogSteady(const OpenLoopResult& r, int64_t slack);

// ---------------------------------------------------------------------------
// Machine

/// Measured parallelism: nthreads x (one thread's time for a fixed ALU loop)
/// / (time for nthreads threads running the same loop each, concurrently).
double CalibrateParallelism(int nthreads);

/// Peak resident set size of this process in MB (VmHWM).
double PeakRssMb();

// ---------------------------------------------------------------------------
// Result line

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
