#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

namespace perfbench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail TailPercentile(std::vector<double> values) {
  Tail t;
  t.samples = static_cast<int64_t>(values.size());
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  if (t.samples < 11) {
    t.value = values.back();
    t.percentile = 100.0;
    t.beyond = 0;
    return t;
  }
  const int64_t index = t.samples - 11;
  t.value = values[static_cast<size_t>(index)];
  t.beyond = 10;
  t.percentile = 100.0 * static_cast<double>(t.samples - 10) /
                 static_cast<double>(t.samples);
  t.ok = true;
  return t;
}

// ---------------------------------------------------------------------------

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Normal() {
  const double u1 = 1.0 - Uniform();  // (0, 1]
  const double u2 = Uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

// ---------------------------------------------------------------------------

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

int64_t SpanRecorder::NewOp() { return ++op_; }

int32_t SpanRecorder::Begin(const std::string& name, const std::string& layer) {
  SpanRecord s;
  s.op = op_;
  s.id = static_cast<int32_t>(spans_.size());
  s.parent = open_.empty() ? -1 : open_.back();
  s.name = name;
  s.layer = layer;
  s.start_s = SecondsSince(epoch_);
  spans_.push_back(std::move(s));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanRecorder::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_s = SecondsSince(epoch_);
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void SpanRecorder::AddRow(int32_t id, const std::string& layer,
                          double seconds) {
  spans_[static_cast<size_t>(id)].rows.emplace_back(layer, seconds);
}

double SpanRecorder::Duration(int32_t id) const {
  const SpanRecord& s = spans_[static_cast<size_t>(id)];
  return s.end_s - s.start_s;
}

std::vector<SpanRecord> SpanRecorder::OpSpans(int64_t op) const {
  std::vector<SpanRecord> out;
  for (const SpanRecord& s : spans_) {
    if (s.op == op) out.push_back(s);
  }
  return out;
}

std::string SpanRecorder::ToJson() const {
  std::ostringstream os;
  os.precision(12);
  os << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name << "\",\"cat\":\""
       << s.layer << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << s.start_s * 1e6 << ",\"dur\":" << (s.end_s - s.start_s) * 1e6
       << ",\"args\":{\"op\":" << s.op << ",\"id\":" << s.id
       << ",\"parent\":" << s.parent;
    for (const auto& [layer, seconds] : s.rows) {
      os << ",\"row." << layer << "_s\":" << seconds;
    }
    os << "}}";
  }
  os << "\n]}\n";
  return os.str();
}

ScopedSpan::ScopedSpan(SpanRecorder* rec, const std::string& name,
                       const std::string& layer) {
  if (rec != nullptr) {
    rec_ = rec;
    id_ = rec->Begin(name, layer);
  }
}

ScopedSpan::~ScopedSpan() {
  if (rec_ != nullptr) rec_->End(id_);
}

std::map<std::string, double> RollupSelfTimes(
    const std::vector<SpanRecord>& op_spans) {
  std::map<int32_t, double> child_time;
  for (const SpanRecord& s : op_spans) {
    if (s.parent >= 0) child_time[s.parent] += s.end_s - s.start_s;
  }
  std::map<std::string, double> rows;
  for (const SpanRecord& s : op_spans) {
    double self = s.end_s - s.start_s - child_time[s.id];
    for (const auto& [layer, seconds] : s.rows) {
      rows[layer] += seconds;
      self -= seconds;
    }
    rows[s.parent < 0 ? "unattributed" : s.layer] += self;
  }
  return rows;
}

// ---------------------------------------------------------------------------

OpenLoopResult RunOpenLoop(OpenLoopBackend* backend, double rate,
                           double seconds, double drain_s) {
  OpenLoopResult r;
  r.rate = rate;
  const int64_t total =
      std::max<int64_t>(1, static_cast<int64_t>(std::floor(seconds * rate)));
  r.latency_s.assign(static_cast<size_t>(total),
                     std::numeric_limits<double>::infinity());
  r.gen_lag_s.reserve(static_cast<size_t>(total));
  std::vector<bool> failed(static_cast<size_t>(total), false);
  std::vector<bool> settled(static_cast<size_t>(total), false);
  const auto period = std::chrono::duration<double>(1.0 / rate);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  auto due_of = [&](int64_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       period * static_cast<double>(i));
  };

  std::vector<std::pair<int64_t, bool>> done;
  auto collect = [&]() {
    done.clear();
    backend->Poll(&done);
    if (done.empty()) return;
    const Clock::time_point now = Clock::now();
    for (const auto& [i, ok] : done) {
      const size_t k = static_cast<size_t>(i);
      settled[k] = true;
      if (ok) {
        r.latency_s[k] = std::chrono::duration<double>(now - due_of(i)).count();
      } else {
        failed[k] = true;
      }
    }
  };

  for (int64_t i = 0; i < total; ++i) {
    const Clock::time_point due = due_of(i);
    for (;;) {
      collect();
      const Clock::time_point now = Clock::now();
      if (now >= due) break;
      // Sleep only when nothing is in flight: a completion is stamped when
      // it is polled, so polling must be tight while requests are open.
      if (backend->Outstanding() == 0 &&
          due - now > std::chrono::microseconds(200)) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      } else {
        std::this_thread::yield();
      }
    }
    r.gen_lag_s.push_back(SecondsSince(due));
    ++r.attempted;
    if (!backend->Send(i, due)) {
      settled[static_cast<size_t>(i)] = true;
      failed[static_cast<size_t>(i)] = true;
    }
    if (i == total / 2) r.outstanding_mid = backend->Outstanding();
  }
  r.outstanding_end = backend->Outstanding();

  const Clock::time_point drain_start = Clock::now();
  while (backend->Outstanding() > 0 && SecondsSince(drain_start) < drain_s) {
    collect();
    std::this_thread::yield();
  }
  collect();
  for (size_t k = 0; k < settled.size(); ++k) {
    if (!settled[k]) failed[k] = true;
    if (failed[k]) {
      ++r.failed;
      r.latency_s[k] = std::numeric_limits<double>::infinity();
    }
  }
  return r;
}

bool BacklogSteady(const OpenLoopResult& r, int64_t slack) {
  return r.outstanding_end <= r.outstanding_mid + slack;
}

// ---------------------------------------------------------------------------

namespace {

uint64_t AluLoop(uint64_t iterations) {
  uint64_t x = 0x243f6a8885a308d3ULL;
  for (uint64_t i = 0; i < iterations; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 29;
  }
  return x;
}

}  // namespace

double CalibrateParallelism(int nthreads) {
  constexpr uint64_t kIterations = 20'000'000;
  std::vector<double> ratios;
  for (int trial = 0; trial < 3; ++trial) {
    Clock::time_point t0 = Clock::now();
    volatile uint64_t sink = AluLoop(kIterations);
    const double single = SecondsSince(t0);

    std::vector<uint64_t> results(static_cast<size_t>(nthreads));
    std::vector<std::thread> threads;
    t0 = Clock::now();
    for (int t = 0; t < nthreads; ++t) {
      threads.emplace_back([&results, t] {
        results[static_cast<size_t>(t)] = AluLoop(kIterations + t);
      });
    }
    for (std::thread& th : threads) th.join();
    const double parallel = SecondsSince(t0);
    for (uint64_t v : results) sink = sink ^ v;
    ratios.push_back(nthreads * single / parallel);
  }
  return Median(ratios);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0 / 1e6;
    }
  }
  return 0;
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1.0;
    std::snprintf(value, sizeof(value), "%.10g", v);
    os << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
       << "\": {\"value\": " << value << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
