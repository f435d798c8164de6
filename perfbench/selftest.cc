// Self-tests of the benchmark's own measurement code and input generators.
//   python3 perfbench/run.py --selftest
// Exits non-zero when any check fails.

#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace {

int g_checks = 0;
int g_failed = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    ++g_checks;                                                      \
    if (!(cond)) {                                                   \
      ++g_failed;                                                    \
      std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);    \
    }                                                                \
  } while (0)

using namespace perfbench;

void TestTailPercentile() {
  std::vector<double> v;
  for (int i = 1; i <= 10; ++i) v.push_back(i);
  Tail t = TailPercentile(v);
  CHECK(!t.ok);  // ten samples: no percentile has ten beyond it
  CHECK(t.value == 10);

  v.push_back(11);  // 1..11: only the minimum has ten samples beyond it
  t = TailPercentile(v);
  CHECK(t.ok);
  CHECK(t.value == 1);
  CHECK(t.beyond == 10);
  CHECK(std::abs(t.percentile - 100.0 / 11.0) < 1e-9);

  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // order must not matter
  t = TailPercentile(hundred);
  CHECK(t.value == 90);
  CHECK(std::abs(t.percentile - 90.0) < 1e-9);
  CHECK(t.samples == 100);

  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  t = TailPercentile(thousand);
  CHECK(t.value == 990);
  CHECK(std::abs(t.percentile - 99.0) < 1e-9);

  CHECK(Median({3, 1, 2}) == 2);
  CHECK(Median({4, 1, 3, 2}) == 2.5);
}

/// Completes every request inside Send, but stalls once for `stall_s`.
class StallingBackend : public OpenLoopBackend {
 public:
  StallingBackend(int64_t stall_at, double stall_s)
      : stall_at_(stall_at), stall_s_(stall_s) {}
  bool Send(int64_t i, Clock::time_point) override {
    if (i == stall_at_) {
      std::this_thread::sleep_for(std::chrono::duration<double>(stall_s_));
    }
    completed_.emplace_back(i, true);
    return true;
  }
  void Poll(std::vector<std::pair<int64_t, bool>>* done) override {
    done->insert(done->end(), completed_.begin(), completed_.end());
    completed_.clear();
  }
  int64_t Outstanding() const override {
    return static_cast<int64_t>(completed_.size());
  }

 private:
  int64_t stall_at_;
  double stall_s_;
  std::vector<std::pair<int64_t, bool>> completed_;
};

void TestDueTimeAccounting() {
  // 1000 requests/s; request 50 stalls the sender for 40 ms. Timed from
  // their due times, the requests queued behind the stall are late too.
  StallingBackend backend(50, 0.040);
  OpenLoopResult r = RunOpenLoop(&backend, 1000, 0.2, 1.0);
  CHECK(r.attempted == 200);
  CHECK(r.failed == 0);
  CHECK(r.latency_s.size() == 200);
  CHECK(r.latency_s[50] >= 0.040);
  CHECK(r.latency_s[51] >= 0.030);  // due 1 ms later, sent after the stall
  CHECK(r.latency_s[60] >= 0.020);
  CHECK(r.gen_lag_s[51] >= 0.030);
  // Well before the stall nothing is late (generous bound for shared CPUs).
  CHECK(Median(std::vector<double>(r.latency_s.begin() + 10,
                                   r.latency_s.begin() + 40)) < 0.010);
  // Refused requests count as failed with infinite latency.
  class Refusing : public StallingBackend {
   public:
    Refusing() : StallingBackend(-1, 0) {}
    bool Send(int64_t, Clock::time_point) override { return false; }
  } refusing;
  r = RunOpenLoop(&refusing, 1000, 0.01, 0.1);
  CHECK(r.failed == r.attempted);
  CHECK(std::isinf(r.latency_s[0]));
}

void TestRollupSumsToWall() {
  // Hand-built operation: root [0, 10] with children parse [1, 2] and
  // execute [2, 9]; execute carries 4 s of matrix and 1 s of dist rows and
  // has a child io span [3, 4].
  std::vector<SpanRecord> spans(4);
  spans[0] = {1, 0, -1, "op", "bench", 0, 10, {}};
  spans[1] = {1, 1, 0, "parse", "lang", 1, 2, {}};
  spans[2] = {1, 2, 0, "execute", "controlprog", 2, 9,
              {{"matrix", 4.0}, {"dist", 1.0}}};
  spans[3] = {1, 3, 2, "read", "io", 3, 4, {}};
  std::map<std::string, double> rows = RollupSelfTimes(spans);
  CHECK(rows["unattributed"] == 2);  // 10 - 1 - 7
  CHECK(rows["lang"] == 1);
  CHECK(rows["controlprog"] == 1);  // 7 - 1 (io) - 4 - 1
  CHECK(rows["matrix"] == 4);
  CHECK(rows["dist"] == 1);
  CHECK(rows["io"] == 1);
  double sum = 0;
  for (const auto& [layer, secs] : rows) sum += secs;
  CHECK(sum == 10);

  // The same through the recorder, with real clock readings.
  SpanRecorder rec;
  const int64_t op = rec.NewOp();
  const int32_t root = rec.Begin("op", "bench");
  {
    ScopedSpan a(&rec, "parse", "lang");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const int32_t e = rec.Begin("execute", "controlprog");
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  rec.End(e);
  rec.AddRow(e, "matrix", 0.001);
  rec.End(root);
  rec.NewOp();  // spans of another operation are not rolled up
  rec.End(rec.Begin("other", "bench"));
  rows = RollupSelfTimes(rec.OpSpans(op));
  sum = 0;
  for (const auto& [layer, secs] : rows) sum += secs;
  CHECK(std::abs(sum - rec.Duration(root)) < 1e-12);
  CHECK(rows.count("matrix") == 1 && rows["matrix"] == 0.001);
  CHECK(rec.OpSpans(op).size() == 3);
}

void TestSeedDeterminism() {
  CHECK(GenCsv(7, 2000).text == GenCsv(7, 2000).text);
  CHECK(GenCsv(7, 2000).text != GenCsv(8, 2000).text);
  const LmdsInput a = GenLmds(7, 300, 5);
  const LmdsInput b = GenLmds(7, 300, 5);
  const LmdsInput c = GenLmds(8, 300, 5);
  CHECK(MatrixBytes(a.X) == MatrixBytes(b.X));
  CHECK(MatrixBytes(a.y) == MatrixBytes(b.y));
  CHECK(MatrixBytes(a.X) != MatrixBytes(c.X));
  CHECK(MatrixBytes(a.y) != MatrixBytes(c.y));
  Rng r1(3), r2(3), r3(4);
  CHECK(MatrixBytes(GenUniform(r1, 50, 4)) == MatrixBytes(GenUniform(r2, 50, 4)));
  CHECK(MatrixBytes(GenUniform(r1, 50, 4)) != MatrixBytes(GenUniform(r3, 50, 4)));

  // The generator's own tallies agree with the text it wrote.
  const CsvInput csv = GenCsv(11, 500);
  int64_t total = 0;
  for (int64_t n : csv.city_counts) total += n;
  CHECK(total == 500);
  int64_t lines = 0;
  for (char ch : csv.text) lines += ch == '\n';
  CHECK(lines == 501);  // header + rows
}

void TestReferences() {
  // (A + lambda I) x = rhs for A = [[4, 2], [2, 3]], lambda = 1:
  // [[5, 2], [2, 4]] x = [9, 10] -> x = [1, 2].
  const std::vector<double> x = CholeskySolve({4, 2, 2, 3}, {9, 10}, 2, 1.0);
  CHECK(std::abs(x[0] - 1) < 1e-12 && std::abs(x[1] - 2) < 1e-12);

  const sysds::MatrixBlock X =
      sysds::MatrixBlock::FromValues(2, 2, {1, 2, 3, 4});
  const sysds::MatrixBlock Y =
      sysds::MatrixBlock::FromValues(2, 1, {5, 6});
  const sysds::MatrixBlock xty = NaiveTransposeMultiply(X, Y);
  CHECK(xty.Rows() == 2 && xty.Cols() == 1);
  CHECK(xty.Get(0, 0) == 23 && xty.Get(1, 0) == 34);  // [1*5+3*6, 2*5+4*6]
}

void TestResultLine() {
  const std::string line = ResultJson(true, 3, 0, {{"setup_s", 0.25, "s"}});
  CHECK(line ==
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
        "{\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}");
}

}  // namespace

int main() {
  TestTailPercentile();
  TestDueTimeAccounting();
  TestRollupSumsToWall();
  TestSeedDeterminism();
  TestReferences();
  TestResultLine();
  std::printf("%d checks, %d failed\n", g_checks, g_failed);
  return g_failed == 0 ? 0 : 1;
}
