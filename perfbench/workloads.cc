#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <set>
#include <sstream>
#include <thread>

#include "api/systemds_context.h"
#include "compiler/compiler.h"
#include "io/io.h"
#include "lang/parser.h"
#include "obs/metrics.h"
#include "serve/scoring_service.h"

namespace perfbench {

using sysds::DataPtr;
using sysds::Inputs;
using sysds::MatrixBlock;
using sysds::Outputs;
using sysds::ScriptResult;
using sysds::StatusOr;
using sysds::SystemDSContext;

namespace {

// Paper §4.1: the lmDS sweep over 50000 x 50 with k = 24 lambdas.
constexpr int64_t kLmdsRows = 50000;
constexpr int64_t kLmdsCols = 50;
constexpr int kLmdsModels = 24;

constexpr int64_t kCsvRows = 200000;

// X and Y together are 10 MB against a 6.25 MB pool: the loop's working set
// does not fit, so every iteration spills and restores.
constexpr int64_t kSpillRows = 6250;
constexpr int64_t kSpillCols = 100;
constexpr int64_t kSpillPoolLimit = 25LL << 18;
constexpr int kSpillIterations = 8;

// Scoring model: d features, a pool of distinct request rows.
constexpr int64_t kScoreFeatures = 256;
constexpr int64_t kScoreRows = 1024;
constexpr double kScoreRateLow = 200;
constexpr double kScoreRateMid = 800;
constexpr double kScoreRateHigh = 1600;
// Tail-latency limit for the max-rate search, and the deadline of every
// request the search sends.
constexpr double kScoreLimitS = 0.050;
// The fixed-rate phases send requests without a deadline into a queue that
// holds 2.5 s of the high rate, and wait this long for stragglers: a host
// stall shows as latency, not as refused or timed-out requests, so the count
// of failed operations stays a count of errors and wrong answers.
constexpr size_t kScoreQueueDepth = 4096;
constexpr double kScoreDrainS = 10.0;

// Setup is repeated and the median reported, so one slow build does not
// move setup_s. A scoring setup takes milliseconds, so it can repeat more.
constexpr int kSetupReps = 5;
constexpr int kScoreSetupReps = 9;

int Nproc() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

bool Near(double got, double want, double rel) {
  if (!std::isfinite(got)) return false;
  return std::abs(got - want) <= rel * std::max(1.0, std::abs(want));
}

std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

// ---------------------------------------------------------------------------
// Counter snapshots: every per-layer count is a delta of the program's own
// metrics (obs::MetricsRegistry) taken around one operation.

struct Snapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, std::pair<int64_t, double>> instr;
  int64_t restores = 0;
  int64_t restore_ns = 0;
  int64_t evict_stall_ns = 0;

  static Snapshot Take() {
    auto& reg = sysds::obs::MetricsRegistry::Get();
    Snapshot s;
    for (const auto& c : reg.Counters()) s.counters[c.name] = c.value;
    for (const auto& i : reg.Instructions()) {
      s.instr[i.name] = {i.count, i.seconds};
    }
    sysds::obs::Histogram* restore = reg.GetHistogram("bufferpool.restore_ns");
    s.restores = restore->Count();
    s.restore_ns = restore->Sum();
    s.evict_stall_ns = reg.GetHistogram("bufferpool.evict_stall_ns")->Sum();
    return s;
  }

  int64_t Counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

// Layer of a leaf opcode. fcall is skipped: its time includes the
// instructions of the function body, which are timed on their own.
std::string OpcodeLayer(const std::string& op) {
  static const std::set<std::string> kBookkeeping = {
      "createvar", "rmvar", "cpvar", "mvvar", "assignvar", "print", "stop"};
  if (op == "fcall") return "";
  if (op.rfind("sp_", 0) == 0) return "dist";
  if (op == "pread" || op == "pwrite") return "io";
  if (op.rfind("transform", 0) == 0) return "frame";
  if (kBookkeeping.count(op) > 0) return "controlprog";
  return "matrix";
}

/// Per-operation values of the per-layer metrics.
using LayerValues = std::map<std::string, double>;

/// Fills the counter-derived per-layer values for one operation and
/// attributes the leaf-opcode time to span `exec_span`.
void AddCounterDeltas(const Snapshot& a, const Snapshot& b, SpanRecorder* rec,
                      int32_t exec_span, double run_s, LayerValues* v) {
  std::map<std::string, double> layer_s;
  int64_t instructions = 0;
  int64_t sp_ops = 0;
  for (const auto& [name, after] : b.instr) {
    auto it = a.instr.find(name);
    const int64_t count = after.first - (it == a.instr.end() ? 0 : it->second.first);
    const double secs = after.second - (it == a.instr.end() ? 0 : it->second.second);
    if (count == 0) continue;
    instructions += count;
    const std::string layer = OpcodeLayer(name);
    if (layer.empty()) continue;
    if (layer == "dist") sp_ops += count;
    if (name == "pread") (*v)["io.read_s"] += secs;
    if (name == "pwrite") (*v)["io.write_s"] += secs;
    if (name == "transformencode") (*v)["frame.encode_s"] += secs;
    layer_s[layer] += secs;
  }
  double leaves = 0;
  for (const auto& [layer, secs] : layer_s) {
    if (layer == "controlprog") continue;  // stays in the span's self time
    rec->AddRow(exec_span, layer, secs);
    leaves += secs;
  }
  (*v)["controlprog.run_s"] = run_s;
  (*v)["controlprog.instructions"] = static_cast<double>(instructions);
  (*v)["controlprog.unattributed_s"] = run_s - leaves;
  (*v)["matrix.cp_kernel_s"] = layer_s["matrix"];
  (*v)["dist.sp_ops"] = static_cast<double>(sp_ops);
  (*v)["dist.sp_op_s"] = layer_s["dist"];
  (*v)["dist.shuffled_blocks"] = static_cast<double>(
      b.Counter("spark.shuffled_blocks") - a.Counter("spark.shuffled_blocks"));
  (*v)["compiler.recompilations"] = static_cast<double>(
      b.Counter("compiler.recompilations") -
      a.Counter("compiler.recompilations"));
  (*v)["compiler.fusion_regions"] = static_cast<double>(
      b.Counter("fusion.regions") - a.Counter("fusion.regions"));
  for (const char* name : {"scheduler.tasks", "scheduler.steals",
                           "scheduler.chunks", "bufferpool.sync_spills",
                           "bufferpool.free_drops",
                           "bufferpool.prefetch_issued",
                           "bufferpool.prefetch_hits"}) {
    (*v)[name] = static_cast<double>(b.Counter(name) - a.Counter(name));
  }
  const double hits = static_cast<double>(b.Counter("bufferpool.hits") -
                                          a.Counter("bufferpool.hits"));
  const double misses = static_cast<double>(b.Counter("bufferpool.misses") -
                                            a.Counter("bufferpool.misses"));
  (*v)["bufferpool.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  (*v)["bufferpool.restores"] = static_cast<double>(b.restores - a.restores);
  (*v)["bufferpool.restore_s"] =
      static_cast<double>(b.restore_ns - a.restore_ns) / 1e9;
  (*v)["bufferpool.evict_stall_s"] =
      static_cast<double>(b.evict_stall_ns - a.evict_stall_ns) / 1e9;
  (*v)["bufferpool.spilled_mb"] =
      static_cast<double>(b.Counter("bufferpool.spilled_bytes") -
                          a.Counter("bufferpool.spilled_bytes")) /
      1e6;
  const double issued = (*v)["bufferpool.prefetch_issued"];
  (*v)["bufferpool.prefetch_hit_ratio"] =
      issued > 0 ? (*v)["bufferpool.prefetch_hits"] / issued : 0;
}

void AddLineageStats(const sysds::LineageCacheStats& a,
                     const sysds::LineageCacheStats& b, LayerValues* v) {
  const double probes = static_cast<double>(b.probes - a.probes);
  const double hits = static_cast<double>(b.full_hits + b.partial_hits -
                                          a.full_hits - a.partial_hits);
  (*v)["lineage.probes"] = probes;
  (*v)["lineage.hits"] = hits;
  (*v)["lineage.hit_ratio"] = probes > 0 ? hits / probes : 0;
  (*v)["lineage.cached_bytes"] = static_cast<double>(b.bytes);
  (*v)["lineage.evictions"] = static_cast<double>(b.evictions - a.evictions);
}

sysds::SymbolInfoMap InfosOf(const Inputs& inputs) {
  sysds::SymbolInfoMap infos;
  for (const auto& [name, value] : inputs.Bindings()) {
    // The batch workloads bind matrices only.
    if (auto* m = dynamic_cast<const sysds::MatrixObject*>(value.get())) {
      sysds::SymbolInfo info;
      info.dt = sysds::DataType::kMatrix;
      info.dim1 = m->Rows();
      info.dim2 = m->Cols();
      info.nnz = m->NonZeros();
      infos[name] = info;
    }
  }
  return infos;
}

// ---------------------------------------------------------------------------
// Per-layer reporting shared by every workload.

struct TracedOps {
  std::vector<LayerValues> ops;
  std::vector<double> traced_exec_s;
  std::vector<double> untraced_exec_s;
  std::map<std::string, double> rollup_total;  // layer -> seconds, all ops
  double wall_total = 0;
  double max_residual = 0;  // |sum of rows - wall| over ops

  void AddRollup(const SpanRecorder& rec, int64_t op, int32_t root,
                 LayerValues* v) {
    const std::map<std::string, double> rows = RollupSelfTimes(rec.OpSpans(op));
    double sum = 0;
    for (const auto& [layer, secs] : rows) {
      rollup_total[layer] += secs;
      sum += secs;
    }
    const double wall = rec.Duration(root);
    wall_total += wall;
    max_residual = std::max(max_residual, std::abs(sum - wall));
    (*v)["op.wall_s"] = wall;
    auto it = rows.find("unattributed");
    (*v)["op.unattributed_s"] = it == rows.end() ? 0 : it->second;
  }
};

void ReportLayers(const TracedOps& t, const LayerValues& extra,
                  WorkloadResult* out) {
  std::map<std::string, std::vector<double>> columns;
  for (const LayerValues& op : t.ops) {
    for (const auto& [name, value] : op) columns[name].push_back(value);
  }
  for (const auto& [name, unit] : PerLayerMetrics()) {
    double value = 0;
    auto e = extra.find(name);
    if (e != extra.end()) {
      value = e->second;
    } else if (columns.count(name) > 0) {
      value = Median(columns[name]);
    }
    out->metrics.push_back({name, value, unit});
  }
  std::ostringstream os;
  os << "rollup over " << t.ops.size() << " traced ops (self seconds):";
  for (const auto& [layer, secs] : t.rollup_total) {
    os << " " << layer << "=" << Fmt("%.4f", secs);
  }
  os << " | wall=" << Fmt("%.4f", t.wall_total)
     << " max|rows-wall|=" << Fmt("%.2e", t.max_residual);
  out->notes.push_back(os.str());
  // The rollup is exact by construction; anything else is a harness bug.
  if (t.max_residual > 1e-6) out->correct = false;
}

void ReportEndToEnd(const std::vector<double>& setup_s,
                    const std::vector<double>& exec_s, const char* exec_what,
                    WorkloadResult* out) {
  const Tail tail = TailPercentile(exec_s);
  out->metrics.push_back({"setup_s", Median(setup_s), "s"});
  out->metrics.push_back({"exec_s_p50", Median(exec_s), "s"});
  out->metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  // The tail is reported, not gated: a batch run holds too few executions
  // for a percentile above the median to have ten samples beyond it, and
  // the open-loop tail moves with the machine's other load.
  out->diagnostics.push_back({"exec_s_tail", tail.value, "s"});
  out->diagnostics.push_back({"exec_s_tail.percentile", tail.percentile, "%"});
  out->diagnostics.push_back(
      {"exec_s_tail.samples", static_cast<double>(tail.samples), "count"});
  std::ostringstream os;
  os << "exec_s (" << exec_what << "): n=" << tail.samples << " min="
     << Fmt("%.6f", exec_s.empty() ? 0.0 : *std::min_element(exec_s.begin(), exec_s.end()))
     << " p50=" << Fmt("%.6f", Median(exec_s)) << " tail=p"
     << Fmt("%.1f", tail.percentile) << " (" << tail.beyond
     << " samples beyond) = " << Fmt("%.6f", tail.value);
  if (!tail.ok) os << " [fewer than 11 samples: tail is the maximum]";
  out->notes.push_back(os.str());
}

// ---------------------------------------------------------------------------
// Batch workloads: closed loop, one client. Each execution gets a fresh
// context and fresh input objects, so the lineage cache only ever serves
// reuse within one script run (it persists across runs in a context).

struct BatchSpec {
  std::string name;
  std::string script;
  std::vector<std::string> outputs;
  std::function<std::unique_ptr<SystemDSContext>(bool statistics)> build;
  /// Fresh input objects; called after the context is built so matrices
  /// register with its buffer pool.
  std::function<Inputs()> inputs;
  /// Checks the outputs against the benchmark's own reference.
  std::function<bool(const ScriptResult&, SpanRecorder*)> check;
  /// Extra traced-only work inside the operation (direct io:: probes).
  std::function<void(SpanRecorder*, LayerValues*)> traced_extra;
};

/// One untraced execution; returns seconds from Execute to checked result,
/// or a negative value on failure.
double RunOnce(const BatchSpec& w, std::string* error) {
  auto ctx = w.build(false);
  double secs = -1;
  {
    Inputs in = w.inputs();
    const Clock::time_point t0 = Clock::now();
    StatusOr<ScriptResult> r =
        ctx->Execute(w.script, in, Outputs::FromVector(w.outputs));
    if (!r.ok()) {
      *error = r.status().ToString();
    } else if (!w.check(*r, nullptr)) {
      *error = "output check failed";
    } else {
      secs = SecondsSince(t0);
    }
  }
  return secs;
}

/// One traced execution: spans around ParseDML, CompileDML, Execute and the
/// check, counter deltas attributed inside the Execute span.
double RunTraced(const BatchSpec& w, SpanRecorder* rec, TracedOps* t,
                 std::string* error) {
  auto ctx = w.build(true);
  double secs = -1;
  LayerValues v;
  {
    Inputs in = w.inputs();
    const sysds::SymbolInfoMap infos = InfosOf(in);
    const int64_t op = rec->NewOp();
    const int32_t root = rec->Begin("op:" + w.name, "bench");

    const int32_t ps = rec->Begin("ParseDML", "lang");
    const bool parsed = sysds::ParseDML(w.script).ok();
    rec->End(ps);
    const double parse_s = rec->Duration(ps);

    const int32_t cs = rec->Begin("CompileDML", "compiler");
    const bool compiled = sysds::CompileDML(w.script, ctx->config(), infos).ok();
    rec->End(cs);
    // CompileDML parses the script itself.
    rec->AddRow(cs, "lang", parse_s);
    const double compile_s = std::max(0.0, rec->Duration(cs) - parse_s);

    const Snapshot before = Snapshot::Take();
    const Clock::time_point t0 = Clock::now();
    const int32_t es = rec->Begin("Execute", "controlprog");
    StatusOr<ScriptResult> r =
        ctx->Execute(w.script, in, Outputs::FromVector(w.outputs));
    rec->End(es);
    const Snapshot after = Snapshot::Take();
    // Execute compiles before it runs; that share is charged to the same
    // layers as the standalone calls above.
    rec->AddRow(es, "lang", parse_s);
    rec->AddRow(es, "compiler", compile_s);
    const double run_s =
        std::max(0.0, rec->Duration(es) - parse_s - compile_s);
    AddCounterDeltas(before, after, rec, es, run_s, &v);
    AddLineageStats({}, ctx->Cache()->Stats(), &v);

    const int32_t ks = rec->Begin("check", "bench");
    bool ok = parsed && compiled && r.ok();
    if (!r.ok()) *error = r.status().ToString();
    if (ok && !w.check(*r, rec)) {
      ok = false;
      *error = "output check failed";
    }
    rec->End(ks);
    if (ok) secs = SecondsSince(t0);
    if (w.traced_extra) w.traced_extra(rec, &v);
    rec->End(root);

    v["lang.parse_s"] = parse_s;
    v["compiler.compile_s"] = compile_s;
    t->AddRollup(*rec, op, root, &v);
  }
  if (secs >= 0) t->ops.push_back(std::move(v));
  return secs;
}

WorkloadResult RunBatch(const BatchSpec& w, const RunOptions& o) {
  WorkloadResult out;
  std::string error;
  auto count = [&](double secs) {
    ++out.attempted;
    if (secs < 0) {
      ++out.failed;
      out.correct = false;
      out.notes.push_back("operation failed: " + error);
    }
  };

  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    // Build to ready, including one warm-up execution; input binding is
    // data preparation and is not timed.
    Clock::time_point t0 = Clock::now();
    auto ctx = w.build(false);
    double build_s = SecondsSince(t0);
    Inputs in = w.inputs();
    t0 = Clock::now();
    StatusOr<ScriptResult> r =
        ctx->Execute(w.script, in, Outputs::FromVector(w.outputs));
    bool ok = r.ok() && w.check(*r, nullptr);
    if (!r.ok()) error = r.status().ToString();
    else if (!ok) error = "output check failed";
    count(ok ? 0.0 : -1.0);
    setup_s.push_back(build_s + SecondsSince(t0));
  }

  const Clock::time_point start = Clock::now();
  if (!o.trace) {
    std::vector<double> exec_s;
    while (SecondsSince(start) < o.seconds || exec_s.empty()) {
      const double secs = RunOnce(w, &error);
      count(secs);
      if (secs >= 0) exec_s.push_back(secs);
      if (out.failed > 0) break;
    }
    ReportEndToEnd(setup_s, exec_s, "Execute call to checked result", &out);
    return out;
  }

  // Traced run: alternate untraced and traced executions so the tracing
  // overhead is measured under the same machine conditions.
  SpanRecorder rec;
  TracedOps t;
  while (SecondsSince(start) < o.seconds || t.ops.empty()) {
    const double plain = RunOnce(w, &error);
    count(plain);
    if (plain >= 0) t.untraced_exec_s.push_back(plain);
    const double traced = RunTraced(w, &rec, &t, &error);
    count(traced);
    if (traced >= 0) t.traced_exec_s.push_back(traced);
    if (out.failed > 0) break;
  }
  LayerValues extra;
  extra["trace.overhead_ratio"] =
      Median(t.traced_exec_s) / std::max(1e-12, Median(t.untraced_exec_s));
  ReportLayers(t, extra, &out);
  out.spans_json = rec.ToJson();
  return out;
}

// ---------------------------------------------------------------------------
// Reference helpers

bool MatrixNear(const MatrixBlock& got, const MatrixBlock& want, double rel) {
  if (got.Rows() != want.Rows() || got.Cols() != want.Cols()) return false;
  double scale = 0;
  for (int64_t r = 0; r < want.Rows(); ++r) {
    for (int64_t c = 0; c < want.Cols(); ++c) {
      scale = std::max(scale, std::abs(want.Get(r, c)));
    }
  }
  for (int64_t r = 0; r < want.Rows(); ++r) {
    for (int64_t c = 0; c < want.Cols(); ++c) {
      const double g = got.Get(r, c);
      if (!std::isfinite(g) ||
          std::abs(g - want.Get(r, c)) > rel * std::max(1.0, scale)) {
        return false;
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// lmds_sweep

WorkloadResult LmdsSweep(const RunOptions& o) {
  const LmdsInput data = GenLmds(o.seed, kLmdsRows, kLmdsCols);
  // Reference: normal equations, one Cholesky solve per lambda.
  const int64_t n = kLmdsCols;
  std::vector<double> xtx(static_cast<size_t>(n * n), 0.0);
  std::vector<double> xty(static_cast<size_t>(n), 0.0);
  for (int64_t r = 0; r < kLmdsRows; ++r) {
    const double* x = data.X.DenseRow(r);
    const double yv = data.y.Get(r, 0);
    for (int64_t i = 0; i < n; ++i) {
      xty[static_cast<size_t>(i)] += x[i] * yv;
      for (int64_t j = 0; j < n; ++j) {
        xtx[static_cast<size_t>(i * n + j)] += x[i] * x[j];
      }
    }
  }
  MatrixBlock b_ref = MatrixBlock::Dense(n, kLmdsModels);
  MatrixBlock rss_ref = MatrixBlock::Dense(kLmdsModels, 1);
  for (int k = 0; k < kLmdsModels; ++k) {
    const double lambda = std::pow(10.0, -(-3.0 + 0.5 * k));
    const std::vector<double> b = CholeskySolve(xtx, xty, n, lambda);
    for (int64_t i = 0; i < n; ++i) b_ref.Set(i, k, b[static_cast<size_t>(i)]);
    double rss = 0;
    for (int64_t r = 0; r < kLmdsRows; ++r) {
      const double* x = data.X.DenseRow(r);
      double pred = 0;
      for (int64_t i = 0; i < n; ++i) pred += x[i] * b[static_cast<size_t>(i)];
      const double e = pred - data.y.Get(r, 0);
      rss += e * e;
    }
    rss_ref.Set(k, 0, rss);
  }

  BatchSpec w;
  w.name = "lmds_sweep";
  w.script = R"(
lambdas = 10 ^ -seq(-3, 8.5, 0.5)
k = nrow(lambdas)
B = matrix(0, ncol(X), k)
for (i in 1:k) {
  reg = as.scalar(lambdas[i, 1])
  B[, i] = lmDS(X, y, 0, reg)
}
R = matrix(0, k, 1)
for (i in 1:k) {
  r = X %*% B[, i] - y
  R[i, 1] = sum(r ^ 2)
}
)";
  w.outputs = {"B", "R"};
  w.build = [](bool statistics) {
    return SystemDSContext::Builder()
        .NumThreads(Nproc())
        .Reuse(sysds::ReusePolicy::kFull)
        .Statistics(statistics)
        .Build();
  };
  w.inputs = [&data]() {
    return Inputs().Matrix("X", data.X).Matrix("y", data.y);
  };
  w.check = [&](const ScriptResult& r, SpanRecorder*) {
    StatusOr<MatrixBlock> b = r.GetMatrix("B");
    StatusOr<MatrixBlock> rss = r.GetMatrix("R");
    return b.ok() && rss.ok() && MatrixNear(*b, b_ref, 1e-6) &&
           MatrixNear(*rss, rss_ref, 1e-6);
  };
  return RunBatch(w, o);
}

// ---------------------------------------------------------------------------
// csv_prep

// Column layout of the generated CSV and of the encoded matrix: the two
// categorical columns are dummycoded in place (one column per token, tokens
// in sorted order), the other four stay one column each.
constexpr int kCities = 20;
constexpr int kSegments = 5;
constexpr int64_t kEncodedCols = kCities + kSegments + 4;

WorkloadResult CsvPrep(const RunOptions& o) {
  const CsvInput data = GenCsv(o.seed, kCsvRows);
  namespace fs = std::filesystem;
  const std::string dir = (fs::path(o.work_dir) / "csv_prep").string();
  fs::create_directories(dir);
  const std::string csv = dir + "/input.csv";
  const std::string enc = dir + "/encoded.bin";
  const std::string model = dir + "/model.csv";
  {
    std::ofstream f(csv, std::ios::binary);
    f << data.text;
  }

  BatchSpec w;
  w.name = "csv_prep";
  w.script = "F = read('" + csv +
             "', data_type='frame', format='csv', header=TRUE)\n"
             R"([E, M] = transformencode(target=F, spec='{"recode":["city","segment"],"dummycode":["city","segment"],"impute":[{"name":"age","method":"mean"},{"name":"income","method":"mean"},{"name":"score","method":"mean"}],"bin":[{"name":"age","method":"equi-width","numbins":8}]}')
X = E[, 1:(ncol(E) - 1)]
y = E[, ncol(E)]
[Xs, mu, sdv] = scale(X, TRUE, TRUE)
B = lm(Xs, y, 0, 0.001)
write(E, ')" + enc + R"(', format='binary')
write(B, ')" + model + R"(', format='csv')
E2 = read(')" + enc + R"(', format='binary')
shape = matrix(0, 1, 2)
shape[1, 1] = nrow(E2)
shape[1, 2] = ncol(E2)
colsum = colSums(E2)
)";
  w.outputs = {"B", "shape", "colsum"};
  w.build = [](bool statistics) {
    return SystemDSContext::Builder()
        .NumThreads(Nproc())
        .Statistics(statistics)
        .Build();
  };
  w.inputs = []() { return Inputs(); };
  w.check = [&, model](const ScriptResult& r, SpanRecorder* rec) {
    StatusOr<MatrixBlock> shape = r.GetMatrix("shape");
    StatusOr<MatrixBlock> colsum = r.GetMatrix("colsum");
    StatusOr<MatrixBlock> b = r.GetMatrix("B");
    if (!shape.ok() || !colsum.ok() || !b.ok()) return false;
    if (shape->Get(0, 0) != static_cast<double>(data.rows) ||
        shape->Get(0, 1) != static_cast<double>(kEncodedCols)) {
      return false;
    }
    for (int c = 0; c < kCities; ++c) {
      if (colsum->Get(0, c) != static_cast<double>(data.city_counts[c])) {
        return false;
      }
    }
    for (int s = 0; s < kSegments; ++s) {
      if (colsum->Get(0, kCities + s) !=
          static_cast<double>(data.segment_counts[s])) {
        return false;
      }
    }
    // Mean imputation keeps the column mean: sum = rows x observed mean.
    const double income_sum = colsum->Get(0, kCities + kSegments + 1);
    if (!Near(income_sum, data.income_mean * static_cast<double>(data.rows),
              1e-9)) {
      return false;
    }
    // The model file written by the script holds the returned model.
    StatusOr<MatrixBlock> written = [&] {
      ScopedSpan span(rec, "io::Read(model.csv)", "io");
      return sysds::io::Read(model, sysds::FormatDescriptor::Csv());
    }();
    return written.ok() && MatrixNear(*written, *b, 1e-12);
  };
  w.traced_extra = [csv, enc](SpanRecorder* rec, LayerValues* v) {
    // Direct reads of the workload's own files: the CSV input as a frame
    // and the binary output as a matrix.
    double bytes = 0;
    const int32_t fs_span = rec->Begin("io::ReadFrame(input.csv)", "io");
    const bool frame_ok =
        sysds::io::ReadFrame(csv, sysds::FormatDescriptor::Csv(',', true))
            .ok();
    rec->End(fs_span);
    const int32_t bs_span = rec->Begin("io::Read(encoded.bin)", "io");
    const bool bin_ok =
        sysds::io::Read(enc, sysds::FormatDescriptor::Binary()).ok();
    rec->End(bs_span);
    if (frame_ok && bin_ok) {
      bytes = static_cast<double>(fs::file_size(csv) + fs::file_size(enc));
    }
    const double secs = rec->Duration(fs_span) + rec->Duration(bs_span);
    (*v)["io.read_s"] += secs;
    (*v)["io.read_mb_per_s"] = bytes / 1e6 / std::max(1e-12, secs);
    (*v)["frame.rows_per_s"] = static_cast<double>(kCsvRows) /
                               std::max(1e-12, (*v)["frame.encode_s"]);
  };
  WorkloadResult out = RunBatch(w, o);
  fs::remove_all(dir);
  return out;
}

// ---------------------------------------------------------------------------
// spill_loop

WorkloadResult SpillLoop(const RunOptions& o) {
  Rng rng(o.seed);
  const MatrixBlock X = GenUniform(rng, kSpillRows, kSpillCols);
  const MatrixBlock Y = GenUniform(rng, kSpillRows, kSpillCols);
  MatrixBlock ref = NaiveTransposeMultiply(X, Y);
  double harmonic = 0;
  for (int i = 1; i <= kSpillIterations; ++i) harmonic += 1.0 / i;
  for (int64_t r = 0; r < ref.Rows(); ++r) {
    for (int64_t c = 0; c < ref.Cols(); ++c) {
      ref.Set(r, c, ref.Get(r, c) * harmonic);
    }
  }

  BatchSpec w;
  w.name = "spill_loop";
  w.script = R"(
acc = matrix(0, rows=ncol(X), cols=ncol(Y))
for (i in 1:)" + std::to_string(kSpillIterations) + R"() {
  G = t(X) %*% Y
  acc = acc + G * (1.0 / i)
}
)";
  w.outputs = {"acc"};
  w.build = [](bool statistics) {
    return SystemDSContext::Builder()
        .NumThreads(Nproc())
        .BufferPoolLimit(kSpillPoolLimit)
        .Statistics(statistics)
        .Build();
  };
  w.inputs = [&]() { return Inputs().Matrix("X", X).Matrix("Y", Y); };
  w.check = [&](const ScriptResult& r, SpanRecorder*) {
    StatusOr<MatrixBlock> acc = r.GetMatrix("acc");
    return acc.ok() && MatrixNear(*acc, ref, 1e-9);
  };
  return RunBatch(w, o);
}

// ---------------------------------------------------------------------------
// score_open

const char* kScoreScript = R"(
Z = (x - mu) / sd
P = t(W) %*% W
H = Z %*% P
yhat = sigmoid(H %*% w)
)";

struct ScoreData {
  MatrixBlock rows;  // kScoreRows x d request rows
  MatrixBlock mu, sd, W, w;
  std::vector<double> expected;  // yhat per request row
};

ScoreData GenScore(uint64_t seed) {
  Rng rng(seed);
  const int64_t d = kScoreFeatures;
  ScoreData s;
  s.mu = MatrixBlock::Dense(1, d);
  s.sd = MatrixBlock::Dense(1, d);
  for (int64_t j = 0; j < d; ++j) {
    s.mu.Set(0, j, 10.0 * rng.Uniform());
    s.sd.Set(0, j, 0.5 + rng.Uniform());
  }
  s.rows = MatrixBlock::Dense(kScoreRows, d);
  for (int64_t i = 0; i < kScoreRows; ++i) {
    for (int64_t j = 0; j < d; ++j) {
      s.rows.Set(i, j, s.mu.Get(0, j) + s.sd.Get(0, j) * rng.Normal());
    }
  }
  const double scale = 1.0 / std::sqrt(static_cast<double>(d));
  s.W = MatrixBlock::Dense(d, d);
  for (int64_t i = 0; i < d; ++i) {
    for (int64_t j = 0; j < d; ++j) s.W.Set(i, j, scale * rng.Normal());
  }
  s.w = MatrixBlock::Dense(d, 1);
  for (int64_t j = 0; j < d; ++j) s.w.Set(j, 0, scale * rng.Normal());

  // Reference: P = t(W) W, then per row sigmoid(((x - mu) / sd) P w).
  const MatrixBlock P = NaiveTransposeMultiply(s.W, s.W);
  std::vector<double> pw(static_cast<size_t>(d), 0.0);
  for (int64_t i = 0; i < d; ++i) {
    for (int64_t j = 0; j < d; ++j) pw[i] += P.Get(i, j) * s.w.Get(j, 0);
  }
  s.expected.resize(static_cast<size_t>(kScoreRows));
  for (int64_t r = 0; r < kScoreRows; ++r) {
    double dot = 0;
    for (int64_t j = 0; j < d; ++j) {
      const double z = (s.rows.Get(r, j) - s.mu.Get(0, j)) / s.sd.Get(0, j);
      dot += z * pw[static_cast<size_t>(j)];
    }
    s.expected[static_cast<size_t>(r)] = 1.0 / (1.0 + std::exp(-dot));
  }
  return s;
}

MatrixBlock RowOf(const MatrixBlock& m, int64_t r) {
  MatrixBlock row = MatrixBlock::Dense(1, m.Cols());
  std::memcpy(row.DenseRow(0), m.DenseRow(r),
              static_cast<size_t>(m.Cols()) * sizeof(double));
  row.MarkNnzDirty();
  return row;
}

/// The shared (pointer-identical across requests) model inputs.
struct SharedModel {
  DataPtr mu, sd, W, w;

  explicit SharedModel(const ScoreData& s)
      : mu(SystemDSContext::Matrix(s.mu)),
        sd(SystemDSContext::Matrix(s.sd)),
        W(SystemDSContext::Matrix(s.W)),
        w(SystemDSContext::Matrix(s.w)) {}

  /// One request: a fresh row object (so no request reuses another's
  /// output) plus the shared model.
  Inputs Request(const ScoreData& s, int64_t i) const {
    return Inputs()
        .Matrix("x", RowOf(s.rows, i % kScoreRows))
        .Bind("mu", mu)
        .Bind("sd", sd)
        .Bind("W", W)
        .Bind("w", w);
  }
};

bool ScoreCorrect(const StatusOr<ScriptResult>& r, const ScoreData& s,
                  int64_t i) {
  if (!r.ok()) return false;
  StatusOr<MatrixBlock> y = r->GetMatrix("yhat");
  return y.ok() && y->Rows() == 1 && y->Cols() == 1 &&
         Near(y->Get(0, 0), s.expected[static_cast<size_t>(i % kScoreRows)],
              1e-9);
}

std::map<std::string, sysds::SymbolInfo> ScoreInfos() {
  auto mat = [](int64_t r, int64_t c) {
    sysds::SymbolInfo info;
    info.dt = sysds::DataType::kMatrix;
    info.dim1 = r;
    info.dim2 = c;
    return info;
  };
  const int64_t d = kScoreFeatures;
  return {{"x", mat(1, d)},  {"mu", mat(1, d)}, {"sd", mat(1, d)},
          {"W", mat(d, d)},  {"w", mat(d, 1)}};
}

std::unique_ptr<SystemDSContext> ScoreContext(bool statistics) {
  // One kernel thread per request: the service workers are the parallelism.
  return SystemDSContext::Builder()
      .NumThreads(1)
      .Reuse(sysds::ReusePolicy::kFull)
      .Statistics(statistics)
      .Build();
}

/// A prepared model served by a running ScoringService.
struct ScoreServer {
  std::unique_ptr<SystemDSContext> ctx;
  std::shared_ptr<const sysds::PreparedScript> script;
  std::unique_ptr<SharedModel> model;
  std::unique_ptr<sysds::serve::ScoringService> svc;

  bool Start(const ScoreData& s, std::string* error) {
    ctx = ScoreContext(false);
    auto prepared = ctx->Prepare(kScoreScript, ScoreInfos());
    if (!prepared.ok()) {
      *error = prepared.status().ToString();
      return false;
    }
    script = std::shared_ptr<const sysds::PreparedScript>(std::move(*prepared));
    model = std::make_unique<SharedModel>(s);
    sysds::serve::ServiceOptions so;
    // Workers plus the generator thread stay within nproc.
    so.num_workers = std::max(1, Nproc() - 1);
    so.max_queue_depth = kScoreQueueDepth;
    svc = std::make_unique<sysds::serve::ScoringService>(so);
    sysds::serve::ModelOptions mo;
    mo.micro_batching = true;
    mo.batch_input = "x";
    mo.max_batch_size = 16;
    const sysds::Status reg = svc->RegisterModel("score", script, {"yhat"}, mo);
    if (!reg.ok()) {
      *error = reg.ToString();
      return false;
    }
    return true;
  }

};

class ServiceBackend : public OpenLoopBackend {
 public:
  /// `deadline_s` > 0 gives every request that deadline from its due time.
  ServiceBackend(ScoreServer* server, const ScoreData& data, double deadline_s)
      : server_(server), data_(data), deadline_s_(deadline_s) {}

  bool Send(int64_t i, Clock::time_point due) override {
    sysds::serve::RequestOptions ro;
    if (deadline_s_ > 0) {
      ro.deadline = due + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(deadline_s_));
    }
    open_.emplace_back(
        i, server_->svc->Submit("score", server_->model->Request(data_, i), ro));
    max_depth_ = std::max(max_depth_, server_->svc->QueueDepth());
    return true;
  }

  void Poll(std::vector<std::pair<int64_t, bool>>* done) override {
    for (size_t k = 0; k < open_.size();) {
      auto& [i, fut] = open_[k];
      if (fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++k;
        continue;
      }
      StatusOr<ScriptResult> r = fut.get();
      const bool ok = ScoreCorrect(r, data_, i);
      if (!ok && r.ok()) ++wrong_;
      done->emplace_back(i, ok);
      open_[k] = std::move(open_.back());
      open_.pop_back();
    }
  }

  int64_t Outstanding() const override {
    return static_cast<int64_t>(open_.size());
  }

  // Stragglers finish before the next phase starts, so phases stay apart.
  ~ServiceBackend() override {
    for (auto& entry : open_) entry.second.wait();
  }

  int64_t max_depth() const { return max_depth_; }
  int64_t wrong() const { return wrong_; }

 private:
  ScoreServer* server_;
  const ScoreData& data_;
  const double deadline_s_;
  std::vector<std::pair<int64_t, std::future<StatusOr<ScriptResult>>>> open_;
  int64_t max_depth_ = 0;
  int64_t wrong_ = 0;
};

struct RatePhase {
  const char* name;
  double rate;
  double share;  // of --seconds
};

constexpr RatePhase kRatePhases[] = {
    {"low", kScoreRateLow, 0.2},
    {"mid", kScoreRateMid, 0.35},
    {"high", kScoreRateHigh, 0.2},
};

// Share of --seconds spent on the max-rate search, and its rate ladder.
constexpr double kSearchShare = 0.25;
constexpr double kSearchStep = 1.5;
constexpr int kSearchProbes = 6;

std::string DescribePhase(const char* name, const OpenLoopResult& r,
                          int64_t max_depth) {
  const Tail tail = TailPercentile(r.latency_s);
  std::ostringstream os;
  os << "rate " << name << " (" << r.rate << " req/s, " << r.attempted
     << " requests): lat_ms_p50." << name << "="
     << Fmt("%.4f", Median(r.latency_s) * 1e3) << " ms lat_ms_tail." << name
     << "=" << Fmt("%.4f", tail.value * 1e3) << " ms (p"
     << Fmt("%.2f", tail.percentile) << ", " << tail.beyond
     << " beyond) failed=" << r.failed
     << " bench.gen_lag_ms p50=" << Fmt("%.4f", Median(r.gen_lag_s) * 1e3)
     << " tail=" << Fmt("%.4f", TailPercentile(r.gen_lag_s).value * 1e3)
     << " backlog mid/end=" << r.outstanding_mid << "/" << r.outstanding_end
     << " max_queue_depth=" << max_depth;
  return os.str();
}

/// True when a rate met the latency limit with no failures, no growing
/// backlog, and a generator that kept to its schedule.
bool RateMet(const OpenLoopResult& r) {
  return r.failed == 0 && BacklogSteady(r, 16) &&
         TailPercentile(r.latency_s).value <= kScoreLimitS &&
         Median(r.gen_lag_s) < 0.001;
}

/// One traced PreparedScript::Execute: spans around ParseDML, CompileDML
/// (what Prepare did once), the execution and the check.
double TracedScore(SystemDSContext& ctx,
                   const sysds::PreparedScript& script,
                   const SharedModel& model, const ScoreData& data, int64_t i,
                   SpanRecorder* rec, TracedOps* t) {
  LayerValues v;
  Inputs in = model.Request(data, i);
  const int64_t op = rec->NewOp();
  const int32_t root = rec->Begin("op:score_open", "bench");
  const int32_t ps = rec->Begin("ParseDML", "lang");
  bool ok = sysds::ParseDML(kScoreScript).ok();
  rec->End(ps);
  const double parse_s = rec->Duration(ps);
  const int32_t cs = rec->Begin("CompileDML", "compiler");
  ok = sysds::CompileDML(kScoreScript, ctx.config(), ScoreInfos()).ok() && ok;
  rec->End(cs);
  rec->AddRow(cs, "lang", parse_s);

  const sysds::LineageCacheStats lin_before =
      ctx.Cache()->Stats();
  const Snapshot before = Snapshot::Take();
  const Clock::time_point t0 = Clock::now();
  const int32_t es = rec->Begin("PreparedScript::Execute", "controlprog");
  StatusOr<ScriptResult> r = script.Execute(in, Outputs("yhat"));
  rec->End(es);
  const Snapshot after = Snapshot::Take();
  AddCounterDeltas(before, after, rec, es, rec->Duration(es), &v);
  AddLineageStats(lin_before, ctx.Cache()->Stats(), &v);
  const int32_t ks = rec->Begin("check", "bench");
  ok = ScoreCorrect(r, data, i) && ok;
  rec->End(ks);
  const double secs = SecondsSince(t0);
  rec->End(root);
  v["lang.parse_s"] = parse_s;
  v["compiler.compile_s"] = std::max(0.0, rec->Duration(cs) - parse_s);
  t->AddRollup(*rec, op, root, &v);
  if (!ok) return -1;
  t->ops.push_back(std::move(v));
  return secs;
}

WorkloadResult ScoreOpen(const RunOptions& o) {
  const ScoreData data = GenScore(o.seed);
  WorkloadResult out;
  std::string error;

  // Setup: build, prepare, register, one warm-up request.
  std::unique_ptr<ScoreServer> server;
  auto start_server = [&]() {
    server.reset();
    server = std::make_unique<ScoreServer>();
    bool ok = server->Start(data, &error);
    if (ok) {
      ok = ScoreCorrect(
          server->svc->Score("score", server->model->Request(data, 0)), data,
          0);
      if (!ok) error = "warm-up request failed";
    }
    ++out.attempted;
    if (!ok) {
      ++out.failed;
      out.correct = false;
      out.notes.push_back("setup failed: " + error);
    }
    return ok;
  };
  std::vector<double> setup_s;
  for (int rep = 0; rep < kScoreSetupReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    if (!start_server()) return out;
    setup_s.push_back(SecondsSince(t0));
  }

  auto run_phase = [&](double rate, double seconds, bool counted,
                       int64_t* max_depth) {
    // The uncounted search overloads the service on purpose; its requests
    // carry the latency limit as deadline so an overloaded probe ends fast.
    ServiceBackend backend(server.get(), data, counted ? 0.0 : kScoreLimitS);
    OpenLoopResult r =
        RunOpenLoop(&backend, rate, seconds, counted ? kScoreDrainS : 1.0);
    if (counted) {
      out.attempted += r.attempted;
      out.failed += r.failed;
    }
    if (backend.wrong() > 0) out.correct = false;
    *max_depth = backend.max_depth();
    return r;
  };

  if (!o.trace) {
    std::map<std::string, OpenLoopResult> phases;
    for (const RatePhase& p : kRatePhases) {
      int64_t depth = 0;
      OpenLoopResult r = run_phase(p.rate, o.seconds * p.share, true, &depth);
      out.notes.push_back(DescribePhase(p.name, r, depth));
      const std::string suffix = std::string(".") + p.name;
      out.diagnostics.push_back(
          {"lat_ms_p50" + suffix, Median(r.latency_s) * 1e3, "ms"});
      out.diagnostics.push_back(
          {"lat_ms_tail" + suffix, TailPercentile(r.latency_s).value * 1e3, "ms"});
      phases[p.name] = std::move(r);
    }
    // End-to-end figures are taken before the search, so peak memory covers
    // the fixed-rate phases only.
    ReportEndToEnd(setup_s, phases["mid"].latency_s,
                   "mid-rate request latency from due time", &out);

    // Max-rate search on a fresh server: climb the ladder until a rate
    // misses. Requests past the limit are expected here, so the search is
    // not counted in attempted/failed (wrong answers still fail the run).
    if (!start_server()) return out;
    const double probe_s = o.seconds * kSearchShare / kSearchProbes;
    double max_rate = 0;
    double rate = kScoreRateHigh;
    for (int k = 0; k < kSearchProbes; ++k, rate *= kSearchStep) {
      int64_t depth = 0;
      OpenLoopResult r = run_phase(rate, probe_s, false, &depth);
      const bool met = RateMet(r);
      out.notes.push_back(std::string("max-rate probe ") +
                          (met ? "met " : "missed ") +
                          DescribePhase("probe", r, depth));
      if (!met) break;
      max_rate = rate;
    }
    out.diagnostics.push_back({"max_rate_rps", max_rate, "1/s"});
    out.notes.push_back("max_rate_rps: tail limit " +
                        Fmt("%.0f", kScoreLimitS * 1e3) + " ms, ladder x" +
                        Fmt("%.1f", kSearchStep) + " from " +
                        Fmt("%.0f", kScoreRateHigh) + " req/s");
    return out;
  }

  // Traced run. (1) Direct single-threaded executions, untraced and traced
  // alternately, on contexts without and with instruction statistics.
  // (2) A mid-rate service phase for the serve.* counters.
  auto stats_ctx = ScoreContext(true);
  auto traced_script = stats_ctx->Prepare(kScoreScript, ScoreInfos());
  if (!traced_script.ok()) {
    out.correct = false;
    out.notes.push_back("prepare failed: " + traced_script.status().ToString());
    return out;
  }
  SpanRecorder rec;
  TracedOps t;
  const Clock::time_point start = Clock::now();
  for (int64_t i = 0; SecondsSince(start) < 0.6 * o.seconds || t.ops.empty(); ++i) {
    Inputs in = server->model->Request(data, i);
    const Clock::time_point t0 = Clock::now();
    const bool plain_ok =
        ScoreCorrect(server->script->Execute(in, Outputs("yhat")), data, i);
    const double plain = SecondsSince(t0);
    const double traced =
        TracedScore(*stats_ctx, **traced_script, *server->model, data, i, &rec, &t);
    out.attempted += 2;
    if (!plain_ok || traced < 0) {
      out.failed += (plain_ok ? 0 : 1) + (traced < 0 ? 1 : 0);
      out.correct = false;
      break;
    }
    t.untraced_exec_s.push_back(plain);
    t.traced_exec_s.push_back(traced);
  }

  const sysds::serve::ServiceStats before = server->svc->Stats();
  int64_t depth = 0;
  OpenLoopResult r = run_phase(kScoreRateMid, 0.4 * o.seconds, true, &depth);
  const sysds::serve::ServiceStats after = server->svc->Stats();
  out.notes.push_back(DescribePhase("mid", r, depth));

  const double exec_p50 = Median(t.untraced_exec_s);
  // Queue wait is not exposed per request; estimate it as the latency from
  // send to completion minus the median direct execution time.
  std::vector<double> wait;
  for (size_t k = 0; k < r.latency_s.size(); ++k) {
    if (std::isfinite(r.latency_s[k])) {
      wait.push_back(std::max(0.0, r.latency_s[k] - r.gen_lag_s[k] - exec_p50));
    }
  }
  const double completed = static_cast<double>(after.completed - before.completed);
  LayerValues extra;
  extra["trace.overhead_ratio"] =
      Median(t.traced_exec_s) / std::max(1e-12, exec_p50);
  extra["bench.gen_lag_ms"] = TailPercentile(r.gen_lag_s).value * 1e3;
  extra["serve.exec_us_p50"] = exec_p50 * 1e6;
  extra["serve.queue_wait_us_p50"] = Median(wait) * 1e6;
  extra["serve.batch_share"] =
      completed > 0
          ? static_cast<double>(after.batched_requests - before.batched_requests) /
                completed
          : 0;
  extra["serve.rejected"] = static_cast<double>(after.rejected - before.rejected);
  extra["serve.max_queue_depth"] = static_cast<double>(depth);
  ReportLayers(t, extra, &out);
  out.spans_json = rec.ToJson();
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Generators

MatrixBlock GenUniform(Rng& rng, int64_t rows, int64_t cols) {
  MatrixBlock m = MatrixBlock::Dense(rows, cols);
  for (int64_t r = 0; r < rows; ++r) {
    double* row = m.DenseRow(r);
    for (int64_t c = 0; c < cols; ++c) row[c] = rng.Uniform();
  }
  m.MarkNnzDirty();
  return m;
}

std::string MatrixBytes(const MatrixBlock& m) {
  std::string out;
  for (int64_t r = 0; r < m.Rows(); ++r) {
    for (int64_t c = 0; c < m.Cols(); ++c) {
      const double v = m.Get(r, c);
      char buf[sizeof(double)];
      std::memcpy(buf, &v, sizeof(double));
      out.append(buf, sizeof(double));
    }
  }
  return out;
}

LmdsInput GenLmds(uint64_t seed, int64_t rows, int64_t cols) {
  Rng rng(seed);
  LmdsInput in{GenUniform(rng, rows, cols), MatrixBlock::Dense(rows, 1)};
  std::vector<double> w(static_cast<size_t>(cols));
  for (double& v : w) v = rng.Normal();
  for (int64_t r = 0; r < rows; ++r) {
    const double* x = in.X.DenseRow(r);
    double dot = 0;
    for (int64_t c = 0; c < cols; ++c) dot += x[c] * w[static_cast<size_t>(c)];
    in.y.Set(r, 0, dot + 0.1 * rng.Normal());
  }
  return in;
}

CsvInput GenCsv(uint64_t seed, int64_t rows) {
  Rng rng(seed);
  CsvInput in;
  in.rows = rows;
  in.city_counts.assign(kCities, 0);
  in.segment_counts.assign(kSegments, 0);
  std::vector<double> city_effect(kCities), segment_effect(kSegments);
  for (double& e : city_effect) e = rng.Normal();
  for (double& e : segment_effect) e = rng.Normal();
  std::string& t = in.text;
  t.reserve(static_cast<size_t>(rows) * 48);
  t += "city,segment,age,income,score,y\n";
  double income_sum = 0;
  int64_t income_seen = 0;
  char buf[160];
  for (int64_t r = 0; r < rows; ++r) {
    // Skewed city popularity: a few cities hold most rows.
    const int city = static_cast<int>(
        std::min<double>(kCities - 1, kCities * std::pow(rng.Uniform(), 2.0)));
    const int segment = static_cast<int>(rng.Below(kSegments));
    ++in.city_counts[city];
    ++in.segment_counts[segment];
    const double age = 18 + static_cast<double>(rng.Below(63));
    const double income = std::round(20000.0 * std::exp(0.5 * rng.Normal()));
    const double score = std::round(1000.0 * rng.Uniform()) / 1000.0;
    const double y = city_effect[city] + segment_effect[segment] +
                     0.02 * age + income / 50000.0 + score +
                     0.1 * rng.Normal();
    const bool age_missing = rng.Uniform() < 0.05;
    const bool income_missing = rng.Uniform() < 0.05;
    const bool score_missing = rng.Uniform() < 0.03;
    if (!income_missing) {
      income_sum += income;
      ++income_seen;
    }
    std::string age_s = age_missing ? "" : Fmt("%.0f", age);
    std::string income_s = income_missing ? "" : Fmt("%.0f", income);
    std::string score_s = score_missing ? "" : Fmt("%.3f", score);
    std::snprintf(buf, sizeof(buf), "c%02d,s%d,%s,%s,%s,%.6f\n", city, segment,
                  age_s.c_str(), income_s.c_str(), score_s.c_str(), y);
    t += buf;
  }
  in.income_mean = income_sum / static_cast<double>(std::max<int64_t>(1, income_seen));
  return in;
}

std::vector<double> CholeskySolve(std::vector<double> A,
                                  const std::vector<double>& rhs, int64_t n,
                                  double lambda) {
  auto at = [&](int64_t i, int64_t j) -> double& {
    return A[static_cast<size_t>(i * n + j)];
  };
  for (int64_t i = 0; i < n; ++i) at(i, i) += lambda;
  // In-place lower-triangular factor L with A = L L^T.
  for (int64_t j = 0; j < n; ++j) {
    double d = at(j, j);
    for (int64_t k = 0; k < j; ++k) d -= at(j, k) * at(j, k);
    at(j, j) = std::sqrt(d);
    for (int64_t i = j + 1; i < n; ++i) {
      double s = at(i, j);
      for (int64_t k = 0; k < j; ++k) s -= at(i, k) * at(j, k);
      at(i, j) = s / at(j, j);
    }
  }
  std::vector<double> x(rhs);
  for (int64_t i = 0; i < n; ++i) {  // L z = rhs
    for (int64_t k = 0; k < i; ++k) x[i] -= at(i, k) * x[k];
    x[i] /= at(i, i);
  }
  for (int64_t i = n - 1; i >= 0; --i) {  // L^T x = z
    for (int64_t k = i + 1; k < n; ++k) x[i] -= at(k, i) * x[k];
    x[i] /= at(i, i);
  }
  return x;
}

MatrixBlock NaiveTransposeMultiply(const MatrixBlock& X, const MatrixBlock& Y) {
  MatrixBlock out = MatrixBlock::Dense(X.Cols(), Y.Cols());
  for (int64_t r = 0; r < X.Rows(); ++r) {
    const double* x = X.DenseRow(r);
    const double* y = Y.DenseRow(r);
    for (int64_t i = 0; i < X.Cols(); ++i) {
      double* o = out.DenseRow(i);
      for (int64_t j = 0; j < Y.Cols(); ++j) o[j] += x[i] * y[j];
    }
  }
  out.MarkNnzDirty();
  return out;
}

const std::vector<std::pair<std::string, WorkloadFn>>& Workloads() {
  static const std::vector<std::pair<std::string, WorkloadFn>> kAll = {
      {"lmds_sweep", &LmdsSweep},
      {"csv_prep", &CsvPrep},
      {"spill_loop", &SpillLoop},
      {"score_open", &ScoreOpen},
  };
  return kAll;
}

const MetricList& EndToEndMetrics() {
  static const MetricList kMetrics = {
      {"setup_s", "s"}, {"exec_s_p50", "s"}, {"peak_rss_mb", "MB"}};
  return kMetrics;
}

const MetricList& PerLayerMetrics() {
  static const MetricList kMetrics = {
      {"calib.parallelism", "ratio"},
      {"trace.overhead_ratio", "ratio"},
      {"op.wall_s", "s"},
      {"op.unattributed_s", "s"},
      {"bench.gen_lag_ms", "ms"},
      {"lang.parse_s", "s"},
      {"compiler.compile_s", "s"},
      {"compiler.recompilations", "count"},
      {"compiler.fusion_regions", "count"},
      {"dist.sp_ops", "count"},
      {"dist.sp_op_s", "s"},
      {"dist.shuffled_blocks", "count"},
      {"matrix.cp_kernel_s", "s"},
      {"controlprog.run_s", "s"},
      {"controlprog.instructions", "count"},
      {"controlprog.unattributed_s", "s"},
      {"lineage.probes", "count"},
      {"lineage.hits", "count"},
      {"lineage.hit_ratio", "ratio"},
      {"lineage.cached_bytes", "bytes"},
      {"lineage.evictions", "count"},
      {"bufferpool.hit_ratio", "ratio"},
      {"bufferpool.restores", "count"},
      {"bufferpool.restore_s", "s"},
      {"bufferpool.evict_stall_s", "s"},
      {"bufferpool.spilled_mb", "MB"},
      {"bufferpool.sync_spills", "count"},
      {"bufferpool.free_drops", "count"},
      {"bufferpool.prefetch_issued", "count"},
      {"bufferpool.prefetch_hits", "count"},
      {"bufferpool.prefetch_hit_ratio", "ratio"},
      {"io.read_s", "s"},
      {"io.write_s", "s"},
      {"io.read_mb_per_s", "MB/s"},
      {"frame.encode_s", "s"},
      {"frame.rows_per_s", "1/s"},
      {"scheduler.tasks", "count"},
      {"scheduler.steals", "count"},
      {"scheduler.chunks", "count"},
      {"serve.exec_us_p50", "us"},
      {"serve.queue_wait_us_p50", "us"},
      {"serve.batch_share", "ratio"},
      {"serve.rejected", "count"},
      {"serve.max_queue_depth", "count"},
  };
  return kMetrics;
}

}  // namespace perfbench
