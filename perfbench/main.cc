// End-to-end benchmark program. Runs one workload for a fixed time and prints
// its metrics; the last line of stdout is the JSON result:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--spans <file>]
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "harness.h"
#include "workloads.h"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] "
               "[--spans <file>]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string spans_path;
  RunOptions opts;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && opts.seconds > 0;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      opts.trace = value == "1";
    } else if (arg == "--work-dir") {
      opts.work_dir = value;
    } else if (arg == "--spans") {
      spans_path = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  WorkloadFn fn = nullptr;
  for (const auto& [name, f] : Workloads()) {
    if (name == workload) fn = f;
  }
  if (fn == nullptr) return Usage(("unknown workload '" + workload + "'").c_str());

  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const double calib_start = CalibrateParallelism(nproc);
  WorkloadResult r = fn(opts);
  const double calib_end = CalibrateParallelism(nproc);

  std::printf("workload %s seed %llu: %lld attempted, %lld failed\n",
              workload.c_str(), static_cast<unsigned long long>(opts.seed),
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  std::printf("calib.parallelism: start=%.3f end=%.3f (nproc=%d)\n",
              calib_start, calib_end, nproc);
  for (const std::string& note : r.notes) std::printf("%s\n", note.c_str());

  // Every run reports exactly the listed metrics, all finite.
  const MetricList& expected = opts.trace ? PerLayerMetrics() : EndToEndMetrics();
  bool complete = r.metrics.size() == expected.size();
  for (size_t i = 0; complete && i < expected.size(); ++i) {
    Metric& m = r.metrics[i];
    if (m.name != expected[i].first || m.unit != expected[i].second) {
      complete = false;
    }
    if (m.name == "calib.parallelism") m.value = 0.5 * (calib_start + calib_end);
    if (!std::isfinite(m.value)) complete = false;
  }
  if (!complete) {
    std::printf("metric set incomplete or not finite\n");
    r.correct = false;
  }
  r.diagnostics.push_back(
      {"fail_ratio",
       r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 1.0,
       "ratio"});
  r.diagnostics.push_back(
      {"calib.parallelism", 0.5 * (calib_start + calib_end), "ratio"});
  std::printf("%s metrics:\n", opts.trace ? "per-layer" : "end-to-end");
  for (const Metric& m : r.metrics) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("diagnostics (not gated):\n");
  for (const Metric& m : r.diagnostics) {
    std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!spans_path.empty() && !r.spans_json.empty()) {
    std::ofstream out(spans_path);
    out << r.spans_json;
  }
  if (r.attempted < 1) {
    r.attempted = 1;
    r.failed = 1;
    r.correct = false;
  }
  std::printf("%s\n", ResultJson(r.correct, r.attempted,
                                 r.failed, r.metrics)
                          .c_str());
  return 0;
}
