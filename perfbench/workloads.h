#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "runtime/matrix/matrix_block.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for the workload's files (CSV input, outputs).
  std::string work_dir = ".";
};

struct WorkloadResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Reported but not gated: figures whose meaning is specific to one
  /// workload (per-rate latencies, max rate) or that describe a metric
  /// (which percentile the tail is, over how many samples).
  std::vector<Metric> diagnostics;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;
  /// Chrome trace of the benchmark's spans (traced runs only).
  std::string spans_json;
};

using WorkloadFn = WorkloadResult (*)(const RunOptions&);

/// Every workload by name, in the order BENCHMARK.json lists them.
const std::vector<std::pair<std::string, WorkloadFn>>& Workloads();

/// The end-to-end and per-layer metrics every workload reports, as
/// (name, unit), in the order BENCHMARK.json lists them.
using MetricList = std::vector<std::pair<std::string, std::string>>;
const MetricList& EndToEndMetrics();
const MetricList& PerLayerMetrics();

// ---------------------------------------------------------------------------
// Input generators and references, exposed for the self-tests.

/// Dense rows x cols matrix, uniform in [0, 1).
sysds::MatrixBlock GenUniform(Rng& rng, int64_t rows, int64_t cols);

/// Raw bytes of a dense matrix (for byte-identity checks).
std::string MatrixBytes(const sysds::MatrixBlock& m);

struct CsvInput {
  std::string text;
  std::vector<int64_t> city_counts;     // rows per city token, sorted order
  std::vector<int64_t> segment_counts;  // rows per segment token
  double income_mean = 0;               // mean of the non-missing incomes
  int64_t rows = 0;
};
CsvInput GenCsv(uint64_t seed, int64_t rows);

/// The lmds_sweep inputs: X (rows x cols) and y = X w + noise.
struct LmdsInput {
  sysds::MatrixBlock X;
  sysds::MatrixBlock y;
};
LmdsInput GenLmds(uint64_t seed, int64_t rows, int64_t cols);

/// Solves (A + lambda I) b = rhs by Cholesky; A is n x n row-major.
std::vector<double> CholeskySolve(std::vector<double> A,
                                  const std::vector<double>& rhs, int64_t n,
                                  double lambda);

/// Naive t(X) %*% Y.
sysds::MatrixBlock NaiveTransposeMultiply(const sysds::MatrixBlock& X,
                                          const sysds::MatrixBlock& Y);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
