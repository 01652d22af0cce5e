//===- Common.h - Shared pieces of the three benchmark workloads ----------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "Layers.h"
#include "Spans.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Runner::NumWorkers of the figures and functional workloads, and the
/// serve workload's lanes and executors. One: on a shared 4-vCPU VM every
/// extra concurrent thread widened the run-to-run spread (figures pass
/// 18-23% at two workers against 3% at one; serve 66% at two lanes), see
/// README.md, "Steadiness".
constexpr int64_t SimWorkers = 1;
constexpr int64_t ServeLanes = 1;

/// The parallel worker count the figures workload checks its results
/// against: two, capped at the host's core count.
int64_t parallelWorkers();

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TracePath; ///< Chrome trace output of a traced run.
};

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

struct Result {
  bool Correct = true;
  int64_t Attempted = 0;
  int64_t Failed = 0;
  std::vector<Metric> Metrics;
  /// Lines printed before the result (known faults, check failures).
  std::vector<std::string> Notes;
  int64_t Failures = 0; ///< Checks failed, printed in Notes or not.

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  /// Marks the run incorrect and says why (the first few reasons; a
  /// systematic fault would otherwise print one line per operation).
  void fail(const std::string &Why) {
    Correct = false;
    if (++Failures <= 20)
      Notes.push_back("check failed: " + Why);
  }
};

Result runFigures(const Options &O);
Result runFunctional(const Options &O);
Result runServe(const Options &O);

//===--- Statistics -------------------------------------------------------===//

double median(std::vector<double> V);
/// Nearest-rank percentile, \p P in [0, 100].
double percentile(std::vector<double> V, double P);
double geomean(const std::vector<double> &V);
/// Peak resident set of this process, in MB.
double peakRssMb();

/// SplitMix64: the benchmark's only source of seeded choices.
struct SeededRng {
  uint64_t State;
  explicit SeededRng(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return next() % N; }
};

/// Fisher-Yates permutation of [0, N) drawn from \p Rng.
std::vector<size_t> seededOrder(size_t N, SeededRng &Rng);

//===--- End-to-end and per-layer metric assembly ---------------------------===//

/// The host-time end-to-end metrics every workload reports, from its
/// set-up repetitions, pass times and per-operation latencies.
void addHostMetrics(Result &R, const std::vector<double> &SetupSec,
                    const std::vector<double> &PassSec,
                    const std::vector<double> &OpMs, int64_t OpsDone);

/// What the traced run measured, beyond the spans.
struct TraceSummary {
  LayerCounters SetupAndFirstPass; ///< Cache counts cover this window.
  LayerCounters Passes;            ///< Summed over every traced pass.
  int64_t TracedPasses = 0;
  double UntracedPassSec = 0; ///< Median untraced pass.
  double TracedPassSec = 0;   ///< Median traced pass.
  Clock::time_point PassesStart; ///< Spans from here on are per-pass work.
  // Serve layer (zero on the other workloads).
  double ServeParseMs = 0, ServeExecuteMs = 0, ServeRenderMs = 0;
  double ServeOverheadMs = 0, ServeSandboxMs = 0;
  double ServeRetries = 0, ServeDegradeSteps = 0;
};

/// Every per-layer metric of BENCHMARK.json, zero where the workload does
/// not run that layer.
void addLayerMetrics(Result &R, const SpanRecorder &Rec,
                     const TraceSummary &T);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
