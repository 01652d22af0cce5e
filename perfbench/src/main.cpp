//===- main.cpp - tawa-perfbench: the repository benchmark ----------------===//
//
//   tawa-perfbench --workload figures|functional|serve --seed N
//                  --seconds S --trace 0|1 [--trace-out PATH]
//
// Runs one workload (README.md) for S seconds of measurement and prints,
// as its last stdout line, one JSON object: correct, attempted, failed and
// metrics — every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1; the traced run also writes a Chrome trace to --trace-out).
// Exits non-zero without a result line on bad arguments or when the
// workload cannot run at all.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "support/ProgramCache.h"
#include "support/Support.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <sched.h>
#include <sys/resource.h>
#include <thread>

using namespace perfbench;

int64_t perfbench::parallelWorkers() {
  int64_t Hw = static_cast<int64_t>(std::thread::hardware_concurrency());
  return std::max<int64_t>(1, std::min<int64_t>(2, Hw));
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(
      std::ceil(P / 100.0 * static_cast<double>(V.size())));
  return V[std::min(V.size() - 1, Rank == 0 ? 0 : Rank - 1)];
}

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

double perfbench::peakRssMb() {
  rusage U;
  std::memset(&U, 0, sizeof(U));
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

uint64_t SeededRng::next() {
  State += 0x9E3779B97F4A7C15ull;
  uint64_t Z = State;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

std::vector<size_t> perfbench::seededOrder(size_t N, SeededRng &Rng) {
  std::vector<size_t> Order(N);
  std::iota(Order.begin(), Order.end(), 0);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[Rng.below(I)]);
  return Order;
}

void perfbench::addHostMetrics(Result &R, const std::vector<double> &SetupSec,
                               const std::vector<double> &PassSec,
                               const std::vector<double> &OpMs,
                               int64_t OpsDone) {
  double Total = std::accumulate(PassSec.begin(), PassSec.end(), 0.0);
  R.add("setup_s", median(SetupSec), "s");
  R.add("pass_s", median(PassSec), "s");
  R.add("ops_per_s", Total > 0 ? static_cast<double>(OpsDone) / Total : 0,
        "op/s");
  R.add("op_p50_ms", median(OpMs), "ms");
  R.add("op_p99_ms", percentile(OpMs, 99), "ms");
}

void perfbench::addLayerMetrics(Result &R, const SpanRecorder &Rec,
                                const TraceSummary &T) {
  auto All = Rec.totals(Clock::time_point::min());
  auto PerPass = Rec.totals(T.PassesStart);
  double Passes = std::max<int64_t>(1, T.TracedPasses);
  auto perCall = [&](const char *Name) {
    auto It = All.find(Name);
    return It == All.end() || It->second.Count == 0
               ? 0.0
               : It->second.TotalMs / static_cast<double>(It->second.Count);
  };
  auto passTotal = [&](const char *Name) {
    auto It = PerPass.find(Name);
    return It == PerPass.end() ? 0.0 : It->second.TotalMs / Passes;
  };
  const LayerCounters &S = T.SetupAndFirstPass;
  const LayerCounters &P = T.Passes;
  double Compiles = static_cast<double>(std::max<int64_t>(1, S.Compiles));

  R.add("frontend.build_ms", perCall("frontend.build"), "ms");
  R.add("passes.pipeline_ms", perCall("passes.pipeline"), "ms");
  for (const char *Pass :
       {"persistent-kernel", "semantic-tagging", "warp-specialize",
        "cooperative-warp-groups", "fine-grained-pipeline",
        "coarse-grained-pipeline", "aref-lowering", "canonicalize",
        "software-pipeline"}) {
    auto It = S.PassMs.find(Pass);
    double Ms = It == S.PassMs.end() || It->second.first == 0
                    ? 0.0
                    : It->second.second / static_cast<double>(It->second.first);
    R.add(std::string("passes.") + Pass + "_ms", Ms, "ms");
  }
  R.add("passes.ops_out", static_cast<double>(S.OpsOut) / Compiles, "count");
  R.add("ir.parse_ms", perCall("ir.parse"), "ms");
  R.add("bytecode.compile_ms", perCall("bytecode.compile"), "ms");
  R.add("bytecode.insts", static_cast<double>(S.BcInsts) / Compiles,
        "count");
  R.add("cache.lookups", static_cast<double>(S.CacheLookups), "count");
  R.add("cache.misses", static_cast<double>(S.CacheMisses), "count");
  R.add("cache.hit_ratio",
        S.CacheLookups ? 1.0 - static_cast<double>(S.CacheMisses) /
                                   static_cast<double>(S.CacheLookups)
                       : 0.0,
        "ratio");
  double ExecMs = passTotal("exec");
  R.add("exec.ms", ExecMs, "ms");
  R.add("exec.ctas", static_cast<double>(P.ExecCtas) / Passes, "count");
  R.add("exec.actions", static_cast<double>(P.ExecActions) / Passes,
        "count");
  R.add("exec.actions_per_s",
        ExecMs > 0 ? static_cast<double>(P.ExecActions) / Passes /
                         (ExecMs * 1e-3)
                   : 0.0,
        "1/s");
  R.add("reference.ms", passTotal("reference"), "ms");
  R.add("reference.gflop", P.RefGflop / Passes, "GFLOP");
  R.add("replay.ms", passTotal("replay"), "ms");
  R.add("replay.ctas", static_cast<double>(P.ReplayCtas) / Passes, "count");
  R.add("machine.cycles", P.MachCycles / Passes, "cycles");
  R.add("machine.tensor_busy_frac",
        P.MachCycles > 0 ? P.MachTensorBusy / P.MachCycles : 0.0, "ratio");
  R.add("machine.dram_busy_frac",
        P.MachCycles > 0 ? P.MachDramBusy / P.MachCycles : 0.0, "ratio");
  R.add("machine.dram_gb", P.MachDramBytes / Passes / 1e9, "GB");
  auto Driver = PerPass.find("driver.op");
  R.add("driver.self_ms",
        Driver == PerPass.end() ? 0.0 : Driver->second.SelfMs / Passes, "ms");
  R.add("serve.parse_ms", T.ServeParseMs, "ms");
  R.add("serve.execute_ms", T.ServeExecuteMs, "ms");
  R.add("serve.render_ms", T.ServeRenderMs, "ms");
  R.add("serve.overhead_ms", T.ServeOverheadMs, "ms");
  R.add("serve.sandbox_ms", T.ServeSandboxMs, "ms");
  R.add("serve.retries", T.ServeRetries, "count");
  R.add("serve.degrade_steps", T.ServeDegradeSteps, "count");
  R.add("trace.overhead_frac",
        T.UntracedPassSec > 0 ? T.TracedPassSec / T.UntracedPassSec - 1 : 0,
        "ratio");
}

namespace {

/// Restricts this thread, every thread it starts and the sandbox child to
/// the CPU it is running on. The workloads are serial chains (one worker,
/// one lane), so nothing runs in parallel anyway; on one CPU a hand-off
/// between threads is a local context switch instead of a wake-up of
/// another virtual CPU, which on a shared VM costs anywhere from a few to
/// hundreds of microseconds (README.md, "Steadiness").
void pinToOneCpu() {
  int Cpu = sched_getcpu();
  if (Cpu < 0)
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  sched_setaffinity(0, sizeof(Set), &Set);
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "tawa-perfbench: %s\nusage: tawa-perfbench --workload "
               "figures|functional|serve --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH]\n",
               Why);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
      if (V.empty() || *End)
        return usage("--seed takes a whole number");
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), &End);
      if (V.empty() || *End || !(O.Seconds > 0) || O.Seconds > 600)
        return usage("--seconds takes a number in (0, 600]");
    } else if (A == "--trace") {
      if (V != "0" && V != "1")
        return usage("--trace takes 0 or 1");
      O.Trace = V == "1";
    } else if (A == "--trace-out") {
      O.TracePath = V;
    } else {
      return usage(("unknown argument " + A).c_str());
    }
  }
  // Before any thread exists, so that every thread inherits it.
  pinToOneCpu();
  // The program's own environment knobs would change what is measured; the
  // benchmark pins everything it depends on explicitly instead.
  tawa::ProgramCache::shared().setPersistDir("");

  Result R;
  if (O.Workload == "figures")
    R = runFigures(O);
  else if (O.Workload == "functional")
    R = runFunctional(O);
  else if (O.Workload == "serve")
    R = runServe(O);
  else
    return usage("unknown workload");

  for (const std::string &N : R.Notes)
    std::printf("%s\n", N.c_str());
  if (R.Failures > 20)
    std::printf("check failed: ... and %lld more\n",
                static_cast<long long>(R.Failures - 20));
  std::string Json = tawa::formatString(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {",
      R.Correct ? "true" : "false", static_cast<long long>(R.Attempted),
      static_cast<long long>(R.Failed));
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    double V = std::isfinite(M.Value) ? M.Value : 0.0;
    Json += tawa::formatString("%s\"%s\": {\"value\": %.17g, \"unit\": "
                               "\"%s\"}",
                               I ? ", " : "", M.Name.c_str(), V,
                               M.Unit.c_str());
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
  return 0;
}
