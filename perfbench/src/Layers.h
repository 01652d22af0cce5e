//===- Layers.h - A Runner call, taken apart layer by layer ---------------===//
//
// The traced run does not time Runner::run* as one opaque call. It makes the
// same call itself, one public layer function at a time, with a span around
// each:
//
//   driver.op            the whole point (its self time is the Runner's own
//                        work: host input fill and rounding, envelopes,
//                        orchestration)
//     cache.lookup       ProgramCache::getOrCompile under the Runner's key
//       frontend.build   build*Module
//       passes.pipeline  PassManager::run of buildTawaPipeline (children:
//                        one span per pass, from PassManager::getTimings)
//       passes.software-pipeline  runSoftwarePipeline (Triton baselines)
//       bytecode.compile bc::compileModule, peephole included
//     exec               Interpreter::runGrid / runCtaBatch
//     reference          sim::referenceGemm / referenceAttention
//     replay             sim::replaySmSchedule
//
// Every step mirrors src/driver/Runner.cpp, so the RunResult built here is
// bit-identical to the Runner's for the same point; the callers check that
// it is. Points the Runner never compiles (analytic, unsupported or
// infeasible envelopes) go to a plain Runner inside driver.op.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "Spans.h"

#include "driver/Runner.h"
#include "sim/Interpreter.h"
#include "sim/Replay.h"

#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Counts the layers report, summed over every decomposed call.
struct LayerCounters {
  int64_t Compiles = 0;     ///< Modules built (cache misses that compiled).
  int64_t OpsOut = 0;       ///< IR ops after the pipeline, summed.
  int64_t BcInsts = 0;      ///< Static instructions after fusion, summed.
  int64_t CacheLookups = 0;
  int64_t CacheMisses = 0;
  int64_t ExecCtas = 0;
  int64_t ExecActions = 0;
  int64_t ReplayCtas = 0;
  double RefGflop = 0;
  /// Simulated machine, summed over the replays of counted (Tawa) ops.
  double MachCycles = 0;
  double MachTensorBusy = 0;
  double MachDramBusy = 0;
  double MachDramBytes = 0;
  /// Per named pass: runs and total milliseconds.
  std::map<std::string, std::pair<int64_t, double>> PassMs;

  void merge(const LayerCounters &O);
};

/// The host tensors of a functional run, kept for the benchmark's own
/// correctness check (References.h).
struct FunctionalIo {
  enum class Family { Gemm, Batched, SplitK, Grouped, Attention };
  Family Fam = Family::Gemm;
  tawa::Precision Prec = tawa::Precision::FP16;
  std::vector<tawa::sim::TensorRef> In; ///< A,B (gemm) or Q,K,V.
  tawa::sim::TensorRef Out;
  std::vector<int64_t> GroupMs;         ///< Grouped only.
  bool Causal = false;                  ///< Attention only.
};

class LayeredRunner {
public:
  /// \p Workers is the pinned worker count (Runner::NumWorkers).
  LayeredRunner(SpanRecorder *Rec, int64_t Workers);

  /// The decomposed equivalent of Runner::runGemmCustom. \p CountMachine
  /// adds the replay result to the simulated-machine counters. \p Io, when
  /// non-null and \p Functional, receives the host tensors.
  tawa::RunResult gemm(const tawa::GemmWorkload &W,
                       const tawa::FrameworkEnvelope &E, bool Functional,
                       bool CountMachine, FunctionalIo *Io = nullptr);
  /// The decomposed equivalent of Runner::runAttentionCustom.
  tawa::RunResult attention(const tawa::AttentionWorkload &W,
                            const tawa::FrameworkEnvelope &E,
                            bool Functional, bool CountMachine,
                            FunctionalIo *Io = nullptr);

  /// The compile half alone (the figures workload's traced set-up).
  bool compileGemm(const tawa::GemmWorkload &W,
                   const tawa::FrameworkEnvelope &E, std::string &Err);
  bool compileAttention(const tawa::AttentionWorkload &W,
                        const tawa::FrameworkEnvelope &E, std::string &Err);

  /// Bytecode compile, Interpreter::runGrid and a replay of every CTA's
  /// trace for an already-parsed module: how tawa-serve executes an ir
  /// request. Returns "" or the run's error; \p Traces and \p Cycles are
  /// valid on success.
  std::string runModule(tawa::Module &M, const tawa::sim::RunOptions &Launch,
                        std::vector<tawa::sim::CtaTrace> &Traces,
                        double &Cycles);

  /// The counts since the last call, resetting them.
  LayerCounters takeCounters();

private:
  tawa::ProgramCache::EntryRef
  lookup(const std::string &Key,
         const std::function<std::unique_ptr<tawa::Module>(tawa::IrContext &)>
             &Build,
         const tawa::TawaOptions &Options, int64_t SwDepth, std::string &Err);
  tawa::RunResult gemmMoe(const tawa::GemmWorkload &W,
                          const tawa::FrameworkEnvelope &E, bool Functional,
                          bool CountMachine, FunctionalIo *Io);
  std::string exec(tawa::sim::Interpreter &I,
                   const tawa::sim::RunOptions &Launch,
                   const std::vector<tawa::sim::CtaCoord> *Coords,
                   std::vector<tawa::sim::CtaTrace> &Traces);
  tawa::sim::ReplayResult
  replay(const std::vector<const tawa::sim::CtaTrace *> &Schedule,
         const tawa::sim::ReplayParams &P, bool CountMachine);
  tawa::sim::RunOptions launchOptions() const;

  SpanRecorder *Rec;
  int64_t Workers;
  tawa::sim::GpuConfig Config;
  tawa::Runner Plain; ///< Keys, and the points the compiler never sees.
  LayerCounters C;
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
