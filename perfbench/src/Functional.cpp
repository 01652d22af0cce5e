//===- Functional.cpp - The `functional` workload -------------------------===//
//
// A fixed list of functional validation runs covering every kernel family
// at small shapes, through Runner::runGemm / runAttention with
// Functional = true (real numerics, all CTAs, the Runner's own
// validation). The seed only shuffles the order of the cases in each pass.
//
//  set-up   cold compiles of every case, then one pass taken apart into
//           layers (Layers.h) that keeps each case's host tensors and
//           checks them against the benchmark's own references within the
//           derived rounding bound (References.h).
//  a pass   every case once, in seeded order.
//  checks   each case's outputs are within bound; the Runner's MaxRelError
//           agrees with the benchmark's own; every pass reproduces the
//           set-up's RunResult bit for bit. A case whose outputs break the
//           bound counts as failed in every pass.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "References.h"

#include "support/Support.h"

#include <cmath>

using namespace perfbench;
using namespace tawa;

namespace {

struct Case {
  const char *Name;
  bool IsGemm = true;
  GemmWorkload Gemm;
  AttentionWorkload Attn;
  Framework F = Framework::Tawa;
  /// A fault of the program this case hits on every run; the case is kept
  /// (and counted as failed) so the fix shows up as a change in `failed`.
  const char *KnownFault = nullptr;
};

GemmWorkload gemm(int64_t M, int64_t N, int64_t K, Precision P) {
  GemmWorkload W;
  W.M = M;
  W.N = N;
  W.K = K;
  W.Prec = P;
  return W;
}

AttentionWorkload attention(bool Causal) {
  AttentionWorkload W;
  W.Batch = 1;
  W.Heads = 2;
  W.SeqLen = 256;
  W.HeadDim = 64;
  W.Causal = Causal;
  return W;
}

std::vector<Case> caseList() {
  std::vector<Case> Cases;
  auto addGemm = [&](const char *Name, GemmWorkload W, Framework F,
                     const char *Fault = nullptr) {
    Case C;
    C.Name = Name;
    C.Gemm = W;
    C.F = F;
    C.KnownFault = Fault;
    Cases.push_back(C);
  };
  addGemm("gemm-fp16", gemm(512, 512, 256, Precision::FP16), Framework::Tawa);
  addGemm("gemm-fp8", gemm(512, 512, 256, Precision::FP8), Framework::Tawa);
  addGemm("gemm-triton-fp16", gemm(256, 256, 256, Precision::FP16),
          Framework::Triton);
  GemmWorkload Batched = gemm(256, 256, 128, Precision::FP16);
  Batched.Batch = 2;
  addGemm("gemm-batched", Batched, Framework::Tawa);
  // 16 K tiles of 64 over a split factor of 3: uneven slices.
  GemmWorkload Split = gemm(256, 256, 1024, Precision::FP16);
  Split.SplitK = 3;
  addGemm("gemm-splitk3", Split, Framework::Tawa);
  // Ragged experts, one empty, one spanning two m tiles; N equals the
  // 128x256 framework tile's N.
  GemmWorkload Moe = gemm(0, 256, 128, Precision::FP16);
  Moe.MoE = true;
  Moe.GroupMs = {200, 0, 72, 128};
  addGemm("grouped-ragged", Moe, Framework::Tawa);
  // N % TileN != 0: 320 columns under the 128x256 tile.
  GemmWorkload Wrap = gemm(0, 320, 128, Precision::FP16);
  Wrap.MoE = true;
  Wrap.GroupMs = {256, 128};
  addGemm("grouped-n320", Wrap, Framework::Tawa,
          "buildGroupedGemmModule (src/frontend/Kernels.cpp) masks rows but "
          "not columns: with N % TileN != 0 the last n-tile's columns wrap "
          "into the next rows");
  for (bool Causal : {false, true}) {
    Case C;
    C.Name = Causal ? "attention-causal" : "attention";
    C.IsGemm = false;
    C.Attn = attention(Causal);
    Cases.push_back(C);
  }
  return Cases;
}

bool sameResult(const RunResult &A, const RunResult &B) {
  return A.Error == B.Error && A.Kind == B.Kind && A.Micros == B.Micros &&
         A.TFlops == B.TFlops && A.MaxRelError == B.MaxRelError &&
         A.SmemBytes == B.SmemBytes && A.RegsPerThread == B.RegsPerThread;
}

/// One case through the decomposed layers, keeping its host tensors.
RunResult layeredRun(const Case &C, LayeredRunner &L, FunctionalIo &Io) {
  return C.IsGemm ? L.gemm(C.Gemm, getGemmEnvelope(C.F, C.Gemm), true,
                           C.F == Framework::Tawa, &Io)
                  : L.attention(C.Attn, getAttentionEnvelope(C.F, C.Attn),
                                true, C.F == Framework::Tawa, &Io);
}

/// Checks a layered run's outputs against the benchmark's own reference.
/// Returns whether every output is within its bound.
bool checkRun(const Case &C, const FunctionalIo &Io, const RunResult &Out,
              Result &Res) {
  if (!Out.ok() || !Io.Out) {
    Res.fail(std::string(C.Name) + ": " + Out.Error);
    return false;
  }
  OutputCheck Chk = checkOutput(expectFor(Io), *Io.Out);
  if (std::fabs(Chk.MaxRelError - Out.MaxRelError) > MaxRelAgreement)
    Res.fail(formatString("%s: RunResult::MaxRelError %.6g disagrees with "
                          "the independent reference's %.6g",
                          C.Name, Out.MaxRelError, Chk.MaxRelError));
  if (!Chk.ok() && !C.KnownFault)
    Res.fail(formatString("%s: %lld of %lld outputs outside the rounding "
                          "bound (worst %.3g x bound)",
                          C.Name, static_cast<long long>(Chk.Violations),
                          static_cast<long long>(Chk.Elements),
                          Chk.WorstRatio));
  if (Chk.ok() && C.KnownFault)
    Res.Notes.push_back(std::string("known fault no longer shows: ") +
                        C.Name);
  return Chk.ok();
}

} // namespace

Result perfbench::runFunctional(const Options &O) {
  Result Res;
  int64_t Workers = SimWorkers;
  std::vector<Case> Cases = caseList();
  Runner R;
  R.NumWorkers = Workers;

  // Set-up, several times: cold compiles, then the checked layered pass.
  std::vector<double> SetupSec;
  std::vector<RunResult> Checked(Cases.size());
  std::vector<bool> InBound(Cases.size());
  for (int Rep = 0; Rep < (O.Trace ? 1 : 3); ++Rep) {
    R.clearProgramCache();
    Clock::time_point T0 = Clock::now();
    std::string Err;
    for (const Case &C : Cases) {
      bool Ok = C.IsGemm ? R.prewarm(C.Gemm, getGemmEnvelope(C.F, C.Gemm), Err)
                         : R.prewarm(C.Attn,
                                     getAttentionEnvelope(C.F, C.Attn), Err);
      if (!Ok)
        Res.fail(std::string(C.Name) + ": compile: " + Err);
    }
    LayeredRunner L(nullptr, Workers);
    Result Scratch;
    for (size_t I = 0; I < Cases.size(); ++I) {
      FunctionalIo Io;
      Checked[I] = layeredRun(Cases[I], L, Io);
      InBound[I] =
          checkRun(Cases[I], Io, Checked[I], Rep == 0 ? Res : Scratch);
    }
    SetupSec.push_back(secondsBetween(T0, Clock::now()));
  }
  for (size_t I = 0; I < Cases.size(); ++I)
    if (Cases[I].KnownFault && !InBound[I])
      Res.Notes.push_back(std::string("known fault (counted as failed): ") +
                          Cases[I].Name + ": " + Cases[I].KnownFault);

  // Timed passes through the Runner, whole passes only.
  auto pass = [&](SeededRng &Rng, std::vector<double> *OpMs) {
    for (size_t I : seededOrder(Cases.size(), Rng)) {
      const Case &C = Cases[I];
      Clock::time_point T0 = Clock::now();
      RunResult Out = C.IsGemm ? R.runGemm(C.F, C.Gemm, true)
                               : R.runAttention(C.F, C.Attn, true);
      if (OpMs)
        OpMs->push_back(secondsBetween(T0, Clock::now()) * 1e3);
      ++Res.Attempted;
      if (!InBound[I] || !Out.ok())
        ++Res.Failed;
      if (!sameResult(Out, Checked[I]))
        Res.fail(std::string(C.Name) +
                 ": Runner result differs from the checked run");
    }
  };
  SeededRng Rng(O.Seed);
  double Budget = O.Trace ? O.Seconds / 2 : O.Seconds;
  std::vector<double> PassSec, OpMs;
  Clock::time_point LoopStart = Clock::now();
  while (PassSec.empty() || secondsBetween(LoopStart, Clock::now()) < Budget) {
    Clock::time_point T0 = Clock::now();
    pass(Rng, &OpMs);
    PassSec.push_back(secondsBetween(T0, Clock::now()));
  }

  if (!O.Trace) {
    std::vector<double> GemmTflops, MhaTflops;
    for (size_t I = 0; I < Cases.size(); ++I)
      if (InBound[I] && Cases[I].F == Framework::Tawa)
        (Cases[I].IsGemm ? GemmTflops : MhaTflops)
            .push_back(Checked[I].TFlops);
    addHostMetrics(Res, SetupSec, PassSec, OpMs, Res.Attempted);
    Res.add("sim_gemm_tflops", geomean(GemmTflops), "TFLOP/s");
    Res.add("sim_mha_tflops", geomean(MhaTflops), "TFLOP/s");
    Res.add("peak_rss_mb", peakRssMb(), "MB");
    return Res;
  }

  // Traced run: cold set-up and passes through the layers, every output
  // checked against the independent references. The check is not part of
  // the program's work, so its time is left out of the traced pass time.
  SpanRecorder Rec(true);
  LayeredRunner L(&Rec, Workers);
  TraceSummary T;
  R.clearProgramCache();
  T.PassesStart = Clock::now();
  std::vector<double> TracedSec;
  Clock::time_point TraceStart = Clock::now();
  while (TracedSec.empty() ||
         secondsBetween(TraceStart, Clock::now()) < O.Seconds / 2) {
    Clock::time_point T0 = Clock::now();
    double CheckSec = 0;
    {
      Span Pass(&Rec, "pass");
      for (size_t I : seededOrder(Cases.size(), Rng)) {
        FunctionalIo Io;
        RunResult Out = layeredRun(Cases[I], L, Io);
        Clock::time_point C0 = Clock::now();
        bool Ok;
        {
          Span Check(&Rec, "check");
          Ok = checkRun(Cases[I], Io, Out, Res);
        }
        CheckSec += secondsBetween(C0, Clock::now());
        ++Res.Attempted;
        if (!Ok)
          ++Res.Failed;
        if (!sameResult(Out, Checked[I]))
          Res.fail(std::string(Cases[I].Name) +
                   ": traced layers disagree with the Runner");
      }
    }
    TracedSec.push_back(secondsBetween(T0, Clock::now()) - CheckSec);
    LayerCounters C = L.takeCounters();
    if (T.TracedPasses == 0)
      T.SetupAndFirstPass = C;
    T.Passes.merge(C);
    ++T.TracedPasses;
  }
  T.UntracedPassSec = median(PassSec);
  T.TracedPassSec = median(TracedSec);
  addLayerMetrics(Res, Rec, T);
  if (!O.TracePath.empty() && !Rec.writeChromeTrace(O.TracePath))
    Res.fail("cannot write " + O.TracePath);
  return Res;
}
