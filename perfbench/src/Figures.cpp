//===- Figures.cpp - The `figures` workload -------------------------------===//
//
// Every grid point of the paper's figures 8-13 (263 points; 40 distinct
// kernels once the six grids share one process-wide cache), in timing
// mode, as a researcher reproducing the paper runs them. The grids are the
// ones bench/fig{8..13}_*.cpp declare; the seed only shuffles the order
// the points are declared and executed in.
//
//  set-up   Sweep::prewarm with an empty in-memory cache and no disk
//           directory: a cold compile of every distinct kernel.
//  a pass   one Runner call per point, in timing mode, on the Sweep's
//           Runner (what Sweep::run does, timed per point).
//  checks   every point that should run ran; every Tawa point's simulated
//           TFLOP/s is positive and at most the modelled peak; every pass
//           gives bit-identical results; a Sweep::run on the parallel
//           worker count gives the same results as the pinned one; and
//           passes compile nothing.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "driver/Sweep.h"
#include "support/Support.h"

#include <cmath>
#include <string>

using namespace perfbench;
using namespace tawa;

namespace {

void addFig8(std::vector<SweepPoint> &Out) {
  for (Precision Prec : {Precision::FP16, Precision::FP8})
    for (int64_t K : {256, 512, 1024, 2048, 4096, 8192, 16384})
      for (Framework F : {Framework::Peak, Framework::CuBlas, Framework::Tawa,
                          Framework::Triton, Framework::TileLang,
                          Framework::ThunderKittens}) {
        SweepPoint P;
        P.Gemm.K = K;
        P.Gemm.Prec = Prec;
        P.Envelope = getGemmEnvelope(F, P.Gemm);
        P.FrameworkName = getFrameworkName(F);
        P.Axes = {{"fig", "8"}};
        Out.push_back(P);
      }
}

void addFig9(std::vector<SweepPoint> &Out) {
  const Framework Fws[] = {Framework::Tawa, Framework::Triton,
                           Framework::TileLang};
  for (int64_t Size : {1024, 2048, 4096, 8192, 16384})
    for (Framework F : Fws) {
      SweepPoint P;
      P.Gemm.M = P.Gemm.N = P.Gemm.K = Size;
      P.Gemm.Batch = 8;
      P.Envelope = getGemmEnvelope(F, P.Gemm);
      P.FrameworkName = getFrameworkName(F);
      P.Axes = {{"fig", "9"}};
      Out.push_back(P);
    }
  for (int64_t G = 2; G <= 6; ++G)
    for (Framework F : Fws) {
      SweepPoint P;
      P.Gemm.N = P.Gemm.K = 4096;
      for (int64_t I = 1; I <= G; ++I)
        P.Gemm.GroupMs.push_back(512 * I);
      P.Envelope = getGemmEnvelope(F, P.Gemm);
      P.FrameworkName = getFrameworkName(F);
      P.Axes = {{"fig", "9"}};
      Out.push_back(P);
    }
}

void addFig10(std::vector<SweepPoint> &Out) {
  for (Precision Prec : {Precision::FP16, Precision::FP8})
    for (bool Causal : {false, true})
      for (int64_t L : {1024, 2048, 4096, 8192, 16384})
        for (Framework F : {Framework::FA3, Framework::Tawa,
                            Framework::Triton, Framework::TileLang,
                            Framework::ThunderKittens}) {
          SweepPoint P;
          P.PointKind = SweepPoint::Kind::Attention;
          P.Attn.SeqLen = L;
          P.Attn.Causal = Causal;
          P.Attn.Prec = Prec;
          P.Envelope = getAttentionEnvelope(F, P.Attn);
          P.FrameworkName = getFrameworkName(F);
          P.Axes = {{"fig", "10"}};
          Out.push_back(P);
        }
}

void addFig11(std::vector<SweepPoint> &Out) {
  for (bool Persistent : {false, true})
    for (int64_t D = 1; D <= 3; ++D)
      for (int64_t Pd = 1; Pd <= 3; ++Pd) {
        SweepPoint P;
        P.Gemm.K = 16384;
        P.Envelope = getGemmEnvelope(Framework::Tawa, P.Gemm);
        P.Envelope.Options.ArefDepth = D;
        P.Envelope.Options.MmaPipelineDepth = Pd;
        P.Envelope.Options.Persistent = Persistent;
        P.FrameworkName = "Tawa";
        P.Axes = {{"fig", "11"}};
        Out.push_back(P);
      }
}

void addFig12(std::vector<SweepPoint> &Out) {
  auto AddGemm = [&](const char *Step, const FrameworkEnvelope &E) {
    SweepPoint P;
    P.Gemm.K = 16384;
    P.Envelope = E;
    P.FrameworkName = Step;
    P.Axes = {{"fig", "12"}};
    Out.push_back(P);
  };
  GemmWorkload GW;
  GW.K = 16384;
  AddGemm("Triton w/o WS", getGemmEnvelope(Framework::TritonNoPipe, GW));
  FrameworkEnvelope E;
  E.TileM = 128;
  E.TileN = 128;
  E.TileK = 64;
  E.Options.EnableWarpSpecialization = true;
  E.Options.ArefDepth = 2;
  E.Options.MmaPipelineDepth = 1;
  E.Options.NumConsumerGroups = 1;
  AddGemm("+Auto WS", E);
  E.Options.NumConsumerGroups = 2;
  AddGemm("+Cooperative WGs", E);
  E.TileN = 256;
  AddGemm("+Large Tile Size", E);
  E.Options.Persistent = true;
  AddGemm("+Persistent Kernel", E);
  E.Options.ArefDepth = 3;
  E.Options.MmaPipelineDepth = 2;
  AddGemm("+Better Aref Size", E);

  auto AddMha = [&](const char *Step, const FrameworkEnvelope &Env) {
    SweepPoint P;
    P.PointKind = SweepPoint::Kind::Attention;
    P.Attn.SeqLen = 16384;
    P.Envelope = Env;
    P.FrameworkName = Step;
    P.Axes = {{"fig", "12"}};
    Out.push_back(P);
  };
  AttentionWorkload AW;
  AW.SeqLen = 16384;
  AddMha("Triton w/o WS", getAttentionEnvelope(Framework::TritonNoPipe, AW));
  FrameworkEnvelope M;
  M.TileQ = 128;
  M.TileKv = 128;
  M.ComputeScale = getAttentionEnvelope(Framework::Tawa, AW).ComputeScale;
  M.Options.EnableWarpSpecialization = true;
  M.Options.ArefDepth = 2;
  M.Options.MmaPipelineDepth = 0;
  M.Options.NumConsumerGroups = 1;
  AddMha("+Auto WS", M);
  M.Options.NumConsumerGroups = 2;
  AddMha("+Cooperative WGs", M);
  M.Options.CoarsePipeline = true;
  AddMha("+Pipeline", M);
  M.Options.ArefDepth = 3;
  AddMha("+Better Aref Size", M);
}

void addFig13(std::vector<SweepPoint> &Out) {
  for (int64_t Split : {1, 2, 3, 4, 6, 8})
    for (Framework F : {Framework::Tawa, Framework::Triton}) {
      SweepPoint P;
      P.Gemm.M = P.Gemm.N = 512;
      P.Gemm.K = 16384;
      P.Gemm.SplitK = Split;
      P.Envelope = getGemmEnvelope(F, P.Gemm);
      P.FrameworkName = getFrameworkName(F);
      P.Axes = {{"fig", "13"}};
      Out.push_back(P);
    }
  for (int64_t E = 2; E <= 8; E += 2)
    for (Framework F : {Framework::Tawa, Framework::Triton}) {
      SweepPoint P;
      P.Gemm.N = P.Gemm.K = 4096;
      P.Gemm.MoE = true;
      for (int64_t I = 0; I < E; ++I)
        P.Gemm.GroupMs.push_back(I == 2 ? 0 : 384 * (I + 1));
      P.Envelope = getGemmEnvelope(F, P.Gemm);
      P.FrameworkName = getFrameworkName(F);
      P.Axes = {{"fig", "13"}};
      Out.push_back(P);
    }
}

/// The grid in declaration order of the figure benches.
std::vector<SweepPoint> figureGrid() {
  std::vector<SweepPoint> Grid;
  addFig8(Grid);
  addFig9(Grid);
  addFig10(Grid);
  addFig11(Grid);
  addFig12(Grid);
  addFig13(Grid);
  return Grid;
}

void declare(Sweep &S, const SweepPoint &P) {
  if (P.PointKind == SweepPoint::Kind::Gemm)
    S.addGemm(P.Gemm, P.Envelope, P.FrameworkName, P.Axes);
  else
    S.addAttention(P.Attn, P.Envelope, P.FrameworkName, P.Axes);
}

/// What Sweep::run does for one point, on the sweep's own Runner.
RunResult runPoint(Runner &R, const SweepPoint &P) {
  return P.PointKind == SweepPoint::Kind::Gemm
             ? R.runGemmCustom(P.Gemm, P.Envelope, P.Functional)
             : R.runAttentionCustom(P.Attn, P.Envelope, P.Functional);
}

bool sameResult(const RunResult &A, const RunResult &B) {
  return A.Error == B.Error && A.Kind == B.Kind &&
         A.Supported == B.Supported && A.Feasible == B.Feasible &&
         A.Micros == B.Micros && A.TFlops == B.TFlops &&
         A.MaxRelError == B.MaxRelError &&
         A.TensorUtilization == B.TensorUtilization &&
         A.SmemBytes == B.SmemBytes && A.RegsPerThread == B.RegsPerThread;
}

/// Infeasible (fig11's P > D cells) and unsupported envelopes are part of
/// the figures, not failures.
bool pointFailed(const RunResult &R) {
  return !R.ok() && R.Kind != ErrorKind::Infeasible &&
         R.Kind != ErrorKind::Unsupported;
}

std::string describe(const SweepPoint &P) {
  return P.PointKind == SweepPoint::Kind::Gemm
             ? formatString("fig%s %s gemm M%lld N%lld K%lld",
                            P.axis("fig")->c_str(), P.FrameworkName.c_str(),
                            static_cast<long long>(P.Gemm.totalM()),
                            static_cast<long long>(P.Gemm.N),
                            static_cast<long long>(P.Gemm.K))
             : formatString("fig%s %s attention L%lld%s",
                            P.axis("fig")->c_str(), P.FrameworkName.c_str(),
                            static_cast<long long>(P.Attn.SeqLen),
                            P.Attn.Causal ? " causal" : "");
}

} // namespace

Result perfbench::runFigures(const Options &O) {
  Result Res;
  int64_t Workers = SimWorkers;
  std::vector<SweepPoint> Grid = figureGrid();
  SeededRng Rng(O.Seed);
  Sweep S("perfbench-figures");
  S.runner().NumWorkers = Workers;
  for (size_t I : seededOrder(Grid.size(), Rng))
    declare(S, Grid[I]);
  const std::vector<SweepPoint> &Points = S.points();
  Runner &R = S.runner();

  // Set-up: a cold compile of every distinct kernel, several times.
  std::vector<double> SetupSec;
  for (int Rep = 0; Rep < (O.Trace ? 1 : 45); ++Rep) {
    R.clearProgramCache();
    Clock::time_point T0 = Clock::now();
    if (std::string Err = S.prewarm(); !Err.empty())
      Res.fail("prewarm: " + Err);
    SetupSec.push_back(secondsBetween(T0, Clock::now()));
    if (S.stats().PrewarmCompiles != S.compileKeys().size())
      Res.fail(formatString("cold prewarm compiled %zu of %zu kernels",
                            S.stats().PrewarmCompiles,
                            S.compileKeys().size()));
  }

  // Timed passes, untraced. A traced run spends half its time here to have
  // an untraced pass time to report its overhead against.
  double Budget = O.Trace ? O.Seconds / 2 : O.Seconds;
  std::vector<RunResult> First;
  std::vector<double> PassSec, OpMs;
  int64_t Ops = 0;
  size_t MissesBefore = R.cacheStats().Misses;
  Clock::time_point LoopStart = Clock::now();
  while (PassSec.empty() || secondsBetween(LoopStart, Clock::now()) < Budget) {
    Clock::time_point PassStart = Clock::now();
    for (size_t I = 0; I < Points.size(); ++I) {
      Clock::time_point T0 = Clock::now();
      RunResult Out = runPoint(R, Points[I]);
      OpMs.push_back(secondsBetween(T0, Clock::now()) * 1e3);
      ++Ops;
      if (pointFailed(Out)) {
        ++Res.Failed;
        Res.fail(describe(Points[I]) + ": " + Out.Error);
      }
      if (First.size() < Points.size())
        First.push_back(Out);
      else if (!sameResult(First[I], Out))
        Res.fail(describe(Points[I]) + ": result differs between passes");
    }
    PassSec.push_back(secondsBetween(PassStart, Clock::now()));
  }
  Res.Attempted = Ops;
  // Before the parallel check below, whose worker arenas would count.
  double PeakRss = peakRssMb();
  if (R.cacheStats().Misses != MissesBefore)
    Res.fail("the timed passes compiled after prewarm");

  // Simulated machine: Tawa points of fig8 (GEMM) and fig10 (attention).
  const sim::GpuConfig &Cfg = R.getConfig();
  std::vector<double> GemmTflops, MhaTflops;
  for (size_t I = 0; I < Points.size(); ++I) {
    const SweepPoint &P = Points[I];
    if (P.FrameworkName != "Tawa" || !First[I].ok())
      continue;
    bool Fp8 = (P.PointKind == SweepPoint::Kind::Gemm ? P.Gemm.Prec
                                                      : P.Attn.Prec) ==
               Precision::FP8;
    double Peak = Fp8 ? Cfg.Fp8TflopsPeak : Cfg.Fp16TflopsPeak;
    if (!(First[I].TFlops > 0) || First[I].TFlops > Peak)
      Res.fail(formatString("%s: simulated %.3f TFLOP/s outside (0, %.1f]",
                            describe(P).c_str(), First[I].TFlops, Peak));
    if (*P.axis("fig") == "8")
      GemmTflops.push_back(First[I].TFlops);
    else if (*P.axis("fig") == "10")
      MhaTflops.push_back(First[I].TFlops);
  }

  // The same grid through Sweep::run on the parallel worker count must
  // agree bit for bit.
  {
    Sweep Parallel("perfbench-figures-parallel");
    Parallel.runner().NumWorkers = parallelWorkers();
    for (const SweepPoint &P : Points)
      declare(Parallel, P);
    Parallel.run();
    for (size_t I = 0; I < Points.size(); ++I)
      if (!sameResult(Parallel.records()[I].Result, First[I]))
        Res.fail(formatString("%s: %lld and %lld workers disagree",
                              describe(Points[I]).c_str(),
                              static_cast<long long>(Workers),
                              static_cast<long long>(parallelWorkers())));
  }

  if (!O.Trace) {
    addHostMetrics(Res, SetupSec, PassSec, OpMs, Ops);
    Res.add("sim_gemm_tflops", geomean(GemmTflops), "TFLOP/s");
    Res.add("sim_mha_tflops", geomean(MhaTflops), "TFLOP/s");
    Res.add("peak_rss_mb", PeakRss, "MB");
    return Res;
  }

  // Traced run: the set-up and the passes again, each Runner call taken
  // apart into its layers (Layers.h) and checked against the untraced
  // result of the same point.
  SpanRecorder Rec(true);
  LayeredRunner L(&Rec, Workers);
  TraceSummary T;
  R.clearProgramCache();
  {
    Span Setup(&Rec, "setup");
    std::string Err;
    for (const SweepPoint &P : Points) {
      bool Ok = P.PointKind == SweepPoint::Kind::Gemm
                    ? L.compileGemm(P.Gemm, P.Envelope, Err)
                    : L.compileAttention(P.Attn, P.Envelope, Err);
      if (!Ok)
        Res.fail("traced compile: " + Err);
    }
  }
  T.SetupAndFirstPass = L.takeCounters();
  T.PassesStart = Clock::now();
  std::vector<double> TracedSec;
  Clock::time_point TraceStart = Clock::now();
  while (TracedSec.empty() ||
         secondsBetween(TraceStart, Clock::now()) < O.Seconds / 2) {
    Clock::time_point PassStart = Clock::now();
    {
      Span Pass(&Rec, "pass");
      for (size_t I = 0; I < Points.size(); ++I) {
        const SweepPoint &P = Points[I];
        bool Count = P.FrameworkName == "Tawa";
        RunResult Out =
            P.PointKind == SweepPoint::Kind::Gemm
                ? L.gemm(P.Gemm, P.Envelope, false, Count)
                : L.attention(P.Attn, P.Envelope, false, Count);
        ++Res.Attempted;
        if (pointFailed(Out))
          ++Res.Failed;
        if (!sameResult(Out, First[I]))
          Res.fail(describe(P) + ": traced layers disagree with the Runner");
      }
    }
    TracedSec.push_back(secondsBetween(PassStart, Clock::now()));
    LayerCounters C = L.takeCounters();
    if (T.TracedPasses == 0)
      T.SetupAndFirstPass.merge(C);
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
