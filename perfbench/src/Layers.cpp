//===- Layers.cpp - A Runner call, taken apart layer by layer -------------===//
//
// Mirrors src/driver/Runner.cpp step for step (same key, same host inputs,
// same launch, same replay parameters). The model helpers below are copies
// of the Runner's private ones: a change there that is not made here shows
// up as a traced-run mismatch, never as a silently different metric.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "ir/Ir.h"
#include "sim/Bytecode.h"
#include "sim/Numerics.h"
#include "sim/Peephole.h"
#include "sim/Replay.h"
#include "support/Support.h"

#include <algorithm>

using namespace perfbench;
using namespace tawa;
using namespace tawa::sim;

void LayerCounters::merge(const LayerCounters &O) {
  Compiles += O.Compiles;
  OpsOut += O.OpsOut;
  BcInsts += O.BcInsts;
  CacheLookups += O.CacheLookups;
  CacheMisses += O.CacheMisses;
  ExecCtas += O.ExecCtas;
  ExecActions += O.ExecActions;
  ReplayCtas += O.ReplayCtas;
  RefGflop += O.RefGflop;
  MachCycles += O.MachCycles;
  MachTensorBusy += O.MachTensorBusy;
  MachDramBusy += O.MachDramBusy;
  MachDramBytes += O.MachDramBytes;
  for (const auto &[Name, P] : O.PassMs) {
    PassMs[Name].first += P.first;
    PassMs[Name].second += P.second;
  }
}

namespace {

//===--- Copies of the Runner's model helpers ------------------------------===//

double gemmReuseFactor(int64_t NumPidM, int64_t NumPidN, int64_t TileM,
                       int64_t TileN, int64_t Wave) {
  Wave = std::min(Wave, NumPidM * NumPidN);
  if (Wave <= 0)
    return 1.0;
  double BestUnique = 1e30;
  for (int64_t Rows = 1; Rows <= NumPidM; ++Rows) {
    int64_t Cols = ceilDiv(Wave, Rows);
    if (Cols > NumPidN)
      continue;
    double Unique = static_cast<double>(Rows * TileM + Cols * TileN);
    BestUnique = std::min(BestUnique, Unique);
  }
  if (BestUnique >= 1e30)
    return 1.0;
  double Requested = static_cast<double>(Wave) *
                     static_cast<double>(TileM + TileN);
  return std::min(1.0, BestUnique / Requested);
}

int64_t estimateRegsPerThread(const GpuConfig &Config, int64_t AccElems,
                              int64_t P, int64_t Replicas,
                              bool WarpSpecialized) {
  double Threads = WarpSpecialized ? 128.0 * static_cast<double>(Replicas)
                                   : 256.0;
  double Frag = static_cast<double>(AccElems) / Threads;
  double PipeScale =
      1.0 + Config.PipelineRegFactor *
                static_cast<double>(std::max<int64_t>(P, 1) - 1);
  return Config.BaseRegsPerThread + static_cast<int64_t>(Frag * PipeScale);
}

int64_t consumerRegBudget(const GpuConfig &Config, bool WarpSpecialized,
                          int64_t Replicas) {
  if (!WarpSpecialized)
    return Config.RegsPerSm / 256;
  int64_t ProducerRegs = 128 * 24;
  int64_t ConsumerThreads = 128 * Replicas;
  return std::min<int64_t>((Config.RegsPerSm - ProducerRegs) /
                               ConsumerThreads,
                           Config.MaxRegsPerThread);
}

TensorData slice2d(const TensorData &T, int64_t Bh, int64_t L, int64_t D) {
  TensorData W = T.extractWindow({Bh, 0, 0}, {1, L, D});
  TensorData Out({L, D});
  for (int64_t I = 0, E = L * D; I != E; ++I)
    Out.at(I) = W.at(I);
  return Out;
}

void roundHostTensor(TensorData &T, Precision P) {
  for (int64_t I = 0, E = T.getNumElements(); I != E; ++I)
    T.at(I) = P == Precision::FP16 ? roundToFp16(T.at(I))
                                   : roundToFp8E4M3(T.at(I));
}

TawaOptions effectiveGemmOptions(const GemmWorkload &W,
                                 const FrameworkEnvelope &E) {
  TawaOptions Options = E.Options;
  if (W.Batch > 1)
    Options.Persistent = false;
  if (W.SplitK > 1 || (W.MoE && !W.GroupMs.empty()))
    Options.Persistent = false;
  return Options;
}

GemmKernelConfig gemmKernelConfig(const GemmWorkload &W,
                                  const FrameworkEnvelope &E) {
  GemmKernelConfig Kernel;
  Kernel.TileM = E.TileM;
  Kernel.TileN = E.TileN;
  Kernel.TileK = E.TileK;
  Kernel.InPrecision = W.Prec;
  Kernel.Grouped = W.MoE && !W.GroupMs.empty();
  Kernel.SplitK = W.SplitK > 1 && !Kernel.Grouped && W.Batch == 1;
  Kernel.Batched = W.Batch > 1 && !Kernel.Grouped;
  return Kernel;
}

std::unique_ptr<Module> buildGemmFamilyModule(IrContext &Ctx,
                                              const GemmKernelConfig &K) {
  if (K.Grouped)
    return buildGroupedGemmModule(Ctx, K);
  if (K.SplitK)
    return buildSplitKGemmModule(Ctx, K);
  return buildGemmModule(Ctx, K);
}

AttentionKernelConfig attentionKernelConfig(const AttentionWorkload &W,
                                            const FrameworkEnvelope &E) {
  AttentionKernelConfig Kernel;
  Kernel.TileQ = E.TileQ;
  Kernel.TileKv = E.TileKv;
  Kernel.HeadDim = W.HeadDim;
  Kernel.Causal = W.Causal;
  Kernel.InPrecision = W.Prec;
  return Kernel;
}

int64_t countOps(Module &M) {
  int64_t N = 0;
  for (Operation *Op = M.getBody().front(); Op; Op = Op->getNextNode())
    Op->walk([&](Operation *) { ++N; });
  return N;
}

RunResult errorResult(std::string Err, ErrorKind K) {
  RunResult R;
  R.Error = std::move(Err);
  R.Kind = K;
  return R;
}

} // namespace

LayeredRunner::LayeredRunner(SpanRecorder *Rec, int64_t Workers)
    : Rec(Rec), Workers(Workers) {
  Plain.NumWorkers = Workers;
}

LayerCounters LayeredRunner::takeCounters() {
  LayerCounters Out = std::move(C);
  C = LayerCounters();
  return Out;
}

RunOptions LayeredRunner::launchOptions() const {
  RunOptions Launch;
  Launch.NumWorkers = Workers;
  Launch.FuseBytecode = Plain.FuseBytecode;
  return Launch;
}

std::string LayeredRunner::runModule(Module &M, const RunOptions &Launch,
                                     std::vector<CtaTrace> &Traces,
                                     double &Cycles) {
  std::shared_ptr<const bc::CompiledProgram> Prog;
  {
    Span S(Rec, "bytecode.compile");
    Prog = bc::compileModule(M, Config, bc::fusionEnabled(Launch.FuseBytecode));
  }
  C.BcInsts += Prog->Fusion.InstsAfter;
  ++C.Compiles;
  Interpreter Interp(&M, Config, Prog);
  if (std::string Err = exec(Interp, Launch, nullptr, Traces); !Err.empty())
    return Err;
  std::vector<const CtaTrace *> Schedule;
  for (const CtaTrace &T : Traces)
    Schedule.push_back(&T);
  Cycles = replay(Schedule, ReplayParams(), false).Cycles;
  return "";
}

ProgramCache::EntryRef LayeredRunner::lookup(
    const std::string &Key,
    const std::function<std::unique_ptr<Module>(IrContext &)> &Build,
    const TawaOptions &Options, int64_t SwDepth, std::string &Err) {
  Span S(Rec, "cache.lookup");
  bool Fuse = bc::fusionEnabled(Plain.FuseBytecode);
  auto Compile = [&](std::string &CErr) -> ProgramCache::EntryRef {
    auto En = std::make_shared<ProgramCache::Entry>();
    En->Ctx = std::make_shared<IrContext>();
    {
      Span F(Rec, "frontend.build");
      En->M = Build(*En->Ctx);
    }
    PassManager PM;
    buildTawaPipeline(PM, Options);
    {
      Span P(Rec, "passes.pipeline");
      Clock::time_point Start = Clock::now();
      CErr = PM.run(*En->M);
      // PassManager times each pass itself; lay those times out as child
      // spans, back to back from the pipeline's start.
      Clock::time_point At = Start;
      for (const auto &[Name, Sec] : PM.getTimings()) {
        auto End = At + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(Sec));
        if (Rec)
          Rec->addClosed(internName("passes." + Name), At, End);
        auto &Slot = C.PassMs[Name];
        ++Slot.first;
        Slot.second += Sec * 1e3;
        At = End;
      }
    }
    if (!CErr.empty())
      return nullptr;
    if (!Options.EnableWarpSpecialization && SwDepth > 0) {
      Span P(Rec, "passes.software-pipeline");
      Clock::time_point Start = Clock::now();
      runSoftwarePipeline(*En->M, SwDepth);
      auto &Slot = C.PassMs["software-pipeline"];
      ++Slot.first;
      Slot.second += secondsBetween(Start, Clock::now()) * 1e3;
    }
    C.OpsOut += countOps(*En->M);
    {
      Span B(Rec, "bytecode.compile");
      En->Prog = bc::compileModule(*En->M, Config, Fuse);
    }
    C.BcInsts += En->Prog->Fusion.InstsAfter;
    ++C.Compiles;
    return En;
  };
  ProgramCache::Outcome Outcome = ProgramCache::Outcome::MemoryHit;
  ProgramCache::EntryRef E = ProgramCache::shared().getOrCompile(
      Key, Config, /*NeedModule=*/false, /*NeedProgram=*/true, Fuse, Compile,
      Err, &Outcome);
  ++C.CacheLookups;
  if (Outcome == ProgramCache::Outcome::Compiled ||
      Outcome == ProgramCache::Outcome::Failed)
    ++C.CacheMisses;
  return E;
}

std::string LayeredRunner::exec(Interpreter &I, const RunOptions &Launch,
                                const std::vector<CtaCoord> *Coords,
                                std::vector<CtaTrace> &Traces) {
  std::string Err;
  {
    Span S(Rec, "exec");
    Err = Coords ? I.runCtaBatch(Launch, *Coords, Traces)
                 : I.runGrid(Launch, nullptr, &Traces);
  }
  C.ExecCtas += static_cast<int64_t>(Traces.size());
  for (const CtaTrace &T : Traces)
    for (const AgentTrace &A : T.Agents)
      C.ExecActions += static_cast<int64_t>(A.Actions.size());
  return Err;
}

ReplayResult
LayeredRunner::replay(const std::vector<const CtaTrace *> &Schedule,
                      const ReplayParams &P, bool CountMachine) {
  ReplayResult Rep;
  {
    Span S(Rec, "replay");
    Rep = replaySmSchedule(Schedule, Config, P);
  }
  C.ReplayCtas += static_cast<int64_t>(Schedule.size());
  if (CountMachine && !Rep.Deadlock) {
    C.MachCycles += Rep.Cycles;
    C.MachTensorBusy += Rep.TensorBusyCycles;
    C.MachDramBusy += Rep.DramBusyCycles;
    C.MachDramBytes += static_cast<double>(Rep.DramBytes);
  }
  return Rep;
}

bool LayeredRunner::compileGemm(const GemmWorkload &W,
                                const FrameworkEnvelope &E, std::string &Err) {
  Err.clear();
  std::string Key = Plain.compileKey(W, E);
  if (Key.empty())
    return true;
  GemmKernelConfig Kernel = gemmKernelConfig(W, E);
  return lookup(
             Key,
             [&](IrContext &Ctx) {
               return buildGemmFamilyModule(Ctx, Kernel);
             },
             effectiveGemmOptions(W, E), E.SwPipelineDepth, Err) != nullptr;
}

bool LayeredRunner::compileAttention(const AttentionWorkload &W,
                                     const FrameworkEnvelope &E,
                                     std::string &Err) {
  Err.clear();
  std::string Key = Plain.compileKey(W, E);
  if (Key.empty())
    return true;
  AttentionKernelConfig Kernel = attentionKernelConfig(W, E);
  return lookup(
             Key,
             [&](IrContext &Ctx) {
               return buildAttentionModule(Ctx, Kernel);
             },
             E.Options, E.SwPipelineDepth, Err) != nullptr;
}

//===----------------------------------------------------------------------===//
// GEMM (Runner::runGemmCustom)
//===----------------------------------------------------------------------===//

RunResult LayeredRunner::gemm(const GemmWorkload &W,
                              const FrameworkEnvelope &E, bool Functional,
                              bool CountMachine, FunctionalIo *Io) {
  Span Op(Rec, "driver.op");
  TawaOptions Options = effectiveGemmOptions(W, E);
  // Points that never reach the compiler have no layer below the driver.
  if (Plain.compileKey(W, E).empty() ||
      (W.SplitK > 1 && (W.Batch > 1 || W.MoE)))
    return Plain.runGemmCustom(W, E, Functional);
  if (W.MoE && !W.GroupMs.empty())
    return gemmMoe(W, E, Functional, CountMachine, Io);

  RunResult R;
  int64_t TotalM = W.totalM();
  GemmKernelConfig Kernel = gemmKernelConfig(W, E);
  std::string CompileErr;
  ProgramCache::EntryRef Cached = lookup(
      Plain.compileKey(W, E),
      [&](IrContext &Ctx) { return buildGemmFamilyModule(Ctx, Kernel); },
      Options, E.SwPipelineDepth, CompileErr);
  if (!Cached)
    return errorResult("compile: " + CompileErr, ErrorKind::CompileError);

  int64_t NumPidM = ceilDiv(TotalM, Kernel.TileM);
  int64_t NumPidN = ceilDiv(W.N, Kernel.TileN);
  int64_t Tiles = NumPidM * NumPidN;
  bool Persistent = Options.Persistent && Options.EnableWarpSpecialization;
  int64_t GridX =
      Persistent ? std::min<int64_t>(Config.NumSms, Tiles) : Tiles;
  int64_t GridY = Kernel.SplitK ? W.SplitK : W.Batch;

  int64_t Replicas = Options.NumConsumerGroups;
  R.RegsPerThread = estimateRegsPerThread(
      Config, Kernel.TileM * Kernel.TileN,
      Options.CoarsePipeline ? 2 : Options.MmaPipelineDepth, Replicas,
      Options.EnableWarpSpecialization);
  int64_t Budget =
      consumerRegBudget(Config, Options.EnableWarpSpecialization, Replicas);
  double TensorPenalty = E.ComputeScale;
  double CudaPenalty = E.CudaScale;
  if (R.RegsPerThread > Config.MaxRegsPerThread) {
    R.Feasible = false;
    R.Error = "register budget exceeded (hard limit)";
    R.Kind = ErrorKind::Infeasible;
    return R;
  }
  if (R.RegsPerThread > Budget) {
    TensorPenalty *= Config.SpillPenalty;
    CudaPenalty *= Config.SpillPenalty;
  }

  RunOptions Launch = launchOptions();
  Launch.GridX = GridX;
  Launch.GridY = GridY;
  Launch.Functional = Functional;
  TensorRef A, B, Cm;
  if (Functional) {
    std::vector<int64_t> AShape = {TotalM, W.K};
    std::vector<int64_t> BShape = {W.N, W.K};
    std::vector<int64_t> CShape = {TotalM, W.N};
    if (Kernel.Batched) {
      AShape.insert(AShape.begin(), W.Batch);
      BShape.insert(BShape.begin(), W.Batch);
      CShape.insert(CShape.begin(), W.Batch);
    }
    A = std::make_shared<TensorData>(AShape);
    B = std::make_shared<TensorData>(BShape);
    Cm = std::make_shared<TensorData>(CShape);
    A->fillRandom(1, 1.0f);
    B->fillRandom(2, 1.0f);
    roundHostTensor(*A, W.Prec);
    roundHostTensor(*B, W.Prec);
  }
  Launch.Args = {RuntimeArg::tensor(A),      RuntimeArg::tensor(B),
                 RuntimeArg::tensor(Cm),     RuntimeArg::scalar(TotalM),
                 RuntimeArg::scalar(W.N),    RuntimeArg::scalar(W.K)};

  Interpreter Interp(Cached->M.get(), Config, Cached->Prog);
  std::vector<CtaTrace> Traces;
  std::vector<CtaCoord> Sample0 = {{0, 0}};
  if (std::string Err =
          exec(Interp, Launch, Functional ? nullptr : &Sample0, Traces);
      !Err.empty())
    return errorResult(Err, classifyError(Err));
  const CtaTrace &Sample = Traces[0];

  if (Functional) {
    Span Ref(Rec, "reference");
    double Worst = 0;
    int64_t Planes = Kernel.Batched ? W.Batch : 1;
    for (int64_t Z = 0; Z < Planes; ++Z) {
      TensorData Az = Kernel.Batched ? slice2d(*A, Z, TotalM, W.K) : *A;
      TensorData Bz = Kernel.Batched ? slice2d(*B, Z, W.N, W.K) : *B;
      TensorData Cz = Kernel.Batched ? slice2d(*Cm, Z, TotalM, W.N) : *Cm;
      TensorData RefT = referenceGemm(Az, Bz);
      // Split-K accumulates raw f32 partials: no f16 store rounding.
      if (!Kernel.SplitK)
        roundHostTensor(RefT, Precision::FP16);
      Worst = std::max(Worst, Cz.maxRelDiff(RefT));
    }
    R.MaxRelError = Worst;
    C.RefGflop += 2.0 * static_cast<double>(TotalM) * W.N * W.K * Planes /
                  1e9;
    if (Io) {
      Io->Fam = Kernel.SplitK    ? FunctionalIo::Family::SplitK
                : Kernel.Batched ? FunctionalIo::Family::Batched
                                 : FunctionalIo::Family::Gemm;
      Io->Prec = W.Prec;
      Io->In = {A, B};
      Io->Out = Cm;
    }
  }

  R.SmemBytes = Sample.SmemBytes;
  if (Sample.SmemBytes > Config.SmemBytesPerSm) {
    R.Feasible = false;
    R.Error = formatString("shared memory exceeded: %lld > %lld",
                           static_cast<long long>(Sample.SmemBytes),
                           static_cast<long long>(Config.SmemBytesPerSm));
    R.Kind = ErrorKind::Infeasible;
    return R;
  }

  int64_t TotalCtas = Tiles * GridY;
  ReplayParams Params;
  Params.BwShareSms =
      static_cast<double>(std::min<int64_t>(TotalCtas, Config.NumSms));
  Params.DramReuseFactor =
      gemmReuseFactor(NumPidM, NumPidN, Kernel.TileM, Kernel.TileN,
                      std::min<int64_t>(Tiles, Config.NumSms));
  Params.TensorPenalty = TensorPenalty;
  Params.CudaPenalty = CudaPenalty;
  Params.CtaGapCycles = E.ExtraCtaCycles;
  std::vector<const CtaTrace *> Schedule;
  int64_t CtasOnSm0 = Persistent ? 1 : ceilDiv(TotalCtas, Config.NumSms);
  for (int64_t I = 0; I < CtasOnSm0; ++I)
    Schedule.push_back(&Sample);
  ReplayResult Rep = replay(Schedule, Params, CountMachine);
  if (Rep.Deadlock)
    return errorResult(Rep.Error, ErrorKind::Deadlock);
  R.Micros = Config.cyclesToMicros(Rep.Cycles) + E.ExtraLaunchMicros;
  R.TFlops = W.flops() / (R.Micros * 1e-6) / 1e12;
  R.TensorUtilization = Rep.TensorBusyCycles / std::max(1.0, Rep.Cycles);
  return R;
}

RunResult LayeredRunner::gemmMoe(const GemmWorkload &W,
                                 const FrameworkEnvelope &E, bool Functional,
                                 bool CountMachine, FunctionalIo *Io) {
  RunResult R;
  TawaOptions Options = effectiveGemmOptions(W, E);
  GemmKernelConfig Kernel = gemmKernelConfig(W, E);
  std::string CompileErr;
  ProgramCache::EntryRef Cached = lookup(
      Plain.compileKey(W, E),
      [&](IrContext &Ctx) { return buildGemmFamilyModule(Ctx, Kernel); },
      Options, E.SwPipelineDepth, CompileErr);
  if (!Cached)
    return errorResult("compile: " + CompileErr, ErrorKind::CompileError);

  int64_t NumExperts = static_cast<int64_t>(W.GroupMs.size());
  int64_t TotalM = W.totalM();
  int64_t NumPidN = ceilDiv(W.N, Kernel.TileN);
  std::vector<CtaCoord> Coords;
  std::vector<int64_t> RowStart(NumExperts, 0);
  int64_t MaxCtasPerExpert = 1;
  int64_t Row = 0;
  for (int64_t Ex = 0; Ex < NumExperts; ++Ex) {
    RowStart[Ex] = Row;
    Row += W.GroupMs[Ex];
    int64_t ExpertCtas = ceilDiv(W.GroupMs[Ex], Kernel.TileM) * NumPidN;
    MaxCtasPerExpert = std::max(MaxCtasPerExpert, ExpertCtas);
    for (int64_t T = 0; T < ExpertCtas; ++T)
      Coords.push_back({T, Ex});
  }
  int64_t TotalCtas = static_cast<int64_t>(Coords.size());

  int64_t Replicas = Options.NumConsumerGroups;
  R.RegsPerThread = estimateRegsPerThread(
      Config, Kernel.TileM * Kernel.TileN,
      Options.CoarsePipeline ? 2 : Options.MmaPipelineDepth, Replicas,
      Options.EnableWarpSpecialization);
  int64_t Budget =
      consumerRegBudget(Config, Options.EnableWarpSpecialization, Replicas);
  double TensorPenalty = E.ComputeScale;
  double CudaPenalty = E.CudaScale;
  if (R.RegsPerThread > Config.MaxRegsPerThread) {
    R.Feasible = false;
    R.Error = "register budget exceeded (hard limit)";
    R.Kind = ErrorKind::Infeasible;
    return R;
  }
  if (R.RegsPerThread > Budget) {
    TensorPenalty *= Config.SpillPenalty;
    CudaPenalty *= Config.SpillPenalty;
  }
  if (TotalCtas == 0) {
    if (Functional)
      R.MaxRelError = 0;
    R.Micros = E.ExtraLaunchMicros;
    R.TFlops = 0;
    return R;
  }

  RunOptions Launch = launchOptions();
  Launch.GridX = MaxCtasPerExpert;
  Launch.GridY = NumExperts;
  Launch.Functional = Functional;
  TensorRef A, B, Cm, Table;
  if (Functional) {
    A = std::make_shared<TensorData>(std::vector<int64_t>{TotalM, W.K});
    B = std::make_shared<TensorData>(
        std::vector<int64_t>{NumExperts, W.N, W.K});
    Cm = std::make_shared<TensorData>(std::vector<int64_t>{TotalM, W.N});
    Table = std::make_shared<TensorData>(std::vector<int64_t>{NumExperts, 2});
    A->fillRandom(1, 1.0f);
    B->fillRandom(2, 1.0f);
    roundHostTensor(*A, W.Prec);
    roundHostTensor(*B, W.Prec);
    for (int64_t Ex = 0; Ex < NumExperts; ++Ex) {
      Table->at(Ex * 2) = static_cast<float>(RowStart[Ex]);
      Table->at(Ex * 2 + 1) = static_cast<float>(W.GroupMs[Ex]);
    }
  }
  Launch.Args = {RuntimeArg::tensor(A),   RuntimeArg::tensor(B),
                 RuntimeArg::tensor(Cm),  RuntimeArg::tensor(Table),
                 RuntimeArg::scalar(W.N), RuntimeArg::scalar(W.K)};

  Interpreter Interp(Cached->M.get(), Config, Cached->Prog);
  std::vector<CtaTrace> SampleStorage;
  if (Functional) {
    std::vector<CtaTrace> AllTraces;
    if (std::string Err = exec(Interp, Launch, &Coords, AllTraces);
        !Err.empty())
      return errorResult(Err, classifyError(Err));
    {
      Span Ref(Rec, "reference");
      double Worst = 0;
      for (int64_t Ex = 0; Ex < NumExperts; ++Ex) {
        if (W.GroupMs[Ex] == 0)
          continue;
        TensorData Ae =
            A->extractWindow({RowStart[Ex], 0}, {W.GroupMs[Ex], W.K});
        TensorData Be = slice2d(*B, Ex, W.N, W.K);
        TensorData Ce =
            Cm->extractWindow({RowStart[Ex], 0}, {W.GroupMs[Ex], W.N});
        TensorData RefT = referenceGemm(Ae, Be);
        roundHostTensor(RefT, Precision::FP16);
        Worst = std::max(Worst, Ce.maxRelDiff(RefT));
      }
      R.MaxRelError = Worst;
      C.RefGflop += 2.0 * static_cast<double>(TotalM) * W.N * W.K / 1e9;
    }
    for (int64_t I = 0; I < TotalCtas; I += Config.NumSms)
      SampleStorage.push_back(std::move(AllTraces[I]));
    if (Io) {
      Io->Fam = FunctionalIo::Family::Grouped;
      Io->Prec = W.Prec;
      Io->In = {A, B};
      Io->Out = Cm;
      Io->GroupMs = W.GroupMs;
    }
  } else {
    std::vector<CtaCoord> Sm0Ctas;
    for (int64_t I = 0; I < TotalCtas; I += Config.NumSms)
      Sm0Ctas.push_back(Coords[I]);
    if (std::string Err = exec(Interp, Launch, &Sm0Ctas, SampleStorage);
        !Err.empty())
      return errorResult(Err, classifyError(Err));
  }

  R.SmemBytes = SampleStorage.front().SmemBytes;
  if (R.SmemBytes > Config.SmemBytesPerSm) {
    R.Feasible = false;
    R.Error = formatString("shared memory exceeded: %lld > %lld",
                           static_cast<long long>(R.SmemBytes),
                           static_cast<long long>(Config.SmemBytesPerSm));
    R.Kind = ErrorKind::Infeasible;
    return R;
  }

  ReplayParams Params;
  Params.BwShareSms =
      static_cast<double>(std::min<int64_t>(TotalCtas, Config.NumSms));
  Params.DramReuseFactor = gemmReuseFactor(
      ceilDiv(TotalM, Kernel.TileM), NumPidN, Kernel.TileM, Kernel.TileN,
      std::min<int64_t>(TotalCtas, Config.NumSms));
  Params.TensorPenalty = TensorPenalty;
  Params.CudaPenalty = CudaPenalty;
  Params.CtaGapCycles = E.ExtraCtaCycles;
  std::vector<const CtaTrace *> Schedule;
  for (const CtaTrace &T : SampleStorage)
    Schedule.push_back(&T);
  ReplayResult Rep = replay(Schedule, Params, CountMachine);
  if (Rep.Deadlock)
    return errorResult(Rep.Error, ErrorKind::Deadlock);
  R.Micros = Config.cyclesToMicros(Rep.Cycles) + E.ExtraLaunchMicros;
  R.TFlops = W.flops() / (R.Micros * 1e-6) / 1e12;
  R.TensorUtilization = Rep.TensorBusyCycles / std::max(1.0, Rep.Cycles);
  return R;
}

//===----------------------------------------------------------------------===//
// Attention (Runner::runAttentionCustom)
//===----------------------------------------------------------------------===//

RunResult LayeredRunner::attention(const AttentionWorkload &W,
                                   const FrameworkEnvelope &E,
                                   bool Functional, bool CountMachine,
                                   FunctionalIo *Io) {
  Span Op(Rec, "driver.op");
  if (Plain.compileKey(W, E).empty())
    return Plain.runAttentionCustom(W, E, Functional);

  RunResult R;
  TawaOptions Options = E.Options;
  AttentionKernelConfig Kernel = attentionKernelConfig(W, E);
  std::string CompileErr;
  ProgramCache::EntryRef Cached = lookup(
      Plain.compileKey(W, E),
      [&](IrContext &Ctx) { return buildAttentionModule(Ctx, Kernel); },
      Options, E.SwPipelineDepth, CompileErr);
  if (!Cached)
    return errorResult("compile: " + CompileErr, ErrorKind::CompileError);

  int64_t QTiles = ceilDiv(W.SeqLen, Kernel.TileQ);
  int64_t BH = W.Batch * W.Heads;
  int64_t TotalCtas = QTiles * BH;
  int64_t Replicas = Options.NumConsumerGroups;
  int64_t AccElems = Kernel.TileQ * (W.HeadDim + Kernel.TileKv / 2);
  R.RegsPerThread = estimateRegsPerThread(
      Config, AccElems, Options.CoarsePipeline ? 2 : 1, Replicas,
      Options.EnableWarpSpecialization);
  int64_t Budget =
      consumerRegBudget(Config, Options.EnableWarpSpecialization, Replicas);
  double TensorPenalty = E.ComputeScale;
  double CudaPenalty = E.CudaScale;
  if (R.RegsPerThread > Budget) {
    TensorPenalty *= Config.SpillPenalty;
    CudaPenalty *= Config.SpillPenalty;
  }

  RunOptions Launch = launchOptions();
  Launch.GridX = QTiles;
  Launch.GridY = BH;
  Launch.Functional = Functional;
  TensorRef Q, K, V, O;
  if (Functional) {
    std::vector<int64_t> Shape = {BH, W.SeqLen, W.HeadDim};
    Q = std::make_shared<TensorData>(Shape);
    K = std::make_shared<TensorData>(Shape);
    V = std::make_shared<TensorData>(Shape);
    O = std::make_shared<TensorData>(Shape);
    Q->fillRandom(11, 1.0f);
    K->fillRandom(12, 1.0f);
    V->fillRandom(13, 1.0f);
    roundHostTensor(*Q, W.Prec);
    roundHostTensor(*K, W.Prec);
    roundHostTensor(*V, W.Prec);
  }
  Launch.Args = {RuntimeArg::tensor(Q), RuntimeArg::tensor(K),
                 RuntimeArg::tensor(V), RuntimeArg::tensor(O),
                 RuntimeArg::scalar(W.SeqLen)};
  Interpreter Interp(Cached->M.get(), Config, Cached->Prog);

  if (Functional) {
    std::vector<CtaTrace> Grid;
    if (std::string Err = exec(Interp, Launch, nullptr, Grid); !Err.empty())
      return errorResult(Err, classifyError(Err));
    Span Ref(Rec, "reference");
    double Worst = 0;
    for (int64_t Y = 0; Y < BH; ++Y) {
      TensorData Qy = slice2d(*Q, Y, W.SeqLen, W.HeadDim);
      TensorData Ky = slice2d(*K, Y, W.SeqLen, W.HeadDim);
      TensorData Vy = slice2d(*V, Y, W.SeqLen, W.HeadDim);
      TensorData Oy = slice2d(*O, Y, W.SeqLen, W.HeadDim);
      TensorData RefT = referenceAttention(Qy, Ky, Vy, W.Causal);
      roundHostTensor(RefT, Precision::FP16);
      Worst = std::max(Worst, Oy.maxRelDiff(RefT));
    }
    R.MaxRelError = Worst;
    C.RefGflop += 4.0 * static_cast<double>(W.SeqLen) * W.SeqLen *
                  W.HeadDim * BH / 1e9;
    if (Io) {
      Io->Fam = FunctionalIo::Family::Attention;
      Io->Prec = W.Prec;
      Io->In = {Q, K, V};
      Io->Out = O;
      Io->Causal = W.Causal;
    }
  }

  RunOptions TimingLaunch = Launch;
  TimingLaunch.Functional = false;
  std::vector<CtaCoord> Sm0Ctas;
  for (int64_t Pid = 0; Pid < TotalCtas; Pid += Config.NumSms)
    Sm0Ctas.push_back({Pid % QTiles, Pid / QTiles});
  std::vector<CtaTrace> SampleStorage;
  if (std::string Err = exec(Interp, TimingLaunch, &Sm0Ctas, SampleStorage);
      !Err.empty())
    return errorResult(Err, classifyError(Err));
  if (SampleStorage.empty())
    return errorResult("no CTAs to simulate", ErrorKind::Internal);
  R.SmemBytes = SampleStorage.front().SmemBytes;
  if (R.SmemBytes > Config.SmemBytesPerSm) {
    R.Feasible = false;
    R.Error = "shared memory exceeded";
    R.Kind = ErrorKind::Infeasible;
    return R;
  }

  int64_t Wave = std::min<int64_t>(TotalCtas, Config.NumSms);
  double HeadsCovered =
      std::min<double>(static_cast<double>(ceilDiv(Wave, QTiles)) + 1,
                       static_cast<double>(BH));
  double KvBytesPerCta = 2.0 * static_cast<double>(W.SeqLen) * W.HeadDim *
                         getPrecisionBytes(W.Prec);
  double QBytesPerCta = static_cast<double>(Kernel.TileQ) * W.HeadDim *
                        getPrecisionBytes(W.Prec);
  double KvReuse = HeadsCovered / static_cast<double>(Wave);
  double Blended = (QBytesPerCta + KvBytesPerCta * KvReuse) /
                   (QBytesPerCta + KvBytesPerCta);
  ReplayParams Params;
  Params.BwShareSms = static_cast<double>(Wave);
  Params.DramReuseFactor = std::min(1.0, Blended);
  Params.TensorPenalty = TensorPenalty;
  Params.CudaPenalty = CudaPenalty;
  Params.CtaGapCycles = E.ExtraCtaCycles;
  std::vector<const CtaTrace *> Schedule;
  for (const CtaTrace &T : SampleStorage)
    Schedule.push_back(&T);
  ReplayResult Rep = replay(Schedule, Params, CountMachine);
  if (Rep.Deadlock)
    return errorResult(Rep.Error, ErrorKind::Deadlock);
  R.Micros = Config.cyclesToMicros(Rep.Cycles) + E.ExtraLaunchMicros;
  R.TFlops = W.flops() / (R.Micros * 1e-6) / 1e12;
  R.TensorUtilization = Rep.TensorBusyCycles / std::max(1.0, Rep.Cycles);
  return R;
}
