//===- Serve.cpp - The `serve` workload -----------------------------------===//
//
// A closed loop over tawa-serve's AF_UNIX transport: a Service and a
// SocketServer in this process, one client connection per lane, each lane
// sending its next request only after the previous response arrived. A
// pass is one round shared by the lanes; every round holds the same
// requests, and the seed decides their order. A round holds:
//
//   * 27 of each small timing-mode gemm and attention request over a fixed
//     menu of shapes and frameworks (ten keys);
//   *  7 of each ir request replaying a pinned tests/corpus/*.tawa file
//     (gemm_ws_worker_faults.tawa excepted: its fuzz.faults attribute arms
//     fault injection process-wide, which leaks into concurrent requests);
//   *  5 of each of two gemm/attention requests with "sandbox": true, run
//     by the supervisor's warm tawa-sandbox child.
//
// With the ten corpus files that is 270 + 70 + 10 = 350 requests. The
// slowest corpus file (attention_causal_coarse.tawa) is 7 of them, 2%, so
// op_p99_ms falls at the middle of that file's latency distribution,
// which repeats from run to run far better than its lower tail does (see
// README.md, "Steadiness"). Fixed counts keep it there: a share drawn
// anew for every request would move the percentile with the seed.
//
//  set-up   server start, sandbox pool start and one warm-up pass over the
//           request keys, with an empty program cache.
//  checks   every gemm/attention response equals a direct Runner call on
//           the same request; every ir response equals a direct
//           Interpreter::runGrid run at 1 worker; the deadlocking corpus
//           file counts as correct only with the `deadlock` kind.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "ir/Ir.h"
#include "ir/Parser.h"
#include "serve/Execute.h"
#include "serve/Server.h"
#include "support/Json.h"
#include "support/Support.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <sstream>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <utility>
#include <variant>

using namespace perfbench;
using namespace tawa;
using namespace tawa::serve;

namespace {

/// Requests per round of each key, by share group.
constexpr size_t DirectRepeats = 27, IrRepeats = 7, SandboxRepeats = 5;
constexpr int64_t MaxSteps = 1000000; ///< ServeConfig's default budget.
const char *const ExcludedCorpusFile = "gemm_ws_worker_faults.tawa";

//===--- Request menu ------------------------------------------------------===//

struct Key {
  enum class Kind { Gemm, Attention, Ir };
  Kind K = Kind::Gemm;
  std::string Name;
  Framework F = Framework::Tawa;
  GemmWorkload Gemm;
  AttentionWorkload Attn;
  bool Sandbox = false;
  int64_t Twin = -1; ///< Sandbox keys: the in-process key they mirror.
  std::string IrText;
  bool ExpectDeadlock = false;
  std::string Line; ///< The request, with "%ID%" for its id.
};

std::string requestLine(const Key &K) {
  std::string L = "{\"schema\":\"tawa-serve-req-v1\",\"id\":\"%ID%\"";
  if (K.K == Key::Kind::Ir)
    return L + ",\"kind\":\"ir\",\"ir\":\"" + JsonWriter::escape(K.IrText) +
           "\"}";
  const char *Prec =
      (K.K == Key::Kind::Gemm ? K.Gemm.Prec : K.Attn.Prec) == Precision::FP8
          ? "fp8"
          : "fp16";
  L += formatString(",\"framework\":\"%s\",\"precision\":\"%s\"",
                    frameworkWireName(K.F), Prec);
  if (K.K == Key::Kind::Gemm)
    L += formatString(",\"kind\":\"gemm\",\"m\":%lld,\"n\":%lld,\"k\":%lld",
                      static_cast<long long>(K.Gemm.M),
                      static_cast<long long>(K.Gemm.N),
                      static_cast<long long>(K.Gemm.K));
  else
    L += formatString(",\"kind\":\"attention\",\"seq_len\":%lld,\"batch\":1,"
                      "\"heads\":1,\"head_dim\":%lld,\"causal\":%s",
                      static_cast<long long>(K.Attn.SeqLen),
                      static_cast<long long>(K.Attn.HeadDim),
                      K.Attn.Causal ? "true" : "false");
  return L + (K.Sandbox ? ",\"sandbox\":true}" : "}");
}

struct Menu {
  std::vector<Key> Keys;
  std::vector<size_t> Direct, Ir, Sandboxed; ///< Indices by share group.
};

bool buildMenu(Menu &M, std::string &Err) {
  auto gemm = [&](Framework F, Precision P, int64_t Mm, int64_t N,
                  int64_t K) {
    Key Kk;
    Kk.F = F;
    Kk.Gemm.M = Mm;
    Kk.Gemm.N = N;
    Kk.Gemm.K = K;
    Kk.Gemm.Prec = P;
    Kk.Name = formatString("gemm %s %s %lldx%lldx%lld", frameworkWireName(F),
                           P == Precision::FP8 ? "fp8" : "fp16",
                           static_cast<long long>(Mm),
                           static_cast<long long>(N),
                           static_cast<long long>(K));
    M.Direct.push_back(M.Keys.size());
    M.Keys.push_back(Kk);
  };
  auto attention = [&](Framework F, int64_t L, bool Causal) {
    Key Kk;
    Kk.K = Key::Kind::Attention;
    Kk.F = F;
    Kk.Attn.Batch = 1;
    Kk.Attn.Heads = 1;
    Kk.Attn.HeadDim = 128;
    Kk.Attn.SeqLen = L;
    Kk.Attn.Causal = Causal;
    Kk.Name = formatString("attention %s L%lld%s", frameworkWireName(F),
                           static_cast<long long>(L),
                           Causal ? " causal" : "");
    M.Direct.push_back(M.Keys.size());
    M.Keys.push_back(Kk);
  };
  gemm(Framework::Tawa, Precision::FP16, 1024, 1024, 512);
  gemm(Framework::Tawa, Precision::FP16, 2048, 2048, 1024);
  gemm(Framework::Tawa, Precision::FP16, 512, 512, 2048);
  gemm(Framework::Tawa, Precision::FP8, 1024, 1024, 1024);
  gemm(Framework::Triton, Precision::FP16, 1024, 1024, 512);
  gemm(Framework::CuBlas, Precision::FP16, 2048, 2048, 1024);
  attention(Framework::Tawa, 512, false);
  attention(Framework::Tawa, 1024, true);
  attention(Framework::FA3, 512, false);
  attention(Framework::Triton, 512, true);
  for (size_t Twin : {M.Direct[0], M.Direct[6]}) {
    Key Kk = M.Keys[Twin];
    Kk.Sandbox = true;
    Kk.Twin = static_cast<int64_t>(Twin);
    Kk.Name += " (sandbox)";
    M.Sandboxed.push_back(M.Keys.size());
    M.Keys.push_back(Kk);
  }

  std::vector<std::string> Files;
  if (DIR *D = opendir(TAWA_CORPUS_DIR)) {
    while (dirent *E = readdir(D)) {
      std::string N = E->d_name;
      if (N.size() > 5 && N.compare(N.size() - 5, 5, ".tawa") == 0 &&
          N != ExcludedCorpusFile)
        Files.push_back(N);
    }
    closedir(D);
  }
  if (Files.empty()) {
    Err = std::string("no IR corpus in ") + TAWA_CORPUS_DIR;
    return false;
  }
  std::sort(Files.begin(), Files.end());
  for (const std::string &N : Files) {
    std::ifstream In(std::string(TAWA_CORPUS_DIR) + "/" + N);
    std::stringstream SS;
    SS << In.rdbuf();
    Key Kk;
    Kk.K = Key::Kind::Ir;
    Kk.Name = "ir " + N;
    Kk.IrText = SS.str();
    Kk.ExpectDeadlock = N == "protocol_ring_deadlock.tawa";
    M.Ir.push_back(M.Keys.size());
    M.Keys.push_back(Kk);
  }
  for (Key &K : M.Keys)
    K.Line = requestLine(K);
  return true;
}

/// One round: every key its fixed number of times, in an order drawn from
/// the seeded stream.
std::vector<size_t> drawRound(const Menu &M, SeededRng &Rng) {
  std::vector<size_t> Keys;
  for (auto [Group, Repeats] :
       {std::pair{&M.Direct, DirectRepeats}, std::pair{&M.Ir, IrRepeats},
        std::pair{&M.Sandboxed, SandboxRepeats}})
    for (size_t K : *Group)
      Keys.insert(Keys.end(), Repeats, K);
  std::vector<size_t> Round;
  Round.reserve(Keys.size());
  for (size_t I : seededOrder(Keys.size(), Rng))
    Round.push_back(Keys[I]);
  return Round;
}

std::string withId(const std::string &Line, const std::string &Id) {
  std::string Out = Line;
  size_t At = Out.find("%ID%");
  Out.replace(At, 4, Id);
  return Out;
}

//===--- Expected responses ------------------------------------------------===//

/// The benchmark's own reading of the fuzz.grid / fuzz.args launch
/// attributes (grammar: docs/fuzzing.md).
bool decodeLaunch(const Module &Mod, sim::RunOptions &Launch,
                  std::vector<sim::TensorRef> &Outputs, std::string &Err) {
  const auto &Attrs = Mod.getAttrs();
  auto G = Attrs.find("fuzz.grid");
  auto A = Attrs.find("fuzz.args");
  const auto *Grid = G == Attrs.end()
                         ? nullptr
                         : std::get_if<std::vector<int64_t>>(&G->second);
  const auto *Args =
      A == Attrs.end() ? nullptr : std::get_if<std::string>(&A->second);
  if (!Grid || Grid->size() != 2 || !Args) {
    Err = "module lacks fuzz.grid / fuzz.args";
    return false;
  }
  Launch.GridX = (*Grid)[0];
  Launch.GridY = (*Grid)[1];
  std::stringstream Entries(*Args);
  std::string Tok;
  auto dims = [](const std::string &S) {
    std::vector<int64_t> D;
    std::stringstream SS(S);
    std::string X;
    while (std::getline(SS, X, 'x'))
      D.push_back(std::strtoll(X.c_str(), nullptr, 10));
    return D;
  };
  while (std::getline(Entries, Tok, ';')) {
    if (Tok.empty())
      continue;
    if (Tok[0] == 's') {
      Launch.Args.push_back(
          sim::RuntimeArg::scalar(std::strtoll(Tok.c_str() + 1, nullptr, 10)));
      continue;
    }
    size_t Colon = Tok.find(':');
    if ((Tok[0] != 't' && Tok[0] != 'd') || Colon == std::string::npos) {
      Err = "unreadable fuzz.args entry " + Tok;
      return false;
    }
    sim::TensorRef T;
    if (Tok[0] == 't') {
      T = std::make_shared<sim::TensorData>(dims(Tok.substr(Colon + 1)));
      uint64_t Seed = std::strtoull(Tok.c_str() + 1, nullptr, 10);
      if (Seed)
        T->fillRandom(Seed, 1.0f);
      else
        Outputs.push_back(T);
    } else {
      T = std::make_shared<sim::TensorData>(dims(Tok.substr(1, Colon - 1)));
      std::stringstream Vals(Tok.substr(Colon + 1));
      std::string V;
      for (int64_t I = 0; std::getline(Vals, V, ',') &&
                          I < T->getNumElements();
           ++I)
        T->at(I) = static_cast<float>(std::strtoll(V.c_str(), nullptr, 10));
    }
    Launch.Args.push_back(sim::RuntimeArg::tensor(T));
  }
  return true;
}

/// A direct run of an ir request at 1 worker, through the layers. Fills
/// the result fields of \p Resp, or returns the error.
std::string runIrDirect(const Key &K, LayeredRunner &L, SpanRecorder *Rec,
                        ServeResponse &Resp) {
  IrContext Ctx;
  std::string Err;
  std::unique_ptr<Module> Mod;
  {
    Span S(Rec, "ir.parse");
    Mod = parseModule(Ctx, K.IrText, Err);
  }
  if (!Mod)
    return "ir parse: " + Err;
  sim::RunOptions Launch;
  std::vector<sim::TensorRef> Outputs;
  if (!decodeLaunch(*Mod, Launch, Outputs, Err))
    return Err;
  Launch.NumWorkers = 1;
  Launch.MaxSteps = MaxSteps;
  std::vector<sim::CtaTrace> Traces;
  double Cycles = 0;
  if (std::string RunErr = L.runModule(*Mod, Launch, Traces, Cycles);
      !RunErr.empty())
    return RunErr;
  Resp.HasIr = true;
  for (const sim::TensorRef &T : Outputs)
    Resp.Outputs.push_back(formatString(
        "%016llx",
        static_cast<unsigned long long>(fnv1a64(
            T->data(), static_cast<size_t>(T->getNumElements()) *
                           sizeof(float)))));
  Resp.Cycles = Cycles;
  return "";
}

struct Expect {
  ServeResponse Resp; ///< Result fields; the envelope comes from the reply.
  RunResult Run;      ///< gemm / attention keys.
};

/// The response a direct Runner call (gemm, attention) or a direct
/// Interpreter run (ir) gives for \p K.
Expect expectFor(const Key &K, LayeredRunner &L) {
  Expect E;
  E.Resp.St = ServeResponse::Status::Ok;
  if (K.K == Key::Kind::Ir) {
    std::string Err = runIrDirect(K, L, nullptr, E.Resp);
    if (!Err.empty()) {
      E.Resp.St = ServeResponse::Status::Failed;
      E.Resp.Error = Err;
      E.Resp.ErrorKind = errorKindName(classifyError(Err));
    }
    return E;
  }
  Runner R;
  R.NumWorkers = 1;
  R.MaxSteps = MaxSteps;
  E.Run = K.K == Key::Kind::Gemm ? R.runGemm(K.F, K.Gemm)
                                 : R.runAttention(K.F, K.Attn);
  E.Resp.HasRun = true;
  E.Resp.Micros = E.Run.Micros;
  E.Resp.TFlops = E.Run.TFlops;
  E.Resp.MaxRelError = E.Run.MaxRelError;
  E.Resp.SmemBytes = E.Run.SmemBytes;
  E.Resp.RegsPerThread = E.Run.RegsPerThread;
  return E;
}

/// Whether \p Line is the expected response for \p K.
bool responseMatches(const Key &K, const Expect &E, const std::string &Line,
                     std::string &Why) {
  ServeResponse Got;
  if (std::string Err = parseResponse(Line, Got); !Err.empty()) {
    Why = "unparsable response: " + Err;
    return false;
  }
  if (K.ExpectDeadlock) {
    if (Got.St == ServeResponse::Status::Failed && Got.ErrorKind == "deadlock")
      return true;
    Why = "expected a deadlock, got: " + Line;
    return false;
  }
  ServeResponse Want = E.Resp;
  Want.Id = Got.Id;
  Want.Attempts = Got.Attempts;
  Want.Degrade = Got.Degrade;
  if (Want.render() == Line)
    return true;
  Why = "got " + Line + " want " + Want.render();
  return false;
}

//===--- Transport ---------------------------------------------------------===//

class Client {
public:
  explicit Client(const std::string &Path) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
    if (Fd >= 0 &&
        ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
      ::close(Fd);
      Fd = -1;
    }
  }
  ~Client() {
    if (Fd >= 0)
      ::close(Fd);
  }
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  bool ok() const { return Fd >= 0; }

  /// Sends one request line and reads its response line.
  bool call(const std::string &Req, std::string &Resp) {
    std::string Out = Req + "\n";
    for (size_t Off = 0; Off < Out.size();) {
      ssize_t N = ::send(Fd, Out.data() + Off, Out.size() - Off, MSG_NOSIGNAL);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    for (;;) {
      size_t Nl = Buf.find('\n');
      if (Nl != std::string::npos) {
        Resp = Buf.substr(0, Nl);
        Buf.erase(0, Nl + 1);
        return true;
      }
      char Chunk[65536];
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Buf.append(Chunk, static_cast<size_t>(N));
    }
  }

private:
  int Fd = -1;
  std::string Buf;
};

/// A running server: Service + SocketServer + one connection per lane.
struct Server {
  std::unique_ptr<Service> Svc;
  std::unique_ptr<SocketServer> Sock;
  std::vector<std::unique_ptr<Client>> Lanes;
  std::string Path;

  ~Server() { stop(); }
  void stop() {
    Lanes.clear();
    if (Sock)
      Sock->shutdown();
    Sock.reset();
    if (Svc)
      Svc->shutdown(); // Also stops and reaps the sandbox child.
    Svc.reset();
    if (!Path.empty())
      ::unlink(Path.c_str());
  }
};

ServeConfig serveConfig(int64_t Workers) {
  ServeConfig C;
  C.Workers = Workers;
  C.QueueDepth = 64;
  C.ExecWorkers = 1;
  C.CrashDumpDir = "";
  C.Sandbox = SandboxConfig();
  C.Sandbox.Pool = 1;
  return C;
}

/// Server start, sandbox pool start, one warm-up pass over every key.
bool startServer(Server &S, const Menu &M, int64_t Lanes, std::string &Err) {
  S.Path = formatString(".bench_build/perfbench-serve-%d.sock",
                        static_cast<int>(::getpid()));
  S.Svc = std::make_unique<Service>(serveConfig(Lanes));
  S.Sock = std::make_unique<SocketServer>(*S.Svc, S.Path);
  if (!S.Sock->start(Err))
    return false;
  for (int64_t I = 0; I < Lanes; ++I) {
    S.Lanes.push_back(std::make_unique<Client>(S.Path));
    if (!S.Lanes.back()->ok()) {
      Err = "cannot connect to " + S.Path;
      return false;
    }
  }
  std::string Resp;
  for (size_t I = 0; I < M.Keys.size(); ++I)
    if (!S.Lanes[0]->call(withId(M.Keys[I].Line, "warm-" + std::to_string(I)),
                          Resp)) {
      Err = "warm-up request lost: " + M.Keys[I].Name;
      return false;
    }
  return true;
}

//===--- Rounds -------------------------------------------------------------===//

struct Reply {
  std::string Line;
  double RttMs = 0;
};

/// Direct per-request timings of a traced round (in-process requests).
struct DirectTimes {
  double ParseMs = 0, ExecuteMs = 0, RenderMs = 0;
  int64_t N = 0;
};

struct LaneState {
  LayeredRunner Layers;
  DirectTimes Times;
  std::vector<std::string> Problems;
  explicit LaneState(SpanRecorder *Rec) : Layers(Rec, 1) {}
};

/// The traced run's extra work for one answered request: the serve layer's
/// public functions on the same request text, and the layers below them.
void tracedDirect(const Key &K, const Expect &E, const std::string &Req,
                  const std::string &Got, SpanRecorder *Rec, LaneState &L) {
  ServeRequest Parsed;
  ServeResponse Resp;
  ErrorKind Kind = ErrorKind::None;
  Clock::time_point T0 = Clock::now();
  {
    Span S(Rec, "serve.parse");
    if (std::string Err = parseRequest(Req, Parsed); !Err.empty())
      L.Problems.push_back(K.Name + ": parseRequest: " + Err);
  }
  Clock::time_point T1 = Clock::now();
  std::string Err;
  {
    Span S(Rec, "serve.execute");
    ExecEnv Env;
    Env.RemainingMs = 30000;
    Env.DefaultMaxSteps = MaxSteps;
    Env.ExecWorkers = 1;
    Err = executeRequest(Parsed, Env, Resp, Kind);
  }
  Clock::time_point TExec = Clock::now();
  // The envelope the server owns (attempts, ladder level) comes from its
  // reply, so the rendered lines can be compared byte for byte.
  ServeResponse Reply;
  parseResponse(Got, Reply);
  Resp.Id = Parsed.Id;
  Resp.Attempts = Reply.Attempts;
  Resp.Degrade = Reply.Degrade;
  if (Err.empty()) {
    Resp.St = ServeResponse::Status::Ok;
  } else {
    Resp.St = ServeResponse::Status::Failed;
    Resp.Error = Err;
    Resp.ErrorKind =
        errorKindName(Kind == ErrorKind::None ? classifyError(Err) : Kind);
  }
  std::string Line;
  Clock::time_point T2 = Clock::now();
  {
    Span S(Rec, "serve.render");
    Line = Resp.render();
  }
  Clock::time_point T3 = Clock::now();
  if (!K.Sandbox) {
    L.Times.ParseMs += secondsBetween(T0, T1) * 1e3;
    L.Times.ExecuteMs += secondsBetween(T1, TExec) * 1e3;
    L.Times.RenderMs += secondsBetween(T2, T3) * 1e3;
    ++L.Times.N;
  }
  if (Line != Got && !K.ExpectDeadlock)
    L.Problems.push_back(K.Name + ": in-process executeRequest rendered " +
                         Line + ", the server answered " + Got);

  // The layers under executeRequest, on the same request.
  if (K.K == Key::Kind::Ir) {
    ServeResponse Direct;
    std::string IrErr = runIrDirect(K, L.Layers, Rec, Direct);
    if (IrErr.empty() != E.Resp.Error.empty() ||
        Direct.Outputs != E.Resp.Outputs || Direct.Cycles != E.Resp.Cycles)
      L.Problems.push_back(K.Name + ": traced layers disagree with the "
                                    "direct run");
    return;
  }
  bool Tawa = K.F == Framework::Tawa;
  RunResult Run =
      K.K == Key::Kind::Gemm
          ? L.Layers.gemm(K.Gemm, getGemmEnvelope(K.F, K.Gemm), false, Tawa)
          : L.Layers.attention(K.Attn, getAttentionEnvelope(K.F, K.Attn),
                               false, Tawa);
  if (Run.Micros != E.Run.Micros || Run.TFlops != E.Run.TFlops ||
      Run.SmemBytes != E.Run.SmemBytes || Run.Error != E.Run.Error)
    L.Problems.push_back(K.Name + ": traced layers disagree with the "
                                  "Runner");
}

/// Runs one round through the lanes; returns the replies in request order.
std::vector<Reply> runRound(Server &S, const Menu &M,
                            const std::vector<size_t> &Round, int64_t No,
                            SpanRecorder *Rec,
                            const std::vector<Expect> *Expected,
                            std::vector<std::unique_ptr<LaneState>> *States) {
  std::vector<Reply> Out(Round.size());
  std::vector<std::string> Reqs(Round.size());
  for (size_t I = 0; I < Round.size(); ++I)
    Reqs[I] = withId(M.Keys[Round[I]].Line,
                     formatString("r%lld-%zu", static_cast<long long>(No), I));
  std::atomic<size_t> Next{0};
  std::atomic<bool> Lost{false};
  std::vector<std::thread> Threads;
  for (size_t Lane = 0; Lane < S.Lanes.size(); ++Lane)
    Threads.emplace_back([&, Lane] {
      Client &C = *S.Lanes[Lane];
      for (size_t I; (I = Next.fetch_add(1)) < Round.size();) {
        Clock::time_point T0 = Clock::now();
        if (!C.call(Reqs[I], Out[I].Line)) {
          Lost = true;
          return;
        }
        Out[I].RttMs = secondsBetween(T0, Clock::now()) * 1e3;
        if (States)
          tracedDirect(M.Keys[Round[I]], (*Expected)[Round[I]], Reqs[I],
                       Out[I].Line, Rec, *(*States)[Lane]);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  if (Lost)
    Out.clear();
  return Out;
}

} // namespace

Result perfbench::runServe(const Options &O) {
  Result Res;
  int64_t Lanes = ServeLanes;
  // The sandbox child reads its per-simulation worker count from here.
  ::setenv("TAWA_SERVE_EXEC_WORKERS", "1", 1);
  Menu M;
  std::string Err;
  if (!buildMenu(M, Err)) {
    Res.fail(Err);
    return Res;
  }

  // Set-up, several times; the last server stays up for the loop.
  std::vector<double> SetupSec;
  Server S;
  for (int Rep = 0, Reps = O.Trace ? 1 : 45; Rep < Reps; ++Rep) {
    S.stop();
    ProgramCache::shared().clear();
    Clock::time_point T0 = Clock::now();
    if (!startServer(S, M, Lanes, Err)) {
      Res.fail("server set-up: " + Err);
      return Res;
    }
    SetupSec.push_back(secondsBetween(T0, Clock::now()));
  }

  std::vector<Expect> Expected;
  {
    LayeredRunner L(nullptr, 1);
    for (const Key &K : M.Keys)
      Expected.push_back(expectFor(K, L));
  }

  SeededRng Rng(O.Seed);
  std::vector<double> PassSec, RttMs;
  std::vector<double> KeyRttSum(M.Keys.size()), KeyRttN(M.Keys.size());
  auto check = [&](const std::vector<size_t> &Round,
                   const std::vector<Reply> &Replies) {
    Res.Attempted += static_cast<int64_t>(Round.size());
    if (Replies.size() != Round.size()) {
      Res.Failed += static_cast<int64_t>(Round.size());
      Res.fail("a connection dropped mid-round");
      return;
    }
    for (size_t I = 0; I < Round.size(); ++I) {
      const Key &K = M.Keys[Round[I]];
      std::string Why;
      if (!responseMatches(K, Expected[Round[I]], Replies[I].Line, Why)) {
        ++Res.Failed;
        Res.fail(K.Name + ": " + Why);
      }
    }
  };
  auto loop = [&](double Budget, SpanRecorder *Rec,
                  std::vector<std::unique_ptr<LaneState>> *States,
                  std::vector<double> &Secs, TraceSummary *T) {
    Clock::time_point Start = Clock::now();
    while (Secs.empty() || secondsBetween(Start, Clock::now()) < Budget) {
      std::vector<size_t> Round = drawRound(M, Rng);
      Clock::time_point T0 = Clock::now();
      std::vector<Reply> Replies;
      {
        Span Pass(Rec, "pass");
        Replies = runRound(S, M, Round, static_cast<int64_t>(Secs.size()),
                           Rec, &Expected, States);
      }
      Secs.push_back(secondsBetween(T0, Clock::now()));
      check(Round, Replies);
      if (!States) {
        for (size_t I = 0; I < Replies.size(); ++I) {
          RttMs.push_back(Replies[I].RttMs);
          KeyRttSum[Round[I]] += Replies[I].RttMs;
          ++KeyRttN[Round[I]];
        }
      } else {
        LayerCounters C;
        for (auto &L : *States)
          C.merge(L->Layers.takeCounters());
        if (T->TracedPasses == 0)
          T->SetupAndFirstPass = C;
        T->Passes.merge(C);
        ++T->TracedPasses;
      }
      if (Replies.empty())
        return;
    }
  };
  loop(O.Trace ? O.Seconds / 2 : O.Seconds, nullptr, nullptr, PassSec,
       nullptr);
  ServeStats Stats = S.Svc->stats();

  if (!O.Trace) {
    S.stop();
    addHostMetrics(Res, SetupSec, PassSec, RttMs, Res.Attempted);
    std::vector<double> GemmTflops, MhaTflops;
    for (size_t I : M.Direct)
      if (M.Keys[I].F == Framework::Tawa)
        (M.Keys[I].K == Key::Kind::Gemm ? GemmTflops : MhaTflops)
            .push_back(Expected[I].Run.TFlops);
    Res.add("sim_gemm_tflops", geomean(GemmTflops), "TFLOP/s");
    Res.add("sim_mha_tflops", geomean(MhaTflops), "TFLOP/s");
    Res.add("peak_rss_mb", peakRssMb(), "MB");
    return Res;
  }

  // Traced run: each lane re-does every answered request in process —
  // parseRequest, executeRequest, render, and the layers below — checks it
  // against the server's answer, and records spans.
  SpanRecorder Rec(true);
  TraceSummary T;
  std::vector<std::unique_ptr<LaneState>> States;
  for (int64_t I = 0; I < Lanes; ++I)
    States.push_back(std::make_unique<LaneState>(&Rec));
  std::vector<double> TracedSec;
  T.PassesStart = Clock::now();
  loop(O.Seconds / 2, &Rec, &States, TracedSec, &T);
  Stats = S.Svc->stats();
  S.stop();

  DirectTimes D;
  for (auto &L : States) {
    D.ParseMs += L->Times.ParseMs;
    D.ExecuteMs += L->Times.ExecuteMs;
    D.RenderMs += L->Times.RenderMs;
    D.N += L->Times.N;
    for (const std::string &P : L->Problems)
      Res.fail(P);
  }
  double N = static_cast<double>(std::max<int64_t>(1, D.N));
  T.ServeParseMs = D.ParseMs / N;
  T.ServeExecuteMs = D.ExecuteMs / N;
  T.ServeRenderMs = D.RenderMs / N;
  // Round trip minus the work itself: queue wait plus transport, from the
  // untraced rounds' in-process requests.
  double InSum = 0, InN = 0;
  for (size_t I = 0; I < M.Keys.size(); ++I)
    if (!M.Keys[I].Sandbox) {
      InSum += KeyRttSum[I];
      InN += KeyRttN[I];
    }
  T.ServeOverheadMs = (InN > 0 ? InSum / InN : 0) - T.ServeParseMs -
                      T.ServeExecuteMs - T.ServeRenderMs;
  double SbSum = 0, SbN = 0;
  for (size_t I : M.Sandboxed) {
    size_t Twin = static_cast<size_t>(M.Keys[I].Twin);
    if (KeyRttN[I] > 0 && KeyRttN[Twin] > 0) {
      SbSum += KeyRttSum[I] - KeyRttN[I] * KeyRttSum[Twin] / KeyRttN[Twin];
      SbN += KeyRttN[I];
    }
  }
  T.ServeSandboxMs = SbN > 0 ? SbSum / SbN : 0;
  T.ServeRetries = static_cast<double>(Stats.Retries);
  T.ServeDegradeSteps = static_cast<double>(Stats.DegradeSteps);
  T.UntracedPassSec = median(PassSec);
  T.TracedPassSec = median(TracedSec);
  addLayerMetrics(Res, Rec, T);
  if (!O.TracePath.empty() && !Rec.writeChromeTrace(O.TracePath))
    Res.fail("cannot write " + O.TracePath);
  return Res;
}
