//===- Spans.cpp - In-memory span recorder --------------------------------===//

#include "Spans.h"

#include "support/Json.h"

#include <cstdio>
#include <set>

using namespace perfbench;

const char *perfbench::internName(const std::string &Name) {
  static std::mutex Mu;
  static std::set<std::string> Names; // Node-based: c_str() stays valid.
  std::lock_guard<std::mutex> L(Mu);
  return Names.insert(Name).first->c_str();
}

SpanRecorder::SpanRecorder(bool Enabled)
    : Enabled(Enabled), Origin(Clock::now()) {}

SpanRecorder::ThreadBuf &SpanRecorder::local() {
  // One recorder lives for the whole run; a thread's cached buffer is
  // re-registered only if it belongs to another recorder.
  thread_local const SpanRecorder *Owner = nullptr;
  thread_local ThreadBuf *Buf = nullptr;
  if (Owner != this) {
    std::lock_guard<std::mutex> L(Mu);
    Buffers.push_back(std::make_unique<ThreadBuf>());
    Buffers.back()->Tid = static_cast<int>(Buffers.size());
    Buf = Buffers.back().get();
    Owner = this;
  }
  return *Buf;
}

int64_t SpanRecorder::begin(const char *Name) {
  if (!Enabled)
    return -1;
  ThreadBuf &B = local();
  int64_t Parent = B.Open.empty() ? -1 : B.Open.back();
  B.Spans.push_back({Name, Clock::now(), Clock::time_point(), Parent});
  int64_t H = static_cast<int64_t>(B.Spans.size()) - 1;
  B.Open.push_back(H);
  return H;
}

void SpanRecorder::end(int64_t Handle) {
  if (!Enabled || Handle < 0)
    return;
  ThreadBuf &B = local();
  B.Spans[Handle].End = Clock::now();
  if (!B.Open.empty() && B.Open.back() == Handle)
    B.Open.pop_back();
}

void SpanRecorder::addClosed(const char *Name, Clock::time_point Start,
                             Clock::time_point End) {
  if (!Enabled)
    return;
  ThreadBuf &B = local();
  int64_t Parent = B.Open.empty() ? -1 : B.Open.back();
  B.Spans.push_back({Name, Start, End, Parent});
}

std::map<std::string, SpanRecorder::Totals>
SpanRecorder::totals(Clock::time_point Since) const {
  std::map<std::string, Totals> Out;
  std::lock_guard<std::mutex> L(Mu);
  for (const auto &B : Buffers) {
    std::vector<double> ChildMs(B->Spans.size(), 0.0);
    for (const Span &S : B->Spans)
      if (S.Parent >= 0)
        ChildMs[S.Parent] += secondsBetween(S.Start, S.End) * 1e3;
    for (size_t I = 0; I < B->Spans.size(); ++I) {
      const Span &S = B->Spans[I];
      if (S.Start < Since)
        continue;
      double Ms = secondsBetween(S.Start, S.End) * 1e3;
      Totals &T = Out[S.Name];
      ++T.Count;
      T.TotalMs += Ms;
      T.SelfMs += Ms - ChildMs[I];
    }
  }
  return Out;
}

bool SpanRecorder::writeChromeTrace(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", F);
  bool First = true;
  std::lock_guard<std::mutex> L(Mu);
  for (const auto &B : Buffers)
    for (size_t I = 0; I < B->Spans.size(); ++I) {
      const Span &S = B->Spans[I];
      double Ts = secondsBetween(Origin, S.Start) * 1e6;
      double Dur = secondsBetween(S.Start, S.End) * 1e6;
      std::fprintf(F,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":\"%d.%zu\","
                   "\"parent\":\"%s\"}}",
                   First ? "" : ",\n",
                   tawa::JsonWriter::escape(S.Name).c_str(), B->Tid, Ts, Dur,
                   B->Tid, I,
                   S.Parent < 0 ? ""
                                : (std::to_string(B->Tid) + "." +
                                   std::to_string(S.Parent))
                                      .c_str());
      First = false;
    }
  std::fputs("\n]}\n", F);
  return std::fclose(F) == 0;
}
