//===- Spans.h - In-memory span recorder for the traced benchmark run -----===//
//
// The traced run records one span per layer boundary it crosses: a name, a
// start, an end and a parent (the innermost span open on the same thread
// when it began). Spans stay in per-thread buffers while the run executes
// and are written out once, at the end, as Chrome trace-event JSON that
// Perfetto opens. A span's self time is its duration minus the time its
// direct children cover; children of one span never overlap because each
// thread's spans nest strictly.
//
// Disabled recorders (the untraced runs that produce every end-to-end
// metric) cost one branch per span.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

class SpanRecorder {
public:
  explicit SpanRecorder(bool Enabled);

  bool enabled() const { return Enabled; }

  /// Opens a span on the calling thread; returns its handle (-1 when
  /// disabled). Names must outlive the recorder (string literals).
  int64_t begin(const char *Name);
  void end(int64_t Handle);
  /// Records an already-measured child of the innermost open span, e.g.
  /// the per-pass times PassManager reports after the fact.
  void addClosed(const char *Name, Clock::time_point Start,
                 Clock::time_point End);

  struct Totals {
    int64_t Count = 0;
    double TotalMs = 0;
    double SelfMs = 0;
  };
  /// Per-name count, total and self time over every thread. Only spans
  /// that began at or after \p Since are counted.
  std::map<std::string, Totals> totals(Clock::time_point Since) const;

  /// Writes every span as Chrome trace-event JSON ("X" complete events,
  /// args carry the span id and its parent's id). Returns false on I/O
  /// failure.
  bool writeChromeTrace(const std::string &Path) const;

private:
  struct Span {
    const char *Name;
    Clock::time_point Start, End;
    int64_t Parent; ///< Index in the same thread buffer, -1 for roots.
  };
  struct ThreadBuf {
    int Tid = 0;
    std::vector<Span> Spans;
    std::vector<int64_t> Open; ///< Stack of open span indices.
  };
  ThreadBuf &local();

  bool Enabled;
  Clock::time_point Origin;
  mutable std::mutex Mu; ///< Guards Buffers (registration, not recording).
  std::vector<std::unique_ptr<ThreadBuf>> Buffers;
};

/// A stable C string equal to \p Name, for span names built at run time.
const char *internName(const std::string &Name);

/// RAII span; a no-op on a null or disabled recorder.
class Span {
public:
  Span(SpanRecorder *R, const char *Name)
      : R(R && R->enabled() ? R : nullptr), H(this->R ? R->begin(Name) : -1) {}
  ~Span() {
    if (R)
      R->end(H);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  SpanRecorder *R;
  int64_t H;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
