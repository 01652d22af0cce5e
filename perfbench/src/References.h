//===- References.h - Correctness references independent of the program ---===//
//
// Double-precision GEMM and softmax attention written here, not taken from
// sim::referenceGemm / referenceAttention, plus an elementwise error bound
// derived from the rounding steps the kernels perform (README.md has the
// derivation). A functional output passes when every element lies within
// its bound.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REFERENCES_H
#define PERFBENCH_REFERENCES_H

#include "Layers.h"

#include <string>
#include <vector>

namespace perfbench {

/// The exact result (to double precision) of one functional run and the
/// bound each output element must meet.
struct Expected {
  std::vector<double> Value;
  std::vector<double> Bound;
  /// True when the kernel stores its output rounded to f16 (all families
  /// but split-K, which accumulates raw f32 partial sums).
  bool F16Output = true;
};

/// Builds the expectation from the run's inputs (Io.In) and shape.
Expected expectFor(const FunctionalIo &Io);

struct OutputCheck {
  int64_t Elements = 0;
  int64_t Violations = 0; ///< Elements outside their bound.
  double WorstRatio = 0;  ///< max |out - exact| / bound.
  /// RunResult::MaxRelError's definition (max |out - ref| / max(1,|ref|),
  /// ref rounded to f16 where the kernel rounds) against this reference.
  double MaxRelError = 0;
  bool ok() const { return Violations == 0; }
};

OutputCheck checkOutput(const Expected &E, const tawa::sim::TensorData &Out);

/// Largest difference between two MaxRelError readings that still counts
/// as agreement: the references round a double to f16 on different paths
/// (the program through f32), which can move one element by one f16 ulp.
constexpr double MaxRelAgreement = 1.0 / 1024.0;

} // namespace perfbench

#endif // PERFBENCH_REFERENCES_H
