//===- References.cpp - Correctness references independent of the program -===//
//
// The bounds follow README.md "Error bound": inputs are already rounded to
// the kernel's input precision, so every product of two inputs is exact in
// f32; what remains is f32 accumulation (gamma_n = n u / (1 - n u) with
// u = 2^-24, valid for any summation order), the f16 store, and for
// attention the score, exponent and P-rounding steps.
//
//===----------------------------------------------------------------------===//

#include "References.h"

#include <algorithm>
#include <cmath>

using namespace perfbench;
using namespace tawa;
using tawa::sim::TensorData;

namespace {

constexpr double U32 = 0x1p-24;   ///< f32 unit roundoff.
constexpr double U16 = 0x1p-11;   ///< f16 unit roundoff.
constexpr double Eta16 = 0x1p-25; ///< Half the f16 subnormal spacing.
constexpr double U64 = 0x1p-53;   ///< The reference's own unit roundoff.
constexpr double Log2E = 1.4426950408889634;

double gamma32(double N) { return N * U32 / (1.0 - N * U32); }

/// Rounds a double to the nearest IEEE binary16 value (ties to even).
double roundToHalf(double X) {
  if (!std::isfinite(X) || X == 0)
    return X;
  int Exp = 0;
  std::frexp(X, &Exp); // |X| = f * 2^Exp, f in [0.5, 1).
  // 11 significant bits; below the normal range the spacing is 2^-24.
  double Quantum = std::ldexp(1.0, std::max(Exp - 11, -24));
  double R = std::nearbyint(X / Quantum) * Quantum;
  return std::fabs(R) > 65504.0 ? std::copysign(INFINITY, X) : R;
}

/// Unit roundoff and half the subnormal spacing of the kernel's input
/// format: binary16, or FP8 E4M3 (3 mantissa bits, subnormal step 2^-9).
double unitIn(Precision P) { return P == Precision::FP16 ? U16 : 0x1p-4; }
double etaIn(Precision P) { return P == Precision::FP16 ? Eta16 : 0x1p-10; }

/// C = A B^T for one (M x K) by (N x K) plane, appending value and bound.
void gemmPlane(const float *A, const float *B, int64_t M, int64_t N,
               int64_t K, bool F16Output, Expected &E) {
  double G = F16Output ? gamma32(static_cast<double>(K))
                       : gamma32(2.0 * static_cast<double>(K));
  for (int64_t I = 0; I < M; ++I) {
    const float *Ai = A + I * K;
    for (int64_t J = 0; J < N; ++J) {
      const float *Bj = B + J * K;
      double Sum = 0, Abs = 0;
      for (int64_t P = 0; P < K; ++P) {
        double T = static_cast<double>(Ai[P]) * static_cast<double>(Bj[P]);
        Sum += T;
        Abs += std::fabs(T);
      }
      double Own = 2.0 * static_cast<double>(K) * U64 * Abs;
      double Bound = F16Output ? U16 * std::fabs(Sum) + (1 + U16) * G * Abs +
                                     Eta16 + Own
                               : G * Abs + Own;
      E.Value.push_back(Sum);
      E.Bound.push_back(Bound);
    }
  }
}

/// softmax(Q K^T / sqrt(D)) V for one (L x D) head, appending value and
/// bound per output element.
void attentionHead(const float *Q, const float *K, const float *V, int64_t L,
                   int64_t D, bool Causal, Precision Prec, Expected &E) {
  double Scale = 1.0 / std::sqrt(static_cast<double>(D));
  double Acc = 2.0 * gamma32(3.0 * static_cast<double>(L));
  std::vector<double> S(L), AbsDot(L), W(L);
  for (int64_t I = 0; I < L; ++I) {
    int64_t Cols = Causal ? I + 1 : L;
    double M = -INFINITY, MaxAbsDot = 0, MaxAbsS = 0;
    for (int64_t J = 0; J < Cols; ++J) {
      double Dot = 0, Abs = 0;
      for (int64_t P = 0; P < D; ++P) {
        double T = static_cast<double>(Q[I * D + P]) *
                   static_cast<double>(K[J * D + P]);
        Dot += T;
        Abs += std::fabs(T);
      }
      S[J] = Dot * Scale;
      M = std::max(M, S[J]);
      MaxAbsDot = std::max(MaxAbsDot, Abs);
      MaxAbsS = std::max(MaxAbsS, std::fabs(S[J]));
    }
    double Sum = 0, Range = 0;
    for (int64_t J = 0; J < Cols; ++J) {
      W[J] = std::exp(S[J] - M);
      Sum += W[J];
      Range = std::max(Range, M - S[J]);
    }
    // Score error (f32 dot + scale multiply), then the exponent argument
    // (subtract, log2(e) multiply, exp2): relative error of each weight.
    double Delta = Scale * gamma32(static_cast<double>(D)) * MaxAbsDot +
                   2 * U32 * MaxAbsS;
    double Eps = 2 * Delta + 8 * U32 * (1 + Range * Log2E);
    double Rel = 2 * Eps + unitIn(Prec) + Acc + U32;
    for (int64_t P = 0; P < D; ++P) {
      double O = 0, AbsW = 0, AbsV = 0;
      for (int64_t J = 0; J < Cols; ++J) {
        double Vj = static_cast<double>(V[J * D + P]);
        O += W[J] * Vj;
        AbsW += W[J] * std::fabs(Vj);
        AbsV += std::fabs(Vj);
      }
      O /= Sum;
      AbsW /= Sum;
      AbsV /= Sum;
      E.Value.push_back(O);
      E.Bound.push_back(U16 * std::fabs(O) +
                        2 * (Rel * AbsW + etaIn(Prec) * AbsV) + Eta16);
    }
  }
}

} // namespace

Expected perfbench::expectFor(const FunctionalIo &Io) {
  Expected E;
  using Fam = FunctionalIo::Family;
  if (Io.Fam == Fam::Attention) {
    const TensorData &Q = *Io.In[0], &K = *Io.In[1], &V = *Io.In[2];
    int64_t BH = Q.getDim(0), L = Q.getDim(1), D = Q.getDim(2);
    for (int64_t H = 0; H < BH; ++H)
      attentionHead(Q.data() + H * L * D, K.data() + H * L * D,
                    V.data() + H * L * D, L, D, Io.Causal, Io.Prec, E);
    return E;
  }
  const TensorData &A = *Io.In[0], &B = *Io.In[1];
  E.F16Output = Io.Fam != Fam::SplitK;
  if (Io.Fam == Fam::Batched) {
    int64_t Planes = A.getDim(0), M = A.getDim(1), K = A.getDim(2),
            N = B.getDim(1);
    for (int64_t Z = 0; Z < Planes; ++Z)
      gemmPlane(A.data() + Z * M * K, B.data() + Z * N * K, M, N, K,
                E.F16Output, E);
  } else if (Io.Fam == Fam::Grouped) {
    int64_t K = A.getDim(1), N = B.getDim(1), Row = 0;
    for (size_t Ex = 0; Ex < Io.GroupMs.size(); ++Ex) {
      gemmPlane(A.data() + Row * K, B.data() + Ex * N * K, Io.GroupMs[Ex], N,
                K, E.F16Output, E);
      Row += Io.GroupMs[Ex];
    }
  } else {
    gemmPlane(A.data(), B.data(), A.getDim(0), B.getDim(0), A.getDim(1),
              E.F16Output, E);
  }
  return E;
}

OutputCheck perfbench::checkOutput(const Expected &E, const TensorData &Out) {
  OutputCheck C;
  C.Elements = static_cast<int64_t>(E.Value.size());
  if (Out.getNumElements() != C.Elements) {
    C.Violations = C.Elements > 0 ? C.Elements : 1;
    C.WorstRatio = INFINITY;
    C.MaxRelError = INFINITY;
    return C;
  }
  for (int64_t I = 0; I < C.Elements; ++I) {
    double Got = static_cast<double>(Out.at(I));
    double Err = std::fabs(Got - E.Value[I]);
    double Ratio = Err / E.Bound[I];
    if (!(Ratio <= 1.0)) // NaN counts as a violation.
      ++C.Violations;
    C.WorstRatio = std::max(C.WorstRatio, std::isnan(Ratio) ? INFINITY
                                                            : Ratio);
    double Ref = E.F16Output ? roundToHalf(E.Value[I]) : E.Value[I];
    double Rel = std::fabs(Got - Ref) / std::max(1.0, std::fabs(Ref));
    C.MaxRelError = std::max(C.MaxRelError, std::isnan(Rel) ? INFINITY : Rel);
  }
  return C;
}
