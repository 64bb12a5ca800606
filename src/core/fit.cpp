#include "core/fit.hpp"

#include <algorithm>
#include <cmath>

#include "core/ic_model.hpp"
#include "core/metrics.hpp"
#include "linalg/lsq.hpp"
#include "linalg/simplex.hpp"

namespace ictm::core {

namespace {

// A-step: given (f, P), each bin's activities solve an independent
// NNLS problem x(t) ~ Phi * A(t), posed on the closed-form Gram
// Phi^T Phi and right-hand side Phi^T x(t).
void UpdateActivities(const traffic::TrafficMatrixSeries& series, double f,
                      const linalg::Vector& preference,
                      linalg::Matrix& activitySeries) {
  const std::size_t n = series.nodeCount();
  const StableFPKernel kernel(f, preference);
  const linalg::Matrix gram = kernel.Gram();

  for (std::size_t t = 0; t < series.binCount(); ++t) {
    const linalg::Vector a = linalg::SolveGramNnls(
        gram, kernel.TransposeApply(series.binData(t)));
    for (std::size_t i = 0; i < n; ++i) activitySeries(i, t) = a[i];
  }
}

// P-step: accumulate the Gram system over all bins (weight 1/||X(t)||^2
// per the relative-error objective), solve NNLS, then renormalise P to
// the simplex and rescale A to keep the product unchanged.
void UpdatePreference(const traffic::TrafficMatrixSeries& series, double f,
                      linalg::Matrix& activitySeries,
                      linalg::Vector& preference,
                      const std::vector<double>& binWeights) {
  const std::size_t n = series.nodeCount();
  const double g = 1.0 - f;
  linalg::Matrix gram(n, n, 0.0);
  linalg::Vector rhs(n, 0.0);

  for (std::size_t t = 0; t < series.binCount(); ++t) {
    const double w = binWeights[t];
    for (std::size_t i = 0; i < n; ++i) {
      const double fai = f * activitySeries(i, t);
      for (std::size_t j = 0; j < n; ++j) {
        const double gaj = g * activitySeries(j, t);
        const double x = series(t, i, j);
        if (i == j) {
          // Row coefficient collapses to (f+g) * A_i = A_i on p_i.
          const double c = activitySeries(i, t);
          gram(i, i) += w * c * c;
          rhs[i] += w * c * x;
        } else {
          // X_ij ~ (f A_i) p_j + (g A_j) p_i.
          gram(j, j) += w * fai * fai;
          gram(i, i) += w * gaj * gaj;
          gram(i, j) += w * fai * gaj;
          gram(j, i) += w * fai * gaj;
          rhs[j] += w * fai * x;
          rhs[i] += w * gaj * x;
        }
      }
    }
  }

  linalg::Vector p = linalg::SolveGramNnls(gram, rhs);
  const double sum = linalg::Sum(p);
  if (sum <= 0.0) return;  // keep the previous preference vector
  // Scale invariance: P -> P/sum, A -> A*sum leaves the model output
  // unchanged while restoring the simplex constraint.
  for (double& pi : p) pi /= sum;
  preference = std::move(p);
  activitySeries *= sum;
}

// f-step: the model is affine in f; the weighted 1-D least-squares
// minimiser has a closed form, clamped into (fMin, fMax).
double UpdateF(const traffic::TrafficMatrixSeries& series,
               const linalg::Matrix& activitySeries,
               const linalg::Vector& preference,
               const std::vector<double>& binWeights, double fMin,
               double fMax, double fallback) {
  const std::size_t n = series.nodeCount();
  double num = 0.0;
  double den = 0.0;
  for (std::size_t t = 0; t < series.binCount(); ++t) {
    const double w = binWeights[t];
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        // X_ij = f*(A_i Pn_j - A_j Pn_i) + A_j Pn_i.
        const double slope = activitySeries(i, t) * preference[j] -
                             activitySeries(j, t) * preference[i];
        const double offset = activitySeries(j, t) * preference[i];
        num += w * (series(t, i, j) - offset) * slope;
        den += w * slope * slope;
      }
    }
  }
  if (den <= 0.0) return fallback;
  return std::clamp(num / den, fMin, fMax);
}

std::vector<double> ComputeBinWeights(
    const traffic::TrafficMatrixSeries& series) {
  std::vector<double> w(series.binCount());
  for (std::size_t t = 0; t < series.binCount(); ++t) {
    const double norm = series.bin(t).frobeniusNorm();
    ICTM_REQUIRE(norm > 0.0,
                 "cannot fit a series containing all-zero bins");
    w[t] = 1.0 / (norm * norm);
  }
  return w;
}

}  // namespace

double StableFPFit::objective() const {
  ICTM_REQUIRE(!objectiveHistory.empty(), "fit has not run");
  return objectiveHistory.back();
}

namespace {

// A single alternating-least-squares run from a fixed starting f.
// When `initialPreference` is non-null it seeds the P block (warm
// start); otherwise the marginal heuristic is used.
StableFPFit RunAls(const traffic::TrafficMatrixSeries& series,
                   const FitOptions& options,
                   const linalg::Vector* initialPreference);

}  // namespace

StableFPFit FitStableFP(const traffic::TrafficMatrixSeries& series,
                        const FitOptions& options) {
  if (!options.fitF || options.gridPoints == 0) {
    return RunAls(series, options, nullptr);
  }
  // Stage 1: coarse scan over f on a subsampled series.  Alternating
  // solves at a fixed f can stall in (A, P) local optima, so each grid
  // point is attempted both cold (marginal-heuristic init) and warm
  // (continuation from the previous grid point's preference vector),
  // keeping whichever converges lower.
  const traffic::TrafficMatrixSeries coarse =
      options.gridStride > 1 && series.binCount() > options.gridStride
          ? series.downsample(options.gridStride)
          : series;
  double bestF = options.initialF;
  double bestObjective = -1.0;
  linalg::Vector bestPreference;
  linalg::Vector carry;  // continuation state along the grid
  for (std::size_t k = 0; k < options.gridPoints; ++k) {
    const double frac = options.gridPoints == 1
                            ? 0.5
                            : static_cast<double>(k) /
                                  static_cast<double>(options.gridPoints - 1);
    const double f = options.fMin + frac * (options.fMax - options.fMin);
    FitOptions probe = options;
    probe.fitF = false;
    probe.initialF = f;
    probe.maxSweeps = options.gridSweeps;
    StableFPFit fit = RunAls(coarse, probe, nullptr);
    if (!carry.empty()) {
      StableFPFit warm = RunAls(coarse, probe, &carry);
      if (warm.objective() < fit.objective()) fit = std::move(warm);
    }
    carry = fit.preference;
    if (bestObjective < 0.0 || fit.objective() < bestObjective) {
      bestObjective = fit.objective();
      bestF = f;
      bestPreference = fit.preference;
    }
  }
  // Stage 2: polish from the winning (f, P) with the full solver.
  FitOptions polish = options;
  polish.initialF = bestF;
  return RunAls(series, polish,
                bestPreference.empty() ? nullptr : &bestPreference);
}

namespace {

StableFPFit RunAls(const traffic::TrafficMatrixSeries& series,
                   const FitOptions& options,
                   const linalg::Vector* initialPreference) {
  ICTM_REQUIRE(options.maxSweeps > 0, "maxSweeps must be positive");
  ICTM_REQUIRE(options.fMin > 0.0 && options.fMax < 1.0 &&
                   options.fMin < options.fMax,
               "invalid f clamp range");
  const std::size_t n = series.nodeCount();
  const std::size_t bins = series.binCount();
  const std::vector<double> weights = ComputeBinWeights(series);

  StableFPFit fit;
  fit.f = std::clamp(options.initialF, options.fMin, options.fMax);
  // Initial preference: warm start when provided, otherwise the mean
  // normalised egress share — a reasonable proxy since responders
  // attract most (reverse) traffic when f < 1/2.
  if (initialPreference != nullptr) {
    ICTM_REQUIRE(initialPreference->size() == n,
                 "warm-start preference size mismatch");
    fit.preference = linalg::NormalizeNonNegative(*initialPreference);
  } else {
    fit.preference =
        linalg::NormalizeNonNegative(series.meanNormalizedEgress());
  }
  // Initial activities: per-bin ingress counts (refined immediately by
  // the first A-step).
  fit.activitySeries = linalg::Matrix(n, bins, 0.0);
  for (std::size_t t = 0; t < bins; ++t) {
    const linalg::Vector in = series.ingress(t);
    for (std::size_t i = 0; i < n; ++i) fit.activitySeries(i, t) = in[i];
  }

  double previousObjective = -1.0;
  for (std::size_t sweep = 0; sweep < options.maxSweeps; ++sweep) {
    UpdateActivities(series, fit.f, fit.preference, fit.activitySeries);
    UpdatePreference(series, fit.f, fit.activitySeries, fit.preference,
                     weights);
    if (options.fitF) {
      fit.f = UpdateF(series, fit.activitySeries, fit.preference, weights,
                      options.fMin, options.fMax, fit.f);
    }

    const double objective = RelL2Objective(
        series, ReconstructSeries(fit, series.binSeconds()));
    fit.objectiveHistory.push_back(objective);
    fit.sweeps = sweep + 1;
    if (previousObjective >= 0.0 &&
        previousObjective - objective <
            options.relativeTolerance * std::max(previousObjective, 1e-30)) {
      fit.converged = true;
      break;
    }
    previousObjective = objective;
  }
  return fit;
}

}  // namespace

TimeVaryingFit FitTimeVarying(const traffic::TrafficMatrixSeries& series,
                              const FitOptions& options) {
  TimeVaryingFit out;
  const std::size_t n = series.nodeCount();
  out.activitySeries = linalg::Matrix(n, series.binCount(), 0.0);
  out.f.reserve(series.binCount());
  out.preference.reserve(series.binCount());
  for (std::size_t t = 0; t < series.binCount(); ++t) {
    const StableFPFit binFit = FitStableFP(series.slice(t, 1), options);
    out.f.push_back(binFit.f);
    out.preference.push_back(binFit.preference);
    for (std::size_t i = 0; i < n; ++i)
      out.activitySeries(i, t) = binFit.activitySeries(i, 0);
    out.objective += binFit.objective();
  }
  return out;
}

traffic::TrafficMatrixSeries ReconstructSeries(const StableFPFit& fit,
                                               double binSeconds) {
  return EvaluateStableFP(fit.f, fit.activitySeries, fit.preference,
                          binSeconds);
}

}  // namespace ictm::core
