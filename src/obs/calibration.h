#pragma once

namespace cmmfo::obs {

/// Two-sided z threshold for a central 95% normal interval:
/// Phi(1.959963984540054) - Phi(-1.959963984540054) = 0.95.
inline constexpr double kZ95 = 1.959963984540054;

/// Standardized residual z = (y - mu) / sigma of an observation against the
/// predict-before-observe posterior N(mu, var). Nonpositive variance is
/// clamped to the smallest normal double so a saturated GP posterior cannot
/// produce inf/NaN diagnostics.
double standardizedResidual(double y, double mu, double var);

/// Negative log predictive density of y under N(mu, var):
/// 0.5 ln(2 pi var) + (y - mu)^2 / (2 var).
double nlpd(double y, double mu, double var);

/// Whether y falls inside the central 95% predictive interval
/// [mu - kZ95 sigma, mu + kZ95 sigma] (boundary counts as inside).
bool in95(double y, double mu, double var);

/// Running calibration aggregate for one (fidelity, objective) cell. Small
/// and exactly serializable (%.17g per field) so it survives the checkpoint
/// journal bit-for-bit.
struct CalibrationAgg {
  long long n = 0;
  long long n_in95 = 0;
  double nlpd_sum = 0.0;
  double resid_sum = 0.0;
  double resid_sq_sum = 0.0;

  void add(double y, double mu, double var);
  /// Empirical 95%-interval coverage; NaN while empty. Calibrated models
  /// hover near 0.95.
  double coverage() const;
  /// Mean negative log predictive density; NaN while empty.
  double meanNlpd() const;
  /// Mean standardized residual; NaN while empty. Calibrated: near 0.
  double meanResid() const;
  /// Population stddev of standardized residuals; NaN while empty.
  /// Calibrated: near 1 (<< 1 under-confident, >> 1 over-confident).
  double residStddev() const;

  bool operator==(const CalibrationAgg&) const = default;
};

}  // namespace cmmfo::obs
