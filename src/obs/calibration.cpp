#include "obs/calibration.h"

#include <cmath>
#include <limits>

namespace cmmfo::obs {

namespace {

double safeVar(double var) {
  return var > 0.0 ? var : std::numeric_limits<double>::min();
}

constexpr double kLn2Pi = 1.8378770664093453;  // ln(2 pi)

}  // namespace

double standardizedResidual(double y, double mu, double var) {
  return (y - mu) / std::sqrt(safeVar(var));
}

double nlpd(double y, double mu, double var) {
  const double v = safeVar(var);
  const double d = y - mu;
  return 0.5 * (kLn2Pi + std::log(v)) + d * d / (2.0 * v);
}

bool in95(double y, double mu, double var) {
  return std::fabs(standardizedResidual(y, mu, var)) <= kZ95;
}

void CalibrationAgg::add(double y, double mu, double var) {
  const double z = standardizedResidual(y, mu, var);
  ++n;
  if (in95(y, mu, var)) ++n_in95;
  nlpd_sum += nlpd(y, mu, var);
  resid_sum += z;
  resid_sq_sum += z * z;
}

double CalibrationAgg::coverage() const {
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  return static_cast<double>(n_in95) / static_cast<double>(n);
}

double CalibrationAgg::meanNlpd() const {
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  return nlpd_sum / static_cast<double>(n);
}

double CalibrationAgg::meanResid() const {
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  return resid_sum / static_cast<double>(n);
}

double CalibrationAgg::residStddev() const {
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  const double mean = resid_sum / static_cast<double>(n);
  const double var = resid_sq_sum / static_cast<double>(n) - mean * mean;
  return std::sqrt(var > 0.0 ? var : 0.0);
}

}  // namespace cmmfo::obs
