#include "preprocess/power_transformer.h"

#include "preprocess/kernels.h"
#include "util/serialize.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/stats.h"

namespace autofp {

namespace {

constexpr double kLambdaEps = 1e-8;
constexpr double kValueClamp = 1e100;

double ClampFinite(double value) {
  if (std::isnan(value)) return 0.0;
  return std::clamp(value, -kValueClamp, kValueClamp);
}

/// Golden-section maximization of f over [lo, hi].
template <typename F>
double GoldenSectionMaximize(F f, double lo, double hi, int iterations) {
  const double inv_phi = (std::sqrt(5.0) - 1.0) / 2.0;
  double a = lo, b = hi;
  double x1 = b - inv_phi * (b - a);
  double x2 = a + inv_phi * (b - a);
  double f1 = f(x1), f2 = f(x2);
  for (int i = 0; i < iterations; ++i) {
    if (f1 < f2) {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + inv_phi * (b - a);
      f2 = f(x2);
    } else {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - inv_phi * (b - a);
      f1 = f(x1);
    }
  }
  return (a + b) / 2.0;
}

/// The Yeo-Johnson transform of x, given `log` = log1p(x) when
/// `nonnegative` (x >= 0) and log1p(-x) otherwise: the one definition of
/// the transform. The logarithm does not depend on lambda, so the fit
/// computes it once per element and reuses it for every lambda it tries.
inline double YeoJohnsonFromLog(bool nonnegative, double log, double lambda) {
  // x >= 0: ((x+1)^lambda - 1) / lambda;
  // x < 0: -((1-x)^(2-lambda) - 1) / (2-lambda); both via expm1 for
  // stability, with the log branch at power 0.
  const double power = nonnegative ? lambda : 2.0 - lambda;
  if (std::abs(power) < kLambdaEps) return nonnegative ? log : -log;
  const double scaled = std::expm1(power * log) / power;
  return ClampFinite(nonnegative ? scaled : -scaled);
}

/// Fills `logs` with each element's lambda-independent logarithm, exactly
/// the argument YeoJohnson passes to the transform (log1p(-0.0) is -0.0,
/// so this is not log1p(|x|)), and returns the Jacobian sum of
/// sign(x) * log(|x|+1) over the column.
double ComputeLogs(const std::vector<double>& column,
                   std::vector<double>& logs) {
  logs.resize(column.size());
  double jacobian = 0.0;
  for (size_t i = 0; i < column.size(); ++i) {
    const double x = column[i];
    logs[i] = x >= 0.0 ? std::log1p(x) : std::log1p(-x);
    jacobian += std::copysign(logs[i], x);
  }
  return jacobian;
}

/// Log-likelihood of lambda given the column's precomputed logarithms and
/// Jacobian sum (see ComputeLogs).
double LogLikelihoodFromLogs(const std::vector<double>& column,
                             const std::vector<double>& logs, double lambda,
                             double jacobian) {
  const double n = static_cast<double>(column.size());
  if (column.empty()) return 0.0;
  // Single-pass variance of the transformed column.
  double sum = 0.0, sum_sq = 0.0;
  for (size_t i = 0; i < column.size(); ++i) {
    double t = YeoJohnsonFromLog(column[i] >= 0.0, logs[i], lambda);
    sum += t;
    sum_sq += t * t;
  }
  double variance = sum_sq / n - (sum / n) * (sum / n);
  if (!(variance > 0.0) || !std::isfinite(variance)) {
    return -std::numeric_limits<double>::infinity();
  }
  return -0.5 * n * std::log(variance) + (lambda - 1.0) * jacobian;
}

}  // namespace

double PowerTransformer::YeoJohnson(double x, double lambda) {
  const bool nonnegative = x >= 0.0;
  return YeoJohnsonFromLog(
      nonnegative, nonnegative ? std::log1p(x) : std::log1p(-x), lambda);
}

double PowerTransformer::LogLikelihood(const std::vector<double>& column,
                                       double lambda) {
  std::vector<double> logs;
  const double jacobian = ComputeLogs(column, logs);
  return LogLikelihoodFromLogs(column, logs, lambda, jacobian);
}

void PowerTransformer::Fit(const Matrix& data) {
  AUTOFP_CHECK_GT(data.rows(), 0u);
  const size_t cols = data.cols();
  lambdas_.assign(cols, 1.0);
  means_.assign(cols, 0.0);
  stddevs_.assign(cols, 1.0);
  std::vector<double> logs;
  for (size_t c = 0; c < cols; ++c) {
    std::vector<double> column = data.Column(c);
    // Constant columns: identity lambda, no standardization scaling.
    double variance = Variance(column);
    if (!(variance > 0.0)) {
      lambdas_[c] = 1.0;
      means_[c] = config_.standardize ? YeoJohnson(column[0], 1.0) : 0.0;
      stddevs_[c] = 1.0;
      continue;
    }
    const double jacobian = ComputeLogs(column, logs);
    auto objective = [&column, &logs, jacobian](double lambda) {
      return LogLikelihoodFromLogs(column, logs, lambda, jacobian);
    };
    lambdas_[c] = GoldenSectionMaximize(objective, -4.0, 6.0, 30);
    if (config_.standardize) {
      // The transformed column reuses `column`'s storage.
      for (size_t i = 0; i < column.size(); ++i) {
        column[i] = YeoJohnsonFromLog(column[i] >= 0.0, logs[i], lambdas_[c]);
      }
      MeanStd stats = ComputeMeanStd(column);
      means_[c] = stats.mean;
      stddevs_[c] = stats.stddev > 0.0 ? stats.stddev : 1.0;
    }
  }
  fitted_ = true;
}

void PowerTransformer::TransformInPlace(Matrix& data) const {
  AUTOFP_CHECK(fitted_) << "PowerTransformer::Transform before Fit";
  AUTOFP_CHECK_EQ(data.cols(), lambdas_.size());
  kernels::PowerTransformColumns(data, lambdas_, means_, stddevs_,
                                 config_.standardize);
}

void PowerTransformer::SaveState(std::ostream& out) const {
  AUTOFP_CHECK(fitted_) << "SaveState before Fit";
  WriteVec(out, lambdas_);
  WriteVec(out, means_);
  WriteVec(out, stddevs_);
}

Status PowerTransformer::LoadState(std::istream& in) {
  // Fit writes one lambda, mean and stddev per column, and the transform
  // kernel reads all three for every column whether or not it
  // standardizes, so the sizes must agree in both modes.
  std::vector<double> lambdas, means, stddevs;
  if (!ReadVec(in, &lambdas) || !ReadVec(in, &means) ||
      !ReadVec(in, &stddevs) || means.size() != lambdas.size() ||
      stddevs.size() != lambdas.size()) {
    return Status::InvalidArgument("PowerTransformer: malformed state blob");
  }
  lambdas_ = std::move(lambdas);
  means_ = std::move(means);
  stddevs_ = std::move(stddevs);
  fitted_ = true;
  return Status::OK();
}

}  // namespace autofp
