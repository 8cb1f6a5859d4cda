#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace bml {

namespace {

constexpr double kUnset = std::numeric_limits<double>::quiet_NaN();

}  // namespace

PoissonMemo::Params PoissonMemo::compute(double m) {
  const double pi_4 = 0.7853981633974483096156608458198757L;
  Params p{};
  p.lfm = std::lgamma(m + 1);
  p.sm = std::sqrt(m);
  const double dx = std::sqrt(2 * m * std::log(32 * m / pi_4));
  p.d = std::round(std::max<double>(6.0, std::min(m, dx)));
  const double cx = 2 * m + p.d;
  p.scx = std::sqrt(cx / 2);
  p.inv_cx = 1 / cx;
  p.c2b = std::sqrt(pi_4 * cx) * std::exp(p.inv_cx);
  p.cb = 2 * cx * std::exp(-p.d * p.inv_cx * (1 + p.d / 2)) / p.d;
  return p;
}

const PoissonMemo::Params& PoissonMemo::params(double m) {
  const auto i = static_cast<std::size_t>(m);
  if (i >= params_.size())
    params_.resize(i + 1, Params{kUnset, 0, 0, 0, 0, 0, 0});
  Params& p = params_[i];
  if (std::isnan(p.lfm)) {
    p = compute(m);
    ++fills_;
  }
  return p;
}

double PoissonMemo::lgamma(double n) {
  if (n >= static_cast<double>(kBound)) return std::lgamma(n);
  const auto i = static_cast<std::size_t>(n);
  if (i >= lgamma_.size()) lgamma_.resize(i + 1, kUnset);
  double& v = lgamma_[i];
  if (std::isnan(v)) v = std::lgamma(n);
  return v;
}

// Mirrors libstdc++ 12's poisson_distribution<>::operator() statement by
// statement, constants included, so that each draw performs the same
// floating-point operations on the same engine output.
std::int64_t Rng::poisson_draw(double mean, PoissonMemo* memo) {
  if (mean <= 0.0) return 0;
  const auto uniform = [this] {
    return std::generate_canonical<double,
                                   std::numeric_limits<double>::digits>(
        engine_);
  };

  if (!(mean >= 12)) {  // NaN too, as in libstdc++
    const double threshold = std::exp(-mean);
    std::int64_t x = 0;
    double prod = 1.0;
    do {
      prod *= uniform();
      x += 1;
    } while (prod > threshold);
    return x - 1;
  }

  const double m = std::floor(mean);
  const PoissonMemo::Params p =
      memo != nullptr && m < static_cast<double>(PoissonMemo::kBound)
          ? memo->params(m)
          : PoissonMemo::compute(m);
  const auto lgamma = [memo](double n) {
    return memo != nullptr ? memo->lgamma(n) : std::lgamma(n);
  };
  const double lm = std::log(mean);

  const double naf = (1 - std::numeric_limits<double>::epsilon()) / 2;
  const double thr = std::numeric_limits<std::int64_t>::max() + naf;
  const double spi_2 = 1.2533141373155002512078826424055226L;  // sqrt(pi/2)
  const double c1 = p.sm * spi_2;
  const double c2 = p.c2b + c1;
  const double c3 = c2 + 1;
  const double c4 = c3 + 1;
  const double k178 = 0.0128205128205128205128205128205128L;   // 1/78
  const double e178 = 1.0129030479320018583185514777512983L;   // e^(1/78)
  const double c5 = c4 + e178;
  const double c = p.cb + c5;
  const double two_cx = 2 * (2 * m + p.d);

  // One normal_distribution per draw, like libstdc++'s _M_nd member of a
  // distribution constructed for the draw: its cached second variate
  // carries over between rejection rounds, never between draws.
  std::normal_distribution<double> normal;
  double x = 0.0;
  bool reject = true;
  do {
    const double u = c * uniform();
    const double e = -std::log(1.0 - uniform());

    double w = 0.0;
    if (u <= c1) {
      const double n = normal(engine_);
      const double y = -std::abs(n) * p.sm - 1;
      x = std::floor(y);
      w = -n * n / 2;
      if (x < -m) continue;
    } else if (u <= c2) {
      const double n = normal(engine_);
      const double y = 1 + std::abs(n) * p.scx;
      x = std::ceil(y);
      w = y * (2 - y) * p.inv_cx;
      if (x > p.d) continue;
    } else if (u <= c3) {
      x = -1;
    } else if (u <= c4) {
      x = 0;
    } else if (u <= c5) {
      x = 1;
      w = k178;
    } else {
      const double v = -std::log(1.0 - uniform());
      const double y = p.d + v * two_cx / p.d;
      x = std::ceil(y);
      w = -p.d * p.inv_cx * (1 + y / 2);
    }

    reject = w - e - x * lm > p.lfm - lgamma(x + m + 1);
    reject |= x + m >= thr;
  } while (reject);

  return static_cast<std::int64_t>(x + m + naf);
}

}  // namespace bml
