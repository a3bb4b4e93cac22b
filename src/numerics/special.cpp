#include "numerics/special.hpp"

#include <cmath>
#include <limits>

#include "numerics/ulp.hpp"
#include "util/error.hpp"

namespace plf::num {

double log_gamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);  // the reentrant form: no global state
}

namespace {

// Series expansion of P(a, x), valid/fast for x < a + 1. The iteration count
// needed grows like sqrt(a) when x is near a (the regime chi-square quantile
// refinement probes), so the limit scales with the shape.
double gamma_p_series(double a, double x) {
  const int itmax = 500 + static_cast<int>(10.0 * std::sqrt(a));
  const double lga = log_gamma(a);
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int n = 0; n < itmax; ++n) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::abs(del) < std::abs(sum) * 1e-16) {
      return sum * std::exp(-x + a * std::log(x) - lga);
    }
  }
  throw Error("incomplete_gamma_p: series failed to converge");
}

// Continued fraction for Q(a, x) = 1 - P(a, x), valid/fast for x >= a + 1.
double gamma_q_contfrac(double a, double x) {
  const double lga = log_gamma(a);
  const double kTiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  const int itmax = 500 + static_cast<int>(10.0 * std::sqrt(a));
  for (int i = 1; i <= itmax; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::abs(del - 1.0) < 1e-16) {
      return std::exp(-x + a * std::log(x) - lga) * h;
    }
  }
  throw Error("incomplete_gamma_p: continued fraction failed to converge");
}

}  // namespace

double incomplete_gamma_p(double a, double x) {
  PLF_CHECK(a > 0.0, "incomplete_gamma_p: a must be positive");
  PLF_CHECK(x >= 0.0, "incomplete_gamma_p: x must be nonnegative");
  if (is_exactly_zero(x)) return 0.0;  // exact limit: P(a, 0) = 0
  if (x < a + 1.0) return gamma_p_series(a, x);
  return 1.0 - gamma_q_contfrac(a, x);
}

double normal_quantile(double p) {
  PLF_CHECK(p > 0.0 && p < 1.0, "normal_quantile: p must be in (0,1)");
  // Wichura's AS 241 (PPND16): relative error ~ 1e-16.
  const double q = p - 0.5;
  if (std::abs(q) <= 0.425) {
    const double r = 0.180625 - q * q;
    return q *
           (((((((2.5090809287301226727e3 * r + 3.3430575583588128105e4) * r +
                 6.7265770927008700853e4) * r + 4.5921953931549871457e4) * r +
               1.3731693765509461125e4) * r + 1.9715909503065514427e3) * r +
             1.3314166789178437745e2) * r + 3.3871328727963666080e0) /
           (((((((5.2264952788528545610e3 * r + 2.8729085735721942674e4) * r +
                 3.9307895800092710610e4) * r + 2.1213794301586595867e4) * r +
               5.3941960214247511077e3) * r + 6.8718700749205790830e2) * r +
             4.2313330701600911252e1) * r + 1.0);
  }
  double r = (q < 0.0) ? p : 1.0 - p;
  r = std::sqrt(-std::log(r));
  double val;
  if (r <= 5.0) {
    r -= 1.6;
    val = (((((((7.74545014278341407640e-4 * r + 2.27238449892691845833e-2) * r +
                2.41780725177450611770e-1) * r + 1.27045825245236838258e0) * r +
              3.64784832476320460504e0) * r + 5.76949722146069140550e0) * r +
            4.63033784615654529590e0) * r + 1.42343711074968357734e0) /
          (((((((1.05075007164441684324e-9 * r + 5.47593808499534494600e-4) * r +
                1.51986665636164571966e-2) * r + 1.48103976427480074590e-1) * r +
              6.89767334985100004550e-1) * r + 1.67638483018380384940e0) * r +
            2.05319162663775882187e0) * r + 1.0);
  } else {
    r -= 5.0;
    val = (((((((2.01033439929228813265e-7 * r + 2.71155556874348757815e-5) * r +
                1.24266094738807843860e-3) * r + 2.65321895265761230930e-2) * r +
              2.96560571828504891230e-1) * r + 1.78482653991729133580e0) * r +
            5.46378491116411436990e0) * r + 6.65790464350110377720e0) /
          (((((((2.04426310338993978564e-15 * r + 1.42151175831644588870e-7) * r +
                1.84631831751005468180e-5) * r + 7.86869131145613259100e-4) * r +
              1.48753612908506148525e-2) * r + 1.36929880922735805310e-1) * r +
            5.99832206555887937690e-1) * r + 1.0);
  }
  return (q < 0.0) ? -val : val;
}

double chi_square_quantile(double p, double df) {
  PLF_CHECK(p > 0.0 && p < 1.0, "chi_square_quantile: p must be in (0,1)");
  PLF_CHECK(df > 0.0, "chi_square_quantile: df must be positive");

  // AS 91-style starting value.
  const double g = log_gamma(df / 2.0);
  const double xx = df / 2.0;
  const double c = xx - 1.0;
  const double aa = std::log(2.0);
  double ch;
  if (df < -1.24 * std::log(p)) {
    ch = std::pow(p * xx * std::exp(g + xx * aa), 1.0 / xx);
  } else if (df > 0.32) {
    const double x = normal_quantile(p);
    const double p1 = 2.0 / (9.0 * df);
    ch = df * std::pow(x * std::sqrt(p1) + 1.0 - p1, 3.0);
    if (ch > 2.2 * df + 6.0) {
      ch = -2.0 * (std::log(1.0 - p) - c * std::log(0.5 * ch) + g);
    }
  } else {
    ch = 0.4;
    const double a = std::log(1.0 - p);
    for (int i = 0; i < 40; ++i) {
      const double q = ch;
      const double p1 = 1.0 + ch * (4.67 + ch);
      const double p2 = ch * (6.73 + ch * (6.66 + ch));
      const double t =
          -0.5 + (4.67 + 2.0 * ch) / p1 - (6.73 + ch * (13.32 + 3.0 * ch)) / p2;
      ch -= (1.0 - std::exp(a + g + 0.5 * ch + c * aa) * p2 / p1) / t;
      if (std::abs(q / ch - 1.0) < 1e-8) break;
    }
  }

  // Newton refinement against the regularized incomplete gamma.
  for (int i = 0; i < 64; ++i) {
    const double f = incomplete_gamma_p(xx, ch / 2.0) - p;
    // pdf of chi^2_df at ch
    const double pdf =
        std::exp((xx - 1.0) * std::log(ch / 2.0) - ch / 2.0 - g) / 2.0;
    if (pdf <= 0.0) break;
    const double step = f / pdf;
    ch -= step;
    if (ch <= 0.0) ch = std::numeric_limits<double>::min();
    if (std::abs(step) < 1e-12 * (1.0 + ch)) break;
  }
  return ch;
}

double gamma_quantile(double p, double shape, double scale) {
  PLF_CHECK(shape > 0.0 && scale > 0.0, "gamma_quantile: bad parameters");
  // Gamma(shape, scale) == (scale/2) * chi^2 with df = 2*shape.
  return chi_square_quantile(p, 2.0 * shape) * scale / 2.0;
}

}  // namespace plf::num
