// Special functions needed by the Γ-rates model (Yang 1994) and the MCMC
// priors: regularized incomplete gamma, and the chi-square / normal / gamma
// quantile functions (following the classic AS 91 / AS 241 algorithms, the
// same lineage used by PAML and MrBayes).
#pragma once

namespace plf::num {

/// ln|Gamma(x)|. Use this, not std::lgamma: that one also writes the global
/// `signgam`, a data race once MC3 chains step on several threads.
double log_gamma(double x);

/// Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a),
/// computed by series (x < a+1) or continued fraction (otherwise).
double incomplete_gamma_p(double a, double x);

/// Quantile of the standard normal distribution (AS 241, double precision).
double normal_quantile(double p);

/// Quantile of the chi-square distribution with `df` degrees of freedom
/// (AS 91 with Newton refinement on incomplete_gamma_p).
double chi_square_quantile(double p, double df);

/// Quantile of Gamma(shape, scale).
double gamma_quantile(double p, double shape, double scale);

}  // namespace plf::num
