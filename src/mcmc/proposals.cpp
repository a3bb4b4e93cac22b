#include "mcmc/proposals.hpp"

#include <cmath>
#include <limits>

#include "numerics/special.hpp"
#include "util/error.hpp"

namespace plf::mcmc {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}

double dirichlet_log_pdf(const std::vector<double>& alpha,
                         const std::vector<double>& x) {
  PLF_CHECK(alpha.size() == x.size(), "dirichlet_log_pdf: size mismatch");
  double sum_a = 0.0;
  double lp = 0.0;
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    PLF_CHECK(alpha[i] > 0.0, "dirichlet_log_pdf: alpha must be positive");
    if (x[i] <= 0.0) return kNegInf;
    sum_a += alpha[i];
    lp += (alpha[i] - 1.0) * std::log(x[i]) - num::log_gamma(alpha[i]);
  }
  return lp + num::log_gamma(sum_a);
}

double BranchLengthMultiplier::propose(core::PlfEngine& engine,
                                       Rng& rng) const {
  const auto branches = engine.tree().branch_nodes();
  const int b = branches[rng.below(branches.size())];
  const double old_len = engine.tree().branch_length(b);
  const double c = std::exp(t_.branch_lambda * (rng.uniform() - 0.5));
  const double new_len = old_len * c;
  if (new_len < t_.min_branch_length || new_len > t_.max_branch_length) {
    return kNegInf;
  }
  engine.set_branch_length(b, new_len);
  // Hastings ratio of the multiplier move is c; Exp(rate) prior ratio is
  // exp(-rate * (new - old)).
  return std::log(c) - t_.branch_exp_prior_rate * (new_len - old_len);
}

double NniMove::propose(core::PlfEngine& engine, Rng& rng) const {
  const auto edges = engine.tree().internal_edge_nodes();
  if (edges.empty()) return kNegInf;  // 4-taxon star has none after rooting
  const int v = edges[rng.below(edges.size())];
  engine.apply_nni(v, rng.uniform() < 0.5);
  // Symmetric move, uniform topology prior.
  return 0.0;
}

double GammaShapeMultiplier::propose(core::PlfEngine& engine, Rng& rng) const {
  phylo::GtrParams p = engine.model_params();
  const double c = std::exp(t_.shape_lambda * (rng.uniform() - 0.5));
  const double new_shape = p.gamma_shape * c;
  if (new_shape < t_.min_shape || new_shape > t_.max_shape) return kNegInf;
  const double delta = new_shape - p.gamma_shape;
  p.gamma_shape = new_shape;
  engine.set_model(p);
  return std::log(c) - t_.shape_exp_prior_rate * delta;
}

double GtrRatesDirichlet::propose(core::PlfEngine& engine, Rng& rng) const {
  phylo::GtrParams p = engine.model_params();
  // Work on the normalized 6-simplex (the scale of Q is normalized away).
  std::vector<double> cur(p.rates.begin(), p.rates.end());
  double sum = 0.0;
  for (double r : cur) sum += r;
  for (auto& r : cur) r /= sum;

  std::vector<double> alpha(cur.size());
  for (std::size_t i = 0; i < cur.size(); ++i) {
    alpha[i] = t_.rates_concentration * cur[i];
  }
  const std::vector<double> prop = rng.dirichlet(alpha);
  for (double x : prop) {
    if (x < 1e-6) return kNegInf;  // keep Q well-conditioned
  }

  std::vector<double> alpha_rev(prop.size());
  for (std::size_t i = 0; i < prop.size(); ++i) {
    alpha_rev[i] = t_.rates_concentration * prop[i];
  }
  // Flat Dirichlet(1,...,1) prior: prior ratio 1.
  const double log_hastings =
      dirichlet_log_pdf(alpha_rev, cur) - dirichlet_log_pdf(alpha, prop);

  for (std::size_t i = 0; i < prop.size(); ++i) p.rates[i] = prop[i];
  engine.set_model(p);
  return log_hastings;
}

double PinvSlide::propose(core::PlfEngine& engine, Rng& rng) const {
  phylo::GtrParams p = engine.model_params();
  double x = p.p_invariant + t_.pinv_window * (rng.uniform() - 0.5);
  // Reflect at the prior boundaries (keeps the move symmetric).
  if (x < 0.0) x = -x;
  if (x > t_.max_pinv) x = 2.0 * t_.max_pinv - x;
  if (x < 0.0 || x >= 1.0) return -std::numeric_limits<double>::infinity();
  p.p_invariant = x;
  engine.set_model(p);
  return 0.0;  // symmetric move, flat prior
}

double SprMove::propose(core::PlfEngine& engine, Rng& rng) const {
  const auto& tree = engine.tree();
  std::vector<int> prunable;
  for (int id = 0; id < static_cast<int>(tree.n_nodes()); ++id) {
    if (id == tree.root() || id == tree.outgroup()) continue;
    const int parent = tree.node(id).parent;
    if (parent == phylo::kNoNode || parent == tree.root()) continue;
    prunable.push_back(id);
  }
  if (prunable.empty()) return kNegInf;
  const int s = prunable[rng.below(prunable.size())];
  const auto targets = tree.spr_valid_targets(s);
  if (targets.empty()) return kNegInf;
  const int target = targets[rng.below(targets.size())];

  const int u = tree.node(s).parent;
  const int w = tree.node(u).left == s ? tree.node(u).right : tree.node(u).left;
  const double merged = tree.branch_length(u) + tree.branch_length(w);
  const double t_len = tree.branch_length(target);
  const double x = t_len * rng.uniform();
  if (x <= 0.0 || x >= t_len || merged <= 0.0) return kNegInf;

  engine.apply_spr(s, target, x);
  // Forward split density 1/t_len; the reverse move splits the merged
  // branch (1/merged). Counts cancel (see header).
  return std::log(t_len) - std::log(merged);
}

double BaseFrequenciesDirichlet::propose(core::PlfEngine& engine,
                                         Rng& rng) const {
  phylo::GtrParams p = engine.model_params();
  std::vector<double> cur(p.pi.begin(), p.pi.end());

  std::vector<double> alpha(4);
  for (std::size_t i = 0; i < 4; ++i) alpha[i] = t_.pi_concentration * cur[i];
  const std::vector<double> prop = rng.dirichlet(alpha);
  for (double x : prop) {
    if (x < 1e-4) return kNegInf;
  }
  std::vector<double> alpha_rev(4);
  for (std::size_t i = 0; i < 4; ++i) alpha_rev[i] = t_.pi_concentration * prop[i];
  const double log_hastings =
      dirichlet_log_pdf(alpha_rev, cur) - dirichlet_log_pdf(alpha, prop);

  for (std::size_t i = 0; i < 4; ++i) p.pi[i] = prop[i];
  engine.set_model(p);
  return log_hastings;
}

}  // namespace plf::mcmc
