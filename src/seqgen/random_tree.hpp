// Random phylogenetic tree generation.
//
// The paper's inputs were "trees with 10, 20, 50, and 100 leaves obtained
// from analyses of real data sets"; lacking those exact trees, we generate
// them from a standard stochastic model of diversification, the Yule
// (pure-birth) process, which produces the realistic tree shapes and
// branch-length distributions phylogenetics software is exercised with.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "phylo/tree.hpp"
#include "util/rng.hpp"

namespace plf::seqgen {

/// Yule (pure-birth) tree: lineages split at rate `birth_rate` each; the
/// process runs until `n_taxa` tips exist. Branch lengths are in expected
/// substitutions after multiplying by `scale`.
phylo::Tree yule_tree(std::size_t n_taxa, Rng& rng, double birth_rate = 1.0,
                      double scale = 0.1);

/// Default taxon names "t1".."tN".
std::vector<std::string> default_taxon_names(std::size_t n);

}  // namespace plf::seqgen
