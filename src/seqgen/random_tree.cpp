#include "seqgen/random_tree.hpp"

#include <sstream>

#include "util/error.hpp"

namespace plf::seqgen {

namespace {

/// Growing-tree node for the simulator.
struct BNode {
  double length = 0.0;  // branch to parent, accumulated while the lineage is active
  int left = -1;
  int right = -1;
  int name = -1;  // leaf name index, assigned at the end
};

void write_newick(const std::vector<BNode>& nodes,
                  const std::vector<std::string>& names, int id, double scale,
                  std::ostringstream& os) {
  const BNode& n = nodes[static_cast<std::size_t>(id)];
  if (n.left < 0) {
    os << names[static_cast<std::size_t>(n.name)];
  } else {
    os << '(';
    write_newick(nodes, names, n.left, scale, os);
    os << ',';
    write_newick(nodes, names, n.right, scale, os);
    os << ')';
  }
  os << ':' << n.length * scale;
}

phylo::Tree finish(std::vector<BNode>& nodes, int root,
                   const std::vector<int>& leaves, double scale) {
  const auto names = default_taxon_names(leaves.size());
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    nodes[static_cast<std::size_t>(leaves[i])].name = static_cast<int>(i);
  }
  std::ostringstream os;
  os.precision(12);
  write_newick(nodes, names, root, scale, os);
  os << ';';
  // The Yule process grows a rooted bifurcating top; from_newick unroots it.
  return phylo::Tree::from_newick(os.str(), names);
}

}  // namespace

std::vector<std::string> default_taxon_names(std::size_t n) {
  std::vector<std::string> names(n);
  for (std::size_t i = 0; i < n; ++i) names[i] = "t" + std::to_string(i + 1);
  return names;
}

phylo::Tree yule_tree(std::size_t n_taxa, Rng& rng, double birth_rate,
                      double scale) {
  PLF_CHECK(n_taxa >= 3, "yule_tree: need at least 3 taxa");
  PLF_CHECK(birth_rate > 0.0 && scale > 0.0, "yule_tree: bad parameters");

  std::vector<BNode> nodes;
  std::vector<int> active;
  auto make_node = [&nodes]() {
    nodes.emplace_back();
    return static_cast<int>(nodes.size()) - 1;
  };

  const int root = make_node();
  nodes[static_cast<std::size_t>(root)].left = make_node();
  nodes[static_cast<std::size_t>(root)].right = make_node();
  active.push_back(nodes[static_cast<std::size_t>(root)].left);
  active.push_back(nodes[static_cast<std::size_t>(root)].right);

  while (active.size() < n_taxa) {
    const double k = static_cast<double>(active.size());
    const double dt = rng.exponential(k * birth_rate);
    for (int id : active) nodes[static_cast<std::size_t>(id)].length += dt;

    const std::size_t pick = rng.below(active.size());
    const int split = active[pick];
    const int a = make_node();
    const int b = make_node();
    nodes[static_cast<std::size_t>(split)].left = a;
    nodes[static_cast<std::size_t>(split)].right = b;
    active[pick] = a;
    active.push_back(b);
  }
  // Final stretch so the youngest tips do not end with zero-length branches.
  const double dt =
      rng.exponential(static_cast<double>(active.size()) * birth_rate);
  for (int id : active) nodes[static_cast<std::size_t>(id)].length += dt;

  return finish(nodes, root, active, scale);
}

}  // namespace plf::seqgen
