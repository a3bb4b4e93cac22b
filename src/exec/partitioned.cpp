#include "exec/partitioned.hpp"

#include <sstream>
#include <utility>

#include "phylo/patterns.hpp"
#include "util/contracts.hpp"
#include "util/error.hpp"
#include "util/serialize.hpp"

namespace plf::exec {

PartitionedEngine::PartitionedEngine(const phylo::Alignment& aln,
                                     const phylo::PartitionSpec& spec,
                                     const std::vector<phylo::GtrParams>& params,
                                     const phylo::Tree& tree,
                                     core::ExecutionBackend& backend,
                                     const Config& config)
    : spec_(spec), drivers_(spec.n_parts()) {
  PLF_CHECK(params.size() == 1 || params.size() == spec.n_parts(),
            "partitioned engine: pass one GtrParams or one per partition");
  PLF_CHECK(spec.n_parts() == 1 || backend.supports_concurrent_callers(),
            "partitioned engine evaluates parts concurrently, but backend '" +
                backend.name() + "' takes calls from one thread only");
  const std::vector<phylo::Alignment> parts = spec_.split(aln);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const phylo::GtrParams& p = params[params.size() == 1 ? 0 : i];
    engines_.push_back(std::make_unique<core::PlfEngine>(
        phylo::PatternMatrix::compress(parts[i]), p, tree, backend,
        config.variant, config.site_repeats, config.clv_budget));
    // The engines share the caller's registry: label them so their
    // engine.*/arena.* gauges don't collide.
    engines_.back()->set_instance_label(spec_.range(i).name);
  }
}

core::PlfEngine& PartitionedEngine::part(std::size_t i) {
  engines_[i]->detach_thread();
  on_caller_ = true;
  return *engines_[i];
}

void PartitionedEngine::for_each_part(
    const std::function<void(std::size_t, core::PlfEngine&)>& fn) const {
  if (on_caller_) {
    for (const auto& e : engines_) e->detach_thread();
    on_caller_ = false;
  }
  drivers_.for_each([&](std::size_t i) { fn(i, *engines_[i]); });
}

double PartitionedEngine::log_likelihood() {
  std::vector<double> per_part(engines_.size(), 0.0);
  for_each_part([&per_part](std::size_t i, core::PlfEngine& e) {
    per_part[i] = e.log_likelihood();
  });
  // Fixed reduction order (partition index): the sum is bit-stable across
  // runs, whichever partition finishes first.
  double total = 0.0;
  for (const double v : per_part) total += v;
  return total;
}

void PartitionedEngine::begin_proposal() {
  for_each_part([](std::size_t, core::PlfEngine& e) { e.begin_proposal(); });
}

void PartitionedEngine::accept() {
  for_each_part([](std::size_t, core::PlfEngine& e) { e.accept(); });
}

void PartitionedEngine::reject() {
  for_each_part([](std::size_t, core::PlfEngine& e) { e.reject(); });
}

void PartitionedEngine::set_branch_length(int node, double length) {
  for_each_part([node, length](std::size_t, core::PlfEngine& e) {
    e.set_branch_length(node, length);
  });
}

void PartitionedEngine::apply_nni(int v, bool swap_left) {
  for_each_part([v, swap_left](std::size_t, core::PlfEngine& e) {
    e.apply_nni(v, swap_left);
  });
}

void PartitionedEngine::set_model(std::size_t part,
                                  const phylo::GtrParams& params) {
  PLF_CHECK(part < engines_.size(), "partitioned engine: part out of range");
  for_each_part([part, &params](std::size_t i, core::PlfEngine& e) {
    if (i == part) e.set_model(params);
  });
}

void PartitionedEngine::save_state(util::BinaryWriter& w) const {
  w.section("PRTE");
  w.u64(engines_.size());
  // Engines are thread-confined to their drivers: each serializes into its
  // own buffer there; the coordinator then frames the buffers in partition
  // order (each blob is a complete nested checkpoint stream).
  std::vector<std::string> blobs(engines_.size());
  for_each_part([&blobs](std::size_t i, core::PlfEngine& e) {
    std::ostringstream os;
    util::BinaryWriter pw(os);
    e.save_state(pw);
    blobs[i] = os.str();
  });
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    w.str(spec_.range(i).name);
    w.str(blobs[i]);
  }
}

void PartitionedEngine::restore_state(util::BinaryReader& r) {
  r.section("PRTE");
  const std::uint64_t n = r.u64();
  PLF_CHECK(n == engines_.size(),
            "restore_state: checkpoint has a different partition count");
  std::vector<std::string> blobs(engines_.size());
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    const std::string name = r.str();
    PLF_CHECK(name == spec_.range(i).name,
              "restore_state: partition name mismatch ('" + name +
                  "' vs '" + spec_.range(i).name + "')");
    blobs[i] = r.str();
  }
  for_each_part([&blobs](std::size_t i, core::PlfEngine& e) {
    std::istringstream is(blobs[i]);
    util::BinaryReader pr(is);
    e.restore_state(pr);
  });
}

void PartitionedEngine::publish_stats(obs::MetricsRegistry& registry) const {
  for_each_part([&registry](std::size_t, core::PlfEngine& e) {
    e.publish_stats(registry);
  });
}

}  // namespace plf::exec
