// PartitionedEngine: one tree, many models (docs/SHARDING.md).
//
// A partitioned analysis evaluates each alignment partition (gene, codon
// position) under its own substitution model on a shared topology; the run's
// log likelihood is the SUM of the per-partition log likelihoods. This class
// owns one PlfEngine per partition and fans the engine protocol out:
// topology/branch moves go to every partition (the tree is shared), model
// moves to one, and log_likelihood() sums per-partition results in partition
// order (a fixed reduction order — the sum is bit-stable across runs and
// across serial/scheduled execution).
//
// With an InstanceScheduler, every engine-touching operation is routed
// through the partition's pinned driver thread, so all partitions evaluate
// concurrently on the shared thread pool; without one, everything runs
// inline on the calling thread. The two modes are bit-identical.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/backend.hpp"
#include "core/engine.hpp"
#include "exec/scheduler.hpp"
#include "phylo/alignment.hpp"
#include "phylo/model.hpp"
#include "phylo/partition.hpp"
#include "phylo/tree.hpp"

namespace plf::exec {

/// Engine knobs shared by every partition. (Namespace scope rather than
/// nested: a nested struct's default member initializers can't back a
/// default argument inside the enclosing class.)
struct PartitionedConfig {
  core::KernelVariant variant = core::KernelVariant::kSimdSite;
  core::SiteRepeatsMode site_repeats = core::SiteRepeatsMode::kAuto;
  core::ClvBudget clv_budget;
};

class PartitionedEngine {
 public:
  using Config = PartitionedConfig;

  /// Build one engine per range of `spec` over `aln`'s columns. `params`
  /// holds either one entry (every partition starts from the same model) or
  /// exactly spec.n_parts() entries. Every engine gets its own copy of
  /// `tree` and is labeled with its partition's name. With a scheduler,
  /// instances are registered and all subsequent operations run on their
  /// pinned drivers.
  PartitionedEngine(const phylo::Alignment& aln,
                    const phylo::PartitionSpec& spec,
                    const std::vector<phylo::GtrParams>& params,
                    const phylo::Tree& tree, core::ExecutionBackend& backend,
                    const Config& config = Config{},
                    InstanceScheduler* scheduler = nullptr);

  std::size_t n_parts() const { return engines_.size(); }
  const phylo::PartitionSpec& spec() const { return spec_; }
  core::PlfEngine& part(std::size_t i) { return *engines_[i]; }

  /// Sum of per-partition log likelihoods, accumulated in partition order.
  double log_likelihood();

  // --- proposal protocol, fanned out to every partition ---
  void begin_proposal();
  void accept();
  void reject();

  // --- shared-tree mutations (fanned out) ---
  void set_branch_length(int node, double length);
  void apply_nni(int v, bool swap_left);

  /// Model mutation for ONE partition (models are independent).
  void set_model(std::size_t part, const phylo::GtrParams& params);

  /// The shared topology (partition 0's copy; all partitions track the same
  /// moves, so their trees are identical).
  const phylo::Tree& tree() const { return engines_.front()->tree(); }

  // --- checkpoint/restore (docs/SHARDING.md) ---
  void save_state(util::BinaryWriter& w) const;
  void restore_state(util::BinaryReader& r);

  /// Publish every partition's stats under its partition-name label.
  void publish_stats(obs::MetricsRegistry& registry) const;

  /// Release every engine's thread confinement (serial handoff back to the
  /// caller, e.g. for post-run stats reads without the scheduler).
  void detach_threads();

 private:
  /// Run `fn(part, engine)` for every partition: through the pinned drivers
  /// (with a trailing barrier) when scheduled, inline otherwise.
  void for_each_part(
      const std::function<void(std::size_t, core::PlfEngine&)>& fn) const;

  phylo::PartitionSpec spec_;
  std::vector<std::unique_ptr<core::PlfEngine>> engines_;
  std::vector<int> instance_ids_;  ///< scheduler ids, parallel to engines_
  InstanceScheduler* scheduler_ = nullptr;
};

}  // namespace plf::exec
