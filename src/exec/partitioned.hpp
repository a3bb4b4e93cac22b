// PartitionedEngine: one tree, many models (docs/SHARDING.md).
//
// A partitioned analysis evaluates each alignment partition (gene, codon
// position) under its own substitution model on a shared topology; the run's
// log likelihood is the SUM of the per-partition log likelihoods. This class
// owns one PlfEngine per partition and fans the engine protocol out:
// topology/branch moves go to every partition (the tree is shared), model
// moves to one, and log_likelihood() sums per-partition results in partition
// order (a fixed reduction order — the sum is bit-stable across runs).
//
// Every engine-touching operation fans out through an InstanceScheduler:
// partition 0 on the calling thread, partition i >= 1 on its own driver
// thread, so all partitions evaluate concurrently on the shared thread pool.
// Each engine computes exactly what it would alone.
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
  /// `tree` and is labeled with its partition's name; the driver threads
  /// start at the first fan-out. With more than one partition the backend
  /// must supports_concurrent_callers() (Serial, Threaded and PerCall over
  /// either do); the thread-confined Cell and GPU simulators are refused
  /// with plf::Error.
  PartitionedEngine(const phylo::Alignment& aln,
                    const phylo::PartitionSpec& spec,
                    const std::vector<phylo::GtrParams>& params,
                    const phylo::Tree& tree, core::ExecutionBackend& backend,
                    const Config& config = Config{});

  std::size_t n_parts() const { return engines_.size(); }
  const phylo::PartitionSpec& spec() const { return spec_; }
  /// Engine of partition `i`, handed to the caller until the next
  /// PartitionedEngine call takes it back.
  core::PlfEngine& part(std::size_t i);

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

 private:
  /// Run `fn(part, engine)` for every partition on its fixed thread, first
  /// releasing the engines if the caller has held them.
  void for_each_part(
      const std::function<void(std::size_t, core::PlfEngine&)>& fn) const;

  phylo::PartitionSpec spec_;
  std::vector<std::unique_ptr<core::PlfEngine>> engines_;
  /// The caller may have bound engines to its thread (construction, part()),
  /// so the next fan-out must release them for the drivers to rebind.
  mutable bool on_caller_ = true;
  /// Declared last so its drivers stop before the engines are destroyed.
  /// Mutable: fanning out is not a change to the partitioned engine.
  mutable InstanceScheduler drivers_;
};

}  // namespace plf::exec
