// Metropolis-coupled MCMC — (MC)^3, the algorithm MrBayes actually runs.
//
// N chains explore the posterior in parallel; chain i samples the posterior
// raised to the power beta_i = 1 / (1 + heat * i). Heated chains cross
// likelihood valleys easily; periodically a random pair of chains proposes
// to swap states, accepted with the usual Metropolis ratio
//   min(1, [p_j(x_i) p_i(x_j)] / [p_i(x_i) p_j(x_j)])
// which for tempered posteriors reduces to
//   exp((beta_a - beta_b) * (lnP_b - lnP_a)).
// Only the cold chain (i = 0) is sampled.
//
// Each chain owns its own PlfEngine, so the PLF work multiplies by the chain
// count — exactly how MrBayes multiplies the paper's fine-grain workload.
// Swapping exchanges chain HEATS rather than engine states (the standard
// pointer-swap implementation).
//
// Execution (docs/SHARDING.md): the coupler owns an exec::InstanceScheduler
// with one driver thread per chain beyond the first. Chains interact only at
// swaps, so one fork/join round runs chain 0 on the calling thread and chain
// i >= 1 on driver i through every generation up to the next one where the
// caller must act: a swap, a checkpoint, a telemetry record, the target, and
// with stop_at_ess every sampled generation. The cold chain's driver takes
// the samples, ESS feed and best lnL of the generations before the round's
// last one; the caller handles the last one after the barrier, swap first,
// as a loop stepping one generation at a time would. Every trajectory is
// that loop's, bit for bit; the concurrency keeps the shared thread pool
// busy while other chains are in their serial phases.
//
// Checkpointing: save_checkpoint/restore_checkpoint serialize the complete
// coupler state (generation, swap counters, coupler RNG, per-chain heat
// ranks + chain + engine state) through util::BinaryWriter with a 0-ULP
// resume guarantee; options.checkpoint_every wires periodic writes into
// run().
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "exec/scheduler.hpp"
#include "mcmc/chain.hpp"
#include "mcmc/online_diagnostics.hpp"

namespace plf::obs {
class TelemetryExporter;
}  // namespace plf::obs

namespace plf::mcmc {

struct CoupledOptions {
  double heat = 0.2;              ///< MrBayes "temp" default
  std::uint64_t swap_every = 10;  ///< generations between swap attempts
  McmcOptions chain;              ///< per-chain options (seed is the base)
  /// Write a checkpoint to `checkpoint_path` every N generations (0 = off).
  std::uint64_t checkpoint_every = 0;
  std::string checkpoint_path;
  /// Live telemetry sink (docs/OBSERVABILITY.md); not owned, may be null.
  /// On each generation the exporter says is due, run() publishes the
  /// mcmc.*/mc3.* gauges and writes one plf-telemetry-v1 record. Telemetry
  /// only READS chain state between generations — lnL trajectories are
  /// bit-identical with it on or off.
  obs::TelemetryExporter* telemetry = nullptr;
  /// Stop early once the cold chain's streaming lnL ESS reaches this value
  /// (checked at the sampling cadence; 0 = never). The prefix of the
  /// trajectory up to the stop is unchanged — stopping only truncates.
  double stop_at_ess = 0.0;
};

struct CoupledResult {
  McmcResult cold;                   ///< samples from the cold chain
  std::uint64_t swaps_proposed = 0;
  std::uint64_t swaps_accepted = 0;
  std::vector<double> final_ln_likelihoods;  ///< per chain, cold first
  /// Per heat-rank-pair swap tallies, keyed "lo-hi" ("0-1", "1-3", ...).
  std::map<std::string, ProposalStats> swap_pair_stats;
  /// True when options.stop_at_ess ended the run before target_generation.
  bool stopped_at_ess = false;

  double swap_rate() const {
    return swaps_proposed == 0 ? 0.0
                               : static_cast<double>(swaps_accepted) /
                                     static_cast<double>(swaps_proposed);
  }
};

class CoupledChains {
 public:
  /// Takes OWNERSHIP of the engines (the former raw-pointer signature was a
  /// lifetime footgun: chains hold their engine for the coupler's whole
  /// life, so the coupler owns them now). engines.size() defines the chain
  /// count (MrBayes runs 4); all engines must evaluate the same data/model
  /// family. Each chain's initial evaluation runs on the constructing thread;
  /// the driver threads start at the first step. With more than one chain, engine i
  /// is labeled "chain<i>" so its gauges don't collide with the others'.
  /// With more than one chain, every engine's backend must
  /// supports_concurrent_callers() (Serial, Threaded and PerCall over
  /// either do); the thread-confined Cell and GPU simulators are refused
  /// with plf::Error.
  CoupledChains(std::vector<std::unique_ptr<core::PlfEngine>> engines,
                const CoupledOptions& options);

  /// Step all chains until the coupler's generation counter reaches
  /// `target_generation`, attempting swaps and writing checkpoints on
  /// schedule. A fresh coupler starts at generation 0, so this runs exactly
  /// `target_generation` generations; after restore_checkpoint it runs only
  /// the remainder — the resumed trajectory is bit-identical to the
  /// uninterrupted one.
  /// If a chain throws, the others finish their round and run() rethrows
  /// the first error. The chains may then stand at different generations:
  /// restore a checkpoint before the next run().
  CoupledResult run(std::uint64_t target_generation);

  std::size_t n_chains() const { return chains_.size(); }
  std::uint64_t generation() const { return generation_; }

  /// Index (into the engine list) of the engine currently carrying the cold
  /// chain.
  std::size_t cold_index() const;

  /// Engine of chain `i` (engine-list order, not heat order). Safe to touch
  /// from the caller between coupler calls: run() and the checkpoint calls
  /// hand every engine back before returning.
  core::PlfEngine& engine(std::size_t i) { return *chains_[i].engine; }

  double beta(std::size_t heat_rank) const {
    return 1.0 / (1.0 + options_.heat * static_cast<double>(heat_rank));
  }

  // --- checkpoint/restore (docs/SHARDING.md) ---
  void save_checkpoint(std::ostream& os);
  void restore_checkpoint(std::istream& is);
  /// File variants; save writes "<path>.tmp" then renames, so a crash never
  /// leaves a half-written checkpoint at `path`.
  void save_checkpoint_file(const std::string& path);
  void restore_checkpoint_file(const std::string& path);

  /// Streaming diagnostics over the cold chain's sampled lnL series (fed at
  /// the sampling cadence; survives checkpoint/restore bit-exactly).
  const StreamingEss& cold_ess() const { return cold_ess_; }

 private:
  struct ChainState {
    std::unique_ptr<core::PlfEngine> engine;
    std::unique_ptr<McmcChain> chain;
    std::size_t heat_rank;   ///< 0 = cold
  };

  void attempt_swap();
  /// Aggregate per-proposal-type tallies over every chain (the MC^3 totals
  /// the telemetry and result report).
  std::map<std::string, ProposalStats> aggregate_proposal_stats() const;
  /// Publish the mcmc.*/mc3.* gauges and write one telemetry record for
  /// generation `gen` (options_.telemetry != nullptr).
  void export_telemetry(std::uint64_t gen, double wall_s);
  /// Run `fn(index, chain state)` for every chain on its fixed thread.
  void for_each_chain(
      const std::function<void(std::size_t, ChainState&)>& fn);
  /// Release every engine's thread confinement, so the next touch (a
  /// driver's, or the caller's between coupler calls) rebinds it.
  void detach_engines();

  CoupledOptions options_;
  std::vector<ChainState> chains_;
  Rng rng_;
  std::uint64_t generation_ = 0;
  std::uint64_t swaps_proposed_ = 0;
  std::uint64_t swaps_accepted_ = 0;
  /// Per heat-rank-pair swap tallies ("0-1" etc.), part of checkpoint state.
  std::map<std::string, ProposalStats> swap_pair_stats_;
  /// Streaming ESS over the cold chain's sampled lnL, checkpoint state too.
  StreamingEss cold_ess_;
  /// Declared last so its drivers stop before the chains are destroyed.
  exec::InstanceScheduler drivers_;
};

}  // namespace plf::mcmc
