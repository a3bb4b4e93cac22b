#include "mcmc/coupled.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/clock.hpp"
#include "util/error.hpp"
#include "util/serialize.hpp"

namespace plf::mcmc {

CoupledChains::CoupledChains(
    std::vector<std::unique_ptr<core::PlfEngine>> engines,
    const CoupledOptions& options)
    : options_(options),
      rng_(options.chain.seed ^ 0xC0FFEEull),
      drivers_(engines.size()) {
  PLF_CHECK(!engines.empty(), "coupled chains need at least one engine");
  PLF_CHECK(options.heat >= 0.0, "heat must be nonnegative");
  for (const auto& e : engines) {
    PLF_CHECK(engines.size() == 1 || e->backend().supports_concurrent_callers(),
              "coupled chains step concurrently, but backend '" +
                  e->backend().name() + "' takes calls from one thread only");
  }

  for (std::size_t i = 0; i < engines.size(); ++i) {
    ChainState cs;
    cs.engine = std::move(engines[i]);
    cs.heat_rank = i;
    McmcOptions chain_opts = options_.chain;
    chain_opts.seed = options_.chain.seed + i;
    chain_opts.likelihood_power = beta(i);
    chain_opts.sample_every = 0;  // sampling is driven by the coupler
    // The chain constructor evaluates the initial likelihood on THIS thread;
    // run() detaches the engine so its driver rebinds on the first step.
    cs.chain = std::make_unique<McmcChain>(*cs.engine, chain_opts);
    if (engines.size() > 1) {
      // Per-instance gauges ("chain1.engine.down_calls", ...) must not
      // collide in the shared registry. A single chain keeps the bare names.
      cs.engine->set_instance_label("chain" + std::to_string(i));
    }
    chains_.push_back(std::move(cs));
  }
}

std::size_t CoupledChains::cold_index() const {
  for (std::size_t i = 0; i < chains_.size(); ++i) {
    if (chains_[i].heat_rank == 0) return i;
  }
  throw Error("coupled chains: no cold chain (internal error)");
}

void CoupledChains::detach_engines() {
  for (auto& cs : chains_) cs.engine->detach_thread();
}

void CoupledChains::for_each_chain(
    const std::function<void(std::size_t, ChainState&)>& fn) {
  drivers_.for_each([&](std::size_t i) { fn(i, chains_[i]); });
}

void CoupledChains::attempt_swap() {
  if (chains_.size() < 2) return;
  ++swaps_proposed_;

  // Pick a random pair (MrBayes default behaviour).
  const std::size_t i = rng_.below(chains_.size());
  std::size_t j = rng_.below(chains_.size() - 1);
  if (j >= i) ++j;

  ChainState& a = chains_[i];
  ChainState& b = chains_[j];
  const double beta_a = beta(a.heat_rank);
  const double beta_b = beta(b.heat_rank);
  const double ln_a = a.chain->ln_likelihood();
  const double ln_b = b.chain->ln_likelihood();

  // Per-pair tallies are keyed on the HEAT RANKS involved (not the engine
  // indices): "0-1" is always cold-vs-first-heated, the pair practitioners
  // watch — a healthy ladder swaps adjacent ranks often.
  const std::size_t lo = std::min(a.heat_rank, b.heat_rank);
  const std::size_t hi = std::max(a.heat_rank, b.heat_rank);
  ProposalStats& pair =
      swap_pair_stats_[std::to_string(lo) + "-" + std::to_string(hi)];
  ++pair.proposed;

  // Tempered-likelihood targets: priors cancel in the swap ratio.
  const double log_ratio = (beta_a - beta_b) * (ln_b - ln_a);
  if (log_ratio >= 0.0 || std::log(rng_.uniform() + 1e-300) < log_ratio) {
    std::swap(a.heat_rank, b.heat_rank);
    a.chain->set_likelihood_power(beta(a.heat_rank));
    b.chain->set_likelihood_power(beta(b.heat_rank));
    ++swaps_accepted_;
    ++pair.accepted;
  }
}

std::map<std::string, ProposalStats> CoupledChains::aggregate_proposal_stats()
    const {
  std::map<std::string, ProposalStats> agg;
  for (const auto& cs : chains_) {
    for (const auto& [name, st] : cs.chain->proposal_stats()) {
      agg[name].proposed += st.proposed;
      agg[name].accepted += st.accepted;
    }
  }
  return agg;
}

void CoupledChains::export_telemetry(std::uint64_t gen, double wall_s) {
  obs::TelemetryExporter* exporter = options_.telemetry;
  const std::size_t cold_i = cold_index();

  obs::TelemetryRecord rec;
  rec.generation = gen;
  rec.wall_s = wall_s;
  rec.n_samples = cold_ess_.count();
  rec.ln_likelihood = chains_[cold_i].chain->ln_likelihood();
  rec.mean_ln_likelihood = cold_ess_.mean();
  rec.ess = cold_ess_.ess();
  rec.ess_per_sec = wall_s > 0.0 ? rec.ess / wall_s : 0.0;
  rec.rhat = cold_ess_.split_rhat();

  const std::map<std::string, ProposalStats> agg = aggregate_proposal_stats();
  for (const auto& [name, st] : agg) {
    rec.acceptance.push_back(
        obs::TelemetryRate{name, st.proposed, st.accepted});
  }
  rec.swaps.proposed = swaps_proposed_;
  rec.swaps.accepted = swaps_accepted_;
  for (const auto& [name, st] : swap_pair_stats_) {
    rec.swap_pairs.push_back(
        obs::TelemetryRate{name, st.proposed, st.accepted});
  }
  // Arena counters are mutex-guarded inside the arena, readable from the
  // control thread even while engines stay confined to their drivers.
  rec.extra.emplace_back(
      "arena.hit_rate",
      chains_[cold_i].engine->arena().counters().hit_rate());

  if (obs::MetricsRegistry* reg = exporter->registry(); reg != nullptr) {
    // Refresh the gauges the embedded metrics snapshot carries. Engine
    // stats publishing is thread-confined (it PLF_CHECKs the binding), so
    // route it through the drivers like every other engine touch.
    for_each_chain(
        [reg](std::size_t, ChainState& cs) { cs.engine->publish_stats(*reg); });
    publish_proposal_gauges(*reg, agg);
    reg->set_gauge(reg->gauge(obs::kGaugeMcmcColdLnL), rec.ln_likelihood);
    reg->set_gauge(reg->gauge(obs::kGaugeMcmcColdEss), rec.ess);
    reg->set_gauge(reg->gauge(obs::kGaugeMcmcColdRhat), rec.rhat);
    reg->set_gauge(reg->gauge(obs::kGaugeMc3SwapRate),
                   rec.swaps.rate());
    for (const obs::TelemetryRate& p : rec.swap_pairs) {
      reg->set_gauge(
          reg->gauge(std::string(obs::kGaugeMc3SwapPairPrefix) + p.name),
          p.rate());
    }
  }
  exporter->export_record(rec);
}

CoupledResult CoupledChains::run(std::uint64_t target_generation) {
  Stopwatch wall;
  CoupledResult result;
  McmcResult& cold_out = result.cold;
  // The caller may have bound the engines to its own thread (construction,
  // restore, stats reads); release them so the drivers can rebind.
  detach_engines();

  const std::uint64_t sample_every =
      options_.chain.sample_every == 0 ? 100 : options_.chain.sample_every;
  const bool checkpointing =
      options_.checkpoint_every != 0 && !options_.checkpoint_path.empty();
  // The next generation after generation_ at which the caller acts between
  // rounds: a swap, checkpoint, telemetry record or (with stop_at_ess) stop
  // check. Capped at the target.
  auto round_end = [&] {
    std::uint64_t end = target_generation;
    auto clip = [&](std::uint64_t every) {
      if (every != 0) end = std::min(end, (generation_ / every + 1) * every);
    };
    clip(options_.swap_every);
    if (checkpointing) clip(options_.checkpoint_every);
    if (options_.telemetry != nullptr) {
      clip(options_.telemetry->options().every_generations);
    }
    if (options_.stop_at_ess > 0.0) clip(sample_every);
    return end;
  };

  // The cold driver appends samples during a round, so size the storage
  // here: a vector grown on a driver would be freed into its malloc arena.
  const std::size_t expected_samples =
      target_generation > generation_
          ? static_cast<std::size_t>((target_generation - generation_) /
                                     sample_every) + 2
          : 1;
  cold_out.samples.reserve(expected_samples);
  if (options_.chain.collect_trees) {
    cold_out.sampled_trees.reserve(expected_samples);
  }
  cold_out.best_ln_likelihood = chains_[cold_index()].chain->ln_likelihood();

  // Reading the tree touches confined engine state, so samples are taken on
  // the cold chain's driver.
  auto take_sample = [&](const ChainState& cs, std::uint64_t gen) {
    cold_out.samples.push_back(McmcSample{gen, cs.chain->ln_likelihood(),
                                          cs.engine->tree().total_length(),
                                          cs.engine->model_params().gamma_shape});
    if (options_.chain.collect_trees) {
      cold_out.sampled_trees.push_back(cs.engine->tree().to_newick());
    }
  };
  // Feed the streaming diagnostics exactly at the (absolute-generation)
  // sampling cadence, so a resumed run continues the estimator sequence the
  // uninterrupted run would have produced.
  auto feed_ess = [&](double ln_likelihood) {
    cold_ess_.add(ln_likelihood);
    if (options_.stop_at_ess > 0.0 && cold_ess_.count() >= 8 &&
        cold_ess_.ess() >= options_.stop_at_ess) {
      result.stopped_at_ess = true;
    }
  };

  // A sample due where the caller acts is taken from the post-swap cold
  // chain by the next round's cold driver, before its first step. The
  // opening sample is the first such.
  bool sample_pending = true;
  for (;;) {
    // This round steps generations first+1..last; none when the run is over
    // and the round only closes it.
    const std::uint64_t first = generation_;
    const std::uint64_t last =
        result.stopped_at_ess || first >= target_generation ? first
                                                            : round_end();
    const bool swap_at_last = last > first && options_.swap_every != 0 &&
                              last % options_.swap_every == 0;
    // Unless a swap may hand the cold heat to another chain, the cold chain
    // after the run's last step is final: read it inside the round.
    const bool closes =
        last == first || (last == target_generation && !swap_at_last);
    const std::size_t cold_i = cold_index();
    // The cold index cannot change inside a round, so the cold chain's
    // driver does the cold bookkeeping of every generation but the last.
    for_each_chain([&](std::size_t i, ChainState& cs) {
      const bool cold = i == cold_i;
      if (cold && sample_pending) take_sample(cs, first);
      for (std::uint64_t g = first + 1; g <= last; ++g) {
        cs.chain->step();
        if (!cold || g == last) continue;
        if (g % sample_every == 0) {
          take_sample(cs, g);
          feed_ess(cs.chain->ln_likelihood());
        }
        cold_out.best_ln_likelihood =
            std::max(cold_out.best_ln_likelihood, cs.chain->ln_likelihood());
      }
      if (cold && closes) {
        if (last > first && last % sample_every == 0) take_sample(cs, last);
        cold_out.final_tree_newick = cs.engine->tree().to_newick();
      }
    });
    if (last == first) break;

    // The round's last generation, as a one-generation round: the swap
    // first, then the post-swap cold chain is sampled.
    generation_ = last;
    if (swap_at_last) attempt_swap();
    const double cold_ln = chains_[cold_index()].chain->ln_likelihood();
    sample_pending = !closes && last % sample_every == 0;
    if (last % sample_every == 0) feed_ess(cold_ln);
    cold_out.best_ln_likelihood =
        std::max(cold_out.best_ln_likelihood, cold_ln);
    if (checkpointing && last % options_.checkpoint_every == 0) {
      save_checkpoint_file(options_.checkpoint_path);
    }
    // Telemetry last, after the generation's state is final: it only READS
    // lnL doubles and counters, never the RNG streams or engine float
    // state, so trajectories are bit-identical with telemetry on or off.
    if (options_.telemetry != nullptr &&
        (options_.telemetry->due(last) || result.stopped_at_ess)) {
      export_telemetry(last, wall.seconds());
    }
    if (closes) break;
  }

  cold_out.final_ln_likelihood = chains_[cold_index()].chain->ln_likelihood();
  cold_out.wall_seconds = wall.seconds();
  // Aggregate proposal statistics over all chains (the PLF workload of an
  // (MC)^3 run is the SUM over chains — how MrBayes multiplies the paper's
  // kernel invocations).
  cold_out.proposals = aggregate_proposal_stats();
  result.swaps_proposed = swaps_proposed_;
  result.swaps_accepted = swaps_accepted_;
  result.swap_pair_stats = swap_pair_stats_;
  // Cold chain first, then by heat rank.
  std::vector<const ChainState*> order;
  for (const auto& cs : chains_) order.push_back(&cs);
  std::sort(order.begin(), order.end(),
            [](const ChainState* x, const ChainState* y) {
              return x->heat_rank < y->heat_rank;
            });
  for (const ChainState* cs : order) {
    result.final_ln_likelihoods.push_back(cs->chain->ln_likelihood());
  }
  // Hand the engines back to the caller for stats reads / gauge publishing.
  detach_engines();
  return result;
}

void CoupledChains::save_checkpoint(std::ostream& os) {
  detach_engines();
  // Engine state is serialized on each chain's confinement thread into a
  // per-chain blob, then framed into the single stream.
  std::vector<std::string> blobs(chains_.size());
  for_each_chain([&blobs](std::size_t i, ChainState& cs) {
    std::ostringstream buf;
    util::BinaryWriter bw(buf);
    cs.engine->save_state(bw);
    blobs[i] = buf.str();
  });

  util::BinaryWriter w(os);
  w.section("MC3C");
  w.u64(chains_.size());
  w.u64(generation_);
  w.u64(swaps_proposed_);
  w.u64(swaps_accepted_);
  const Rng::State rs = rng_.state();
  w.u64_array(rs.s.data(), rs.s.size());
  w.u8(rs.have_spare_normal ? 1 : 0);
  w.f64(rs.spare_normal);
  for (std::size_t i = 0; i < chains_.size(); ++i) {
    w.u64(chains_[i].heat_rank);
    chains_[i].chain->save_state(w);
    w.str(blobs[i]);
  }
  // Streaming-diagnostics state (checkpoint format v2, docs/SHARDING.md):
  // telemetry written after --resume must continue the estimator sequence
  // bit-for-bit, which recomputing from the (unsaved) sample list could not.
  w.section("TDIA");
  cold_ess_.save_state(w);
  w.u64(swap_pair_stats_.size());
  for (const auto& [name, st] : swap_pair_stats_) {
    w.str(name);
    w.u64(st.proposed);
    w.u64(st.accepted);
  }
  detach_engines();
}

void CoupledChains::restore_checkpoint(std::istream& is) {
  detach_engines();
  util::BinaryReader r(is);
  r.section("MC3C");
  const std::uint64_t n = r.u64();
  PLF_CHECK(n == chains_.size(),
            "checkpoint chain count does not match this coupler");
  generation_ = r.u64();
  swaps_proposed_ = r.u64();
  swaps_accepted_ = r.u64();
  Rng::State rs;
  const std::vector<std::uint64_t> s = r.u64_array();
  PLF_CHECK(s.size() == rs.s.size(), "checkpoint: bad coupler rng state");
  std::copy(s.begin(), s.end(), rs.s.begin());
  rs.have_spare_normal = r.u8() != 0;
  rs.spare_normal = r.f64();
  rng_.set_state(rs);
  std::vector<std::string> blobs(chains_.size());
  for (std::size_t i = 0; i < chains_.size(); ++i) {
    chains_[i].heat_rank = r.u64();
    chains_[i].chain->restore_state(r);
    blobs[i] = r.str();
  }
  r.section("TDIA");
  cold_ess_.restore_state(r);
  swap_pair_stats_.clear();
  const std::uint64_t n_pairs = r.u64();
  for (std::uint64_t i = 0; i < n_pairs; ++i) {
    const std::string name = r.str();
    ProposalStats st;
    st.proposed = r.u64();
    st.accepted = r.u64();
    swap_pair_stats_[name] = st;
  }
  for_each_chain([&blobs](std::size_t i, ChainState& cs) {
    std::istringstream buf(blobs[i]);
    util::BinaryReader br(buf);
    cs.engine->restore_state(br);
  });
  detach_engines();
}

void CoupledChains::save_checkpoint_file(const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    PLF_CHECK(os.good(), "cannot open checkpoint file for writing: " + tmp);
    save_checkpoint(os);
    PLF_CHECK(os.good(), "short write to checkpoint file: " + tmp);
  }
  PLF_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
            "cannot move checkpoint into place: " + path);
}

void CoupledChains::restore_checkpoint_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  PLF_CHECK(is.good(), "cannot open checkpoint file: " + path);
  restore_checkpoint(is);
}

}  // namespace plf::mcmc
