// Canonical metric names shared by the instrumentation points and the
// breakdown report, so the report never chases a misspelled key.
//
// Naming scheme: "<layer>.<what>", with the three PLF kernels and the root
// reduction carrying the paper's own names (CondLikeDown / CondLikeRoot /
// CondLikeScaler; §2) under the "plf." prefix.
#pragma once

namespace plf::obs {

// The three PLF kernels + the root reduction (the paper's parallel section).
inline constexpr const char* kTimerCondLikeDown = "plf.CondLikeDown";
inline constexpr const char* kTimerCondLikeRoot = "plf.CondLikeRoot";
inline constexpr const char* kTimerCondLikeScaler = "plf.CondLikeScaler";
inline constexpr const char* kTimerRootReduce = "plf.RootReduce";

// Engine serial work (the "Remaining" contributors that are measurable
// per-phase; the rest of Remaining is application code outside the engine).
inline constexpr const char* kTimerTiProbs = "engine.TiProbs";
inline constexpr const char* kTimerScalerSum = "engine.ScalerSum";
inline constexpr const char* kTimerRepeatIdentify = "engine.RepeatIdentify";
inline constexpr const char* kTimerRepeatScatter = "engine.RepeatScatter";

// Plan dispatch (batched engine->backend interface, docs/EXECUTION_PLAN.md).
// plan.build/plan.execute bracket the engine's two phases; plan.level is the
// wall time of one dependency level's fused batch on a kFusedPlan backend
// (the report counts it toward the PLF section — when kernels are fused into
// one region per level, per-kernel attribution is by design unavailable).
inline constexpr const char* kTimerPlanBuild = "plan.build";
inline constexpr const char* kTimerPlanExecute = "plan.execute";
inline constexpr const char* kTimerPlanLevel = "plan.level";
inline constexpr const char* kCounterPlanLevels = "plan.levels";
inline constexpr const char* kCounterPlanOps = "plan.ops";
/// Parallel regions NOT opened relative to per-call dispatch (2 per op minus
/// 1 per level) — the reclaimed spawn/sync the Fig. 12 breakdown attributes.
inline constexpr const char* kCounterPlanRegionsSaved = "plan.regions_saved";

// Thread pool (multi-core backend, §3.2).
inline constexpr const char* kTimerParRegion = "par.region";
inline constexpr const char* kTimerParWorker = "par.worker";
inline constexpr const char* kCounterParRegions = "par.regions";

// MCMC application layer.
inline constexpr const char* kTimerMcmcGeneration = "mcmc.generation";
inline constexpr const char* kCounterMcmcGenerations = "mcmc.generations";

// Live convergence telemetry (docs/OBSERVABILITY.md). The per-proposal-type
// prefixes are completed with the proposal's registered name
// ("mcmc.accept_rate.nni", ...); the per-pair swap prefix with the
// heat-rank pair ("mc3.swap_rate.0-1", ...).
inline constexpr const char* kGaugeMcmcProposedPrefix = "mcmc.proposed.";
inline constexpr const char* kGaugeMcmcAcceptedPrefix = "mcmc.accepted.";
inline constexpr const char* kGaugeMcmcAcceptRatePrefix = "mcmc.accept_rate.";
inline constexpr const char* kGaugeMcmcColdLnL = "mcmc.cold_ln_likelihood";
inline constexpr const char* kGaugeMcmcColdEss = "mcmc.cold_ess";
inline constexpr const char* kGaugeMcmcColdRhat = "mcmc.cold_rhat";
inline constexpr const char* kGaugeMc3SwapRate = "mc3.swap_rate";
inline constexpr const char* kGaugeMc3SwapPairPrefix = "mc3.swap_rate.";
inline constexpr const char* kCounterTelemetryRecords = "telemetry.records";
inline constexpr const char* kTimerTelemetryExport = "telemetry.export";

// Simulated transfer time (the Fig. 12 "PCIe" column; the GPU backend
// publishes its accumulated PCIe seconds here, the Cell backend its DMA
// wait). Simulated seconds never mix into the wall-clock sections — the
// report keeps them in a separate, clearly-labeled row.
inline constexpr const char* kGaugeTransferSimSeconds = "backend.transfer_sim_s";

// Cell/BE simulator.
inline constexpr const char* kCounterCellMailboxMessages = "cell.mailbox_messages";
inline constexpr const char* kCounterCellPlfInvocations = "cell.plf_invocations";
inline constexpr const char* kGaugeCellSimPlfSeconds = "cell.sim_plf_s";
inline constexpr const char* kGaugeCellSpuDmaWaitSeconds = "cell.spu_dma_wait_s";
inline constexpr const char* kGaugeCellDmaBytes = "cell.dma_bytes";

// GPU simulator.
inline constexpr const char* kCounterGpuKernelLaunches = "gpu.kernel_launches";
inline constexpr const char* kGaugeGpuKernelSimSeconds = "gpu.sim_kernel_s";
inline constexpr const char* kGaugeGpuPcieSimSeconds = "gpu.sim_pcie_s";
inline constexpr const char* kGaugeGpuH2dBytes = "gpu.h2d_bytes";
inline constexpr const char* kGaugeGpuD2hBytes = "gpu.d2h_bytes";

// Engine statistics published as gauges (PlfEngine::publish_stats folds the
// PR 2 site-repeat counters into the registry through these).
inline constexpr const char* kGaugeEngineDownCalls = "engine.down_calls";
inline constexpr const char* kGaugeEngineRootCalls = "engine.root_calls";
inline constexpr const char* kGaugeEngineScaleCalls = "engine.scale_calls";
inline constexpr const char* kGaugeEngineReduceCalls = "engine.reduce_calls";
inline constexpr const char* kGaugeEngineTmBuilds = "engine.tm_builds";
inline constexpr const char* kGaugeEnginePatternIterations =
    "engine.pattern_iterations";
inline constexpr const char* kGaugeRepeatDownHitRate =
    "engine.repeat_down_hit_rate";
inline constexpr const char* kGaugeRepeatRootHitRate =
    "engine.repeat_root_hit_rate";
inline constexpr const char* kGaugeRepeatScaleHitRate =
    "engine.repeat_scale_hit_rate";
inline constexpr const char* kGaugeRepeatCompressionRatio =
    "engine.repeat_compression_ratio";
inline constexpr const char* kGaugeRepeatRebuildSeconds =
    "engine.repeat_rebuild_s";
inline constexpr const char* kGaugeRepeatNodeRebuilds =
    "engine.repeat_node_rebuilds";
inline constexpr const char* kGaugeEnginePlanBuilds = "engine.plan_builds";
inline constexpr const char* kGaugeEnginePlanOps = "engine.plan_ops";
inline constexpr const char* kGaugeEnginePlanLevels = "engine.plan_levels";
inline constexpr const char* kGaugeEngineScalerResums =
    "engine.scaler_resums";
inline constexpr const char* kGaugeEngineScalerDeltaUpdates =
    "engine.scaler_delta_updates";
// Tip-specialized plan ops (docs/KERNELS.md): cherry pair-table gathers,
// tip×inner matvec-free ops, and pair-table (re)builds this engine performed.
inline constexpr const char* kGaugeEngineTipTtOps = "engine.tip_tt_ops";
inline constexpr const char* kGaugeEngineTipTiOps = "engine.tip_ti_ops";
inline constexpr const char* kGaugeEngineTipTablesBuilt =
    "engine.tip_tables_built";

// GPU plan batching: PCIe bytes NOT transferred because a fused op kept its
// CLV block device-resident between the down/root and scale kernels.
inline constexpr const char* kGaugeGpuFusedOps = "gpu.plan_fused_ops";
inline constexpr const char* kGaugeGpuPcieBytesSaved = "gpu.pcie_bytes_saved";

// Budgeted CLV arena (docs/MEMORY.md). engine.clv_bytes is published at
// engine construction — before the first evaluation — so a --metrics-json
// snapshot taken at any point of a run sees it.
inline constexpr const char* kGaugeEngineClvBytes = "engine.clv_bytes";
inline constexpr const char* kGaugeArenaBudgetBytes = "arena.budget_bytes";
inline constexpr const char* kGaugeArenaEvictions = "arena.evictions";
inline constexpr const char* kGaugeArenaRecomputeOps = "arena.recompute_ops";
inline constexpr const char* kGaugeArenaHitRate = "arena.hit_rate";

}  // namespace plf::obs
