/**
 * @file
 * Experiment driver: one call runs a (workload, system context) pair —
 * build the hierarchy, spawn the application, warm up untraced, trace,
 * and hand back the miss traces. All benches, tests and examples go
 * through this entry point.
 */

#ifndef TSTREAM_SIM_EXPERIMENT_HH
#define TSTREAM_SIM_EXPERIMENT_HH

#include <cstdint>
#include <memory>
#include <string>

#include "core/prefetch_policy.hh"
#include "mem/multichip.hh"
#include "mem/singlechip.hh"
#include "sim/workload.hh"
#include "trace/record.hh"

namespace tstream
{

/** The paper's three system contexts (Section 3). */
enum class SystemContext
{
    MultiChip,  ///< 16-node DSM; off-chip trace
    SingleChip, ///< 4-core CMP; off-chip + intra-chip traces
};

/** Short context name. */
std::string_view contextName(SystemContext c);

/** One experiment = workload x context x budgets. */
struct ExperimentConfig
{
    WorkloadKind workload = WorkloadKind::Oltp;
    SystemContext context = SystemContext::MultiChip;

    /** Untraced warm-up instructions. */
    std::uint64_t warmupInstructions = 12'000'000;
    /** Traced instructions. */
    std::uint64_t measureInstructions = 40'000'000;

    std::uint64_t seed = 42;

    /** Footprint scale (1.0 = DESIGN.md defaults). */
    double scale = 1.0;

    /**
     * Phase schedule for the scenario workloads (rejected for paper
     * workloads). Empty = the compiled-in defaults (see
     * resolvedSchedule() in sim/workload.hh); typically filled from a
     * workload config file (gen/workload_config.hh). Covered by
     * configHash() in resolved form, so cells under different
     * schedules or key distributions never collide in the trace
     * cache.
     */
    PhaseSchedule phases;

    MultiChipConfig multiChip{};
    SingleChipConfig singleChip{};

    /**
     * Prefetcher-in-the-loop (core/prefetch_policy.hh): when enabled,
     * the named policy runs against the off-chip miss stream *during*
     * the simulation and covered misses are dropped from the recorded
     * trace. Off by default — and deliberately excluded from
     * configHash() while disabled, so every pre-existing hash, cached
     * trace and offline result is untouched.
     */
    struct PrefetchLoopConfig
    {
        bool enabled = false;
        /** Registry name: fixed | adaptive | stride | hybrid. */
        std::string policy = "fixed";
        /** History/depth/buffer geometry (bufferBlocks sizes the
         *  chip-edge prefetch buffer). */
        TsPrefetcherConfig ts;
        /** Stride engine degree (stride / hybrid policies). */
        unsigned strideDegree = 2;
    };
    PrefetchLoopConfig prefetchLoop;

    /** Shrink budgets and footprints for fast unit tests. */
    static ExperimentConfig
    quick(WorkloadKind w, SystemContext c)
    {
        ExperimentConfig cfg;
        cfg.workload = w;
        cfg.context = c;
        cfg.warmupInstructions = 800'000;
        cfg.measureInstructions = 2'500'000;
        cfg.scale = 0.1;
        return cfg;
    }
};

/**
 * Canonical instruction budgets, shared by the bench driver
 * (parseRunArgs in bench/run.hh) and the tstream-trace CLI so that
 * offline analyses of recorded traces reproduce bench rows exactly —
 * the equivalence holds only while both sides read these constants.
 */
struct BudgetPreset
{
    std::uint64_t warmupInstructions;
    std::uint64_t measureInstructions;
    double scale;
};

/** Paper-scale defaults (calibrated in DESIGN.md). */
inline constexpr BudgetPreset kPaperBudgets{25'000'000, 30'000'000,
                                            1.0};

/** --quick smoke-run budgets. */
inline constexpr BudgetPreset kQuickBudgets{2'000'000, 4'000'000, 0.15};

/** Experiment output: the traces plus run diagnostics. */
struct ExperimentResult
{
    MissTrace offChip;
    MissTrace intraChip; ///< empty for MultiChip context
    FunctionRegistry registry;
    std::uint64_t instructions = 0;

    /** Footprint of the model's per-block state table at the end of
     *  the run (MemorySystem::blockStateBytes / blockStateEntries). */
    std::uint64_t blockStateBytes = 0;
    std::uint64_t blockStateEntries = 0;

    /** Bytes of the model's cache tag and LRU arrays
     *  (MemorySystem::cacheBytes). */
    std::uint64_t cacheBytes = 0;

    /** Misses the model saw during the untraced warm-up
     *  (MemorySystem::untracedOffChipMisses / untracedIntraChipMisses);
     *  runExperiment() reserves the traces from them. */
    std::uint64_t warmupOffChipMisses = 0;
    std::uint64_t warmupIntraChipMisses = 0;
    /** Traces (of the two) that outgrew that reservation while
     *  tracing: 0 when the warm-up estimate held. */
    std::uint64_t traceRegrowths = 0;

    /** In-the-loop prefetcher diagnostics (prefetchLoop.enabled runs
     *  only): stats over every observed miss, warm-up included. */
    bool prefetchEnabled = false;
    TsPrefetcherStats prefetch;
    /** Covered misses dropped from the off-chip trace (i.e. covered
     *  while tracing was on). */
    std::uint64_t prefetchCoveredTraced = 0;
};

/** Run one experiment. */
ExperimentResult runExperiment(const ExperimentConfig &cfg);

/**
 * Deterministic 64-bit hash over every field of @p cfg that affects
 * the collected traces (workload, context, budgets, seed, scale, the
 * active context's cache geometry and — for scenario workloads — the
 * resolved phase schedule with all key-distribution parameters),
 * plus a schema salt. Two configs with equal hashes
 * produce byte-identical traces, so the hash keys the bench trace
 * cache (TSTREAM_TRACE_CACHE) and is stored in v2 trace headers for
 * provenance.
 */
std::uint64_t configHash(const ExperimentConfig &cfg);

} // namespace tstream

#endif // TSTREAM_SIM_EXPERIMENT_HH
