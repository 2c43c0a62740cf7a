#include "sim/experiment.hh"

#include <algorithm>
#include <cstring>

#include "core/prefetch_policy.hh"
#include "kernel/kernel.hh"
#include "sim/engine.hh"
#include "util/logging.hh"

namespace tstream
{

std::string_view
contextName(SystemContext c)
{
    switch (c) {
      case SystemContext::MultiChip: return "multi-chip";
      case SystemContext::SingleChip: return "single-chip";
    }
    return "<invalid>";
}

namespace
{

/** FNV-1a accumulation step. */
std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 1099511628211ULL;
    }
    return h;
}

std::uint64_t
mixCache(std::uint64_t h, const CacheConfig &c)
{
    h = mix(h, c.sizeBytes);
    return mix(h, c.ways);
}

std::uint64_t
mixDouble(std::uint64_t h, double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(v) == sizeof(bits));
    std::memcpy(&bits, &v, sizeof(bits));
    return mix(h, bits);
}

} // namespace

std::uint64_t
configHash(const ExperimentConfig &cfg)
{
    std::uint64_t h = 14695981039346656037ULL;
    // Schema salt: bump when the trace-affecting fields change.
    h = mix(h, 0x7453545233ULL); // "tSTR3"
    h = mix(h, static_cast<std::uint64_t>(cfg.workload));
    h = mix(h, static_cast<std::uint64_t>(cfg.context));
    h = mix(h, cfg.warmupInstructions);
    h = mix(h, cfg.measureInstructions);
    h = mix(h, cfg.seed);
    h = mixDouble(h, cfg.scale);
    if (workloadIsScenario(cfg.workload)) {
        // Hash the *resolved* schedule — including every key-
        // distribution parameter — so an explicit copy of the
        // compiled-in defaults (e.g. a checked-in workload config
        // spelling them out) collides with the defaulted field, and
        // any real change in mix, duration or distribution
        // re-simulates instead of reusing a stale cached trace.
        const PhaseSchedule sched =
            resolvedSchedule(cfg.workload, cfg.phases);
        h = mix(h, sched.phases.size());
        for (const WorkloadPhase &p : sched.phases) {
            h = mix(h, static_cast<std::uint64_t>(p.kind));
            h = mixDouble(h, p.mix);
            h = mix(h, p.duration);
            h = mix(h, static_cast<std::uint64_t>(p.dist.kind));
            h = mixDouble(h, p.dist.theta);
            h = mixDouble(h, p.dist.hotFrac);
            h = mixDouble(h, p.dist.hotProb);
        }
    }
    if (cfg.context == SystemContext::MultiChip) {
        h = mix(h, cfg.multiChip.nodes);
        h = mixCache(h, cfg.multiChip.l1);
        h = mixCache(h, cfg.multiChip.l2);
    } else {
        h = mix(h, cfg.singleChip.cores);
        h = mixCache(h, cfg.singleChip.l1);
        h = mixCache(h, cfg.singleChip.l2);
    }
    if (cfg.prefetchLoop.enabled) {
        // In-the-loop prefetching thins the recorded trace, so every
        // knob that can change coverage is trace-affecting. Mixed only
        // when enabled: the default (offline) hash — and with it the
        // trace cache and all pre-existing provenance — is untouched.
        h = mix(h, 0x50464C31ULL); // "PFL1"
        for (const char c : cfg.prefetchLoop.policy)
            h = mix(h, static_cast<std::uint64_t>(
                           static_cast<unsigned char>(c)));
        h = mix(h, cfg.prefetchLoop.ts.historyEntries);
        h = mix(h, cfg.prefetchLoop.ts.replayDepth);
        h = mix(h, cfg.prefetchLoop.ts.bufferBlocks);
        h = mix(h, cfg.prefetchLoop.ts.crossCpu ? 1 : 0);
        h = mix(h, cfg.prefetchLoop.strideDegree);
    }
    return h;
}

namespace
{

/**
 * Records to reserve for a trace that saw @p warm misses in a warm-up
 * of @p warmup instructions, before a measurement of @p measure: the
 * warm-up's rate plus a quarter for slack, capped at 2^26 records
 * (1.5 GiB of address space). Reserved pages that are never written
 * are not resident, so an estimate that is too large costs nothing,
 * and one that is too short costs one ordinary regrowth.
 */
std::size_t
traceReserve(std::uint64_t warm, std::uint64_t warmup, std::uint64_t measure)
{
    if (warm == 0 || warmup == 0)
        return 0;
    const double expected = static_cast<double>(warm) *
                            static_cast<double>(measure) /
                            static_cast<double>(warmup);
    return static_cast<std::size_t>(
        std::min(expected * 1.25 + 1024.0,
                 static_cast<double>(std::size_t{1} << 26)));
}

} // namespace

ExperimentResult
runExperiment(const ExperimentConfig &cfg)
{
    std::unique_ptr<MemorySystem> sys;
    if (cfg.context == SystemContext::MultiChip)
        sys = std::make_unique<MultiChipSystem>(cfg.multiChip);
    else
        sys = std::make_unique<SingleChipSystem>(cfg.singleChip);

    Engine eng(std::move(sys), cfg.seed);
    Kernel kern(eng);

    // Prefetcher-in-the-loop: install the hook before warm-up so the
    // predictor trains alongside the caches (warm-up misses are
    // observed but never recorded either way).
    std::unique_ptr<PrefetchLoopEngine> loop;
    if (cfg.prefetchLoop.enabled) {
        PrefetchPolicyParams params;
        params.ts = cfg.prefetchLoop.ts;
        params.strideDegree = cfg.prefetchLoop.strideDegree;
        auto policy = makePrefetchPolicy(cfg.prefetchLoop.policy, params);
        if (!policy)
            panic("runExperiment: unknown prefetch policy '" +
                  cfg.prefetchLoop.policy + "'");
        loop = std::make_unique<PrefetchLoopEngine>(
            std::move(policy), cfg.prefetchLoop.ts.bufferBlocks);
        loop->attach(eng.memory());
    }

    WorkloadSpec spec;
    spec.kind = cfg.workload;
    spec.scale = cfg.scale;
    spec.seed = cfg.seed;
    spec.phases = cfg.phases;
    auto workload = makeWorkload(spec);
    workload->setup(kern);

    // Warm caches, TLBs, the buffer pool and the classifier history
    // without tracing (the paper warms thousands of transactions).
    eng.setTracing(false);
    kern.run(cfg.warmupInstructions);

    // Size the traces from the warm-up's miss counts, so that
    // recording rarely moves them.
    MemorySystem &mem = eng.memory();
    ExperimentResult res;
    res.warmupOffChipMisses = mem.untracedOffChipMisses();
    res.warmupIntraChipMisses = mem.untracedIntraChipMisses();
    std::vector<MissRecord> &off = mem.offChipTrace().misses;
    std::vector<MissRecord> &intra = mem.intraChipTrace().misses;
    off.reserve(traceReserve(res.warmupOffChipMisses,
                             cfg.warmupInstructions,
                             cfg.measureInstructions));
    intra.reserve(traceReserve(res.warmupIntraChipMisses,
                               cfg.warmupInstructions,
                               cfg.measureInstructions));
    const std::size_t offCap = off.capacity();
    const std::size_t intraCap = intra.capacity();

    // Measure.
    eng.setTracing(true);
    kern.run(cfg.measureInstructions);
    eng.finalizeTraces();
    res.traceRegrowths = (off.capacity() != offCap) +
                         (intra.capacity() != intraCap);

    res.offChip = std::move(eng.memory().offChipTrace());
    res.intraChip = std::move(eng.memory().intraChipTrace());
    res.registry = eng.registry();
    res.instructions = eng.totalInstructions();
    res.blockStateBytes = eng.memory().blockStateBytes();
    res.blockStateEntries = eng.memory().blockStateEntries();
    res.cacheBytes = eng.memory().cacheBytes();
    if (loop) {
        res.prefetchEnabled = true;
        res.prefetch = loop->stats();
        res.prefetchCoveredTraced = loop->coveredTraced();
    }
    return res;
}

} // namespace tstream
