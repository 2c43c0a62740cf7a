/**
 * @file
 * google-benchmark microbenchmarks of the analysis substrate: SEQUITUR
 * grammar construction, cache replacement (miss-then-fill), cache-
 * hierarchy simulation (per-block and batched engine runs), stride
 * detection, the full stream-analysis pipeline, and the
 * scenario-subsystem hot paths (KV slab/LRU, broker append/replay).
 * The *Recorded series run SEQUITUR, stride labelling and the stream
 * analysis on the off-chip traces of quick-budget cells, and replay
 * the block accesses those cells' memory models received into a fresh
 * model; each cell is simulated once per process.
 * BENCH_baseline.json at the repo root records these series;
 * `tstream-bench trend` gates regressions against it
 * (docs/BENCHMARKING.md).
 */

#include <benchmark/benchmark.h>

#include <unordered_map>

#include "core/sequitur.hh"
#include "core/stream_analysis.hh"
#include "core/stride.hh"
#include "kernel/kernel.hh"
#include "kv/kvstore.hh"
#include "mem/block_table.hh"
#include "mem/cache.hh"
#include "mem/multichip.hh"
#include "mem/singlechip.hh"
#include "mq/broker.hh"
#include "sim/engine.hh"
#include "sim/experiment.hh"
#include "util/rng.hh"

namespace tstream
{
namespace
{

std::vector<std::uint64_t>
makeInput(std::size_t n, std::uint64_t alphabet, double repeat_frac)
{
    Rng rng(99);
    // A mix of random symbols and a recurring motif, roughly like a
    // miss trace with temporal streams.
    std::vector<std::uint64_t> motif(32);
    for (auto &v : motif)
        v = rng.below(alphabet);
    std::vector<std::uint64_t> out;
    out.reserve(n);
    while (out.size() < n) {
        if (rng.chance(repeat_frac)) {
            for (auto v : motif)
                out.push_back(v);
        } else {
            out.push_back(rng.below(alphabet));
        }
    }
    out.resize(n);
    return out;
}

void
BM_SequiturAppend(benchmark::State &state)
{
    const auto input = makeInput(
        static_cast<std::size_t>(state.range(0)), 4096, 0.5);
    for (auto _ : state) {
        Sequitur g;
        g.appendAll(input);
        benchmark::DoNotOptimize(g.ruleCount());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(input.size()));
}
BENCHMARK(BM_SequiturAppend)->Arg(10000)->Arg(100000)->Arg(1000000);

void
BM_CacheMissFill(benchmark::State &state)
{
    // The replacement kernel alone, in fills per second: the paper's
    // L2 geometry with twice its ways in blocks cycling through every
    // set, so under LRU each access (after the first pass fills the
    // empty ways) is a lookup miss followed by an evicting fill.
    Cache c(cachecfg::kL2);
    const BlockId sets = cachecfg::kL2.numSets();
    const BlockId span = 2 * cachecfg::kL2.ways;
    BlockId set = 0, k = 0;
    std::int64_t evictions = 0;
    for (auto _ : state) {
        const BlockId blk = set + k * sets;
        if (!c.lookup(blk))
            evictions += c.fill(blk, CohState::Shared).has_value();
        if (++set == sets) {
            set = 0;
            k = (k + 1) % span;
        }
    }
    benchmark::DoNotOptimize(evictions);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheMissFill);

/*
 * The two uniform series draw blocks from a span of 2^22 blocks
 * (256 MiB, 32x one L2, so nearly every access misses on chip) whose
 * BlockTable pages are all touched before the timing loop, so they
 * time the protocol's per-block path and not page allocation (a break
 * in the series, docs/BENCHMARKING.md). The *AccessRecorded series
 * below time recorded access streams instead.
 */
constexpr std::uint64_t kUniformSpanBlocks = std::uint64_t{1} << 22;

/** @p sys with a record in every BlockTable page of the uniform span. */
template <typename System>
void
touchUniformSpan(System &sys)
{
    for (std::uint64_t b = 0; b < kUniformSpanBlocks;
         b += BlockTable<int>::kPageBlocks) {
        Access a;
        a.addr = b * kBlockSize;
        a.size = 64;
        sys.accessBlock(a);
    }
}

void
BM_MultiChipAccess(benchmark::State &state)
{
    MultiChipSystem sys;
    touchUniformSpan(sys);
    sys.setTracing(true);
    Rng rng(7);
    for (auto _ : state) {
        Access a;
        a.addr = rng.below(kUniformSpanBlocks) * kBlockSize;
        a.size = 64;
        a.cpu = static_cast<CpuId>(rng.below(16));
        a.type = rng.chance(0.3) ? AccessType::Write : AccessType::Read;
        sys.accessBlock(a);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MultiChipAccess);

void
BM_SingleChipAccess(benchmark::State &state)
{
    SingleChipSystem sys;
    touchUniformSpan(sys);
    sys.setTracing(true);
    Rng rng(7);
    for (auto _ : state) {
        Access a;
        a.addr = rng.below(kUniformSpanBlocks) * kBlockSize;
        a.size = 64;
        a.cpu = static_cast<CpuId>(rng.below(4));
        a.type = rng.chance(0.3) ? AccessType::Write : AccessType::Read;
        sys.accessBlock(a);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SingleChipAccess);

void
BM_EngineAccessRuns(benchmark::State &state)
{
    // The engine's batched path: runs of same-CPU sequential reads (a
    // request parse / value stream shape) flushed through
    // MemorySystem::accessRun with one virtual dispatch per run,
    // versus the per-block dispatch BM_*ChipAccess measures.
    Engine eng(std::make_unique<SingleChipSystem>(), 7);
    Rng rng(7);
    for (auto _ : state) {
        const auto cpu = static_cast<CpuId>(rng.below(4));
        const Addr base = rng.below(1 << 26) * kBlockSize;
        for (unsigned i = 0; i < 16; ++i)
            eng.read(cpu, base + i * kBlockSize, 64, 0);
    }
    eng.flushAccesses();
    benchmark::DoNotOptimize(eng.totalInstructions());
    state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_EngineAccessRuns);

void
BM_KvStoreGetSet(benchmark::State &state)
{
    // The PR 4 scenario hot path: hash-index walk, slab value
    // traffic, LRU recycling — a 90/10 get/set mix over a uniform
    // key population, like the KV workload's serve loop.
    Engine eng(std::make_unique<SingleChipSystem>(), 17);
    Kernel kern(eng);
    SysCtx ctx(eng, kern, 0, nullptr);
    KvConfig cfg;
    cfg.rescale(0.25);
    KvStore store(cfg, eng.registry(), /*pid=*/440);
    Rng rng(5);
    for (auto _ : state) {
        const std::uint64_t key = rng.below(cfg.keys);
        if (rng.chance(0.9)) {
            if (store.get(ctx, key) == 0)
                store.set(ctx, key, store.valueBlocks(key));
        } else {
            store.set(ctx, key, store.valueBlocks(key));
        }
    }
    benchmark::DoNotOptimize(store.hits());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvStoreGetSet);

void
BM_BrokerPublishReplay(benchmark::State &state)
{
    // Broker append + cursor replay: producer appends across topics
    // (rolling into recycled segments, trimming retention), one
    // consumer replays topic 0 in batches.
    Engine eng(std::make_unique<SingleChipSystem>(), 23);
    Kernel kern(eng);
    SysCtx ctx(eng, kern, 0, nullptr);
    MqConfig cfg;
    cfg.rescale(0.25);
    Broker broker(cfg, eng.registry(), /*pid=*/441);
    const std::size_t cur = broker.subscribe(0);
    Rng rng(6);
    for (auto _ : state) {
        const auto topic =
            static_cast<std::uint32_t>(rng.below(cfg.topics));
        broker.publish(ctx, topic,
                       256 + static_cast<std::uint32_t>(
                                 rng.below(1024)));
        broker.consume(ctx, cur, 4096);
    }
    benchmark::DoNotOptimize(broker.delivered());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BrokerPublishReplay);

void
BM_StrideDetector(benchmark::State &state)
{
    Rng rng(3);
    StrideDetector det;
    std::uint64_t base = 0;
    for (auto _ : state) {
        base += rng.chance(0.7) ? 1 : rng.below(1000);
        benchmark::DoNotOptimize(
            det.observe(static_cast<CpuId>(rng.below(4)), base));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StrideDetector);

void
BM_FullStreamAnalysis(benchmark::State &state)
{
    // Synthesize a plausible trace and time the whole analysis.
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const auto blocks = makeInput(n, 1 << 20, 0.4);
    MissTrace trace;
    trace.numCpus = 4;
    Rng rng(11);
    for (std::size_t i = 0; i < n; ++i) {
        trace.misses.push_back(MissRecord{
            i, blocks[i], static_cast<CpuId>(rng.below(4)), 0, 0});
    }
    trace.instructions = n * 100;
    for (auto _ : state) {
        StreamStats st = analyzeStreams(trace);
        benchmark::DoNotOptimize(st.grammarRules);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FullStreamAnalysis)->Arg(100000)->Arg(500000);

/** A memory model that forwards to another and keeps every block
 *  access it forwards, noting where tracing was switched on. */
class RecordingMemory final : public MemorySystem
{
  public:
    explicit RecordingMemory(std::unique_ptr<MemorySystem> inner)
        : inner_(std::move(inner))
    {
    }

    void
    accessBlock(const Access &acc) override
    {
        accessBlockRun(&acc, 1);
    }

    void
    accessBlockRun(const Access *accs, std::size_t n) override
    {
        if (inner_->tracing() != tracing()) {
            inner_->setTracing(tracing());
            if (tracing())
                warmupAccesses = accesses.size();
        }
        accesses.insert(accesses.end(), accs, accs + n);
        inner_->accessBlockRun(accs, n);
    }

    unsigned numCpus() const override { return inner_->numCpus(); }

    MemorySystem &inner() { return *inner_; }

    std::vector<Access> accesses;   ///< every block access forwarded
    std::size_t warmupAccesses = 0; ///< how many came before tracing

  private:
    std::unique_ptr<MemorySystem> inner_;
};

/**
 * One quick-budget cell: the off-chip trace runExperiment() collects,
 * and the block accesses its model received, the first warmupAccesses
 * of them untraced.
 */
struct RecordedCell
{
    MissTrace offChip;
    std::vector<Access> accesses;
    std::size_t warmupAccesses = 0;
};

/**
 * The quick-budget cell of workload W in context C, simulated on first
 * use and kept for the process: runExperiment()'s steps with a
 * RecordingMemory between the engine and the model.
 */
template <WorkloadKind W, SystemContext C>
const RecordedCell &
recordedCell()
{
    static const RecordedCell cell = [] {
        RecordedCell out;
        std::unique_ptr<MemorySystem> model;
        if (C == SystemContext::MultiChip)
            model = std::make_unique<MultiChipSystem>();
        else
            model = std::make_unique<SingleChipSystem>();
        auto rec = std::make_unique<RecordingMemory>(std::move(model));
        RecordingMemory &recorder = *rec;
        Engine eng(std::move(rec), ExperimentConfig{}.seed);
        Kernel kern(eng);
        WorkloadSpec spec;
        spec.kind = W;
        spec.scale = kQuickBudgets.scale;
        spec.seed = ExperimentConfig{}.seed;
        auto workload = makeWorkload(spec);
        workload->setup(kern);
        eng.setTracing(false);
        kern.run(kQuickBudgets.warmupInstructions);
        eng.setTracing(true);
        kern.run(kQuickBudgets.measureInstructions);
        eng.finalizeTraces();
        out.offChip = std::move(recorder.inner().offChipTrace());
        out.offChip.instructions = eng.totalInstructions();
        out.accesses = std::move(recorder.accesses);
        out.warmupAccesses = recorder.warmupAccesses;
        return out;
    }();
    return cell;
}

/** The off-chip trace of the quick multi-chip cell of workload W. */
template <WorkloadKind W>
const MissTrace &
recordedTrace()
{
    return recordedCell<W, SystemContext::MultiChip>().offChip;
}

/**
 * The SEQUITUR input analyzeStreams() builds from @p t: each CPU's
 * misses in order, blocks numbered densely by first appearance, each
 * CPU's section closed by a fresh id. It is built once, outside the
 * timed loop, so it stays a plain standalone copy rather than a hook
 * into the analysis.
 */
std::vector<std::uint32_t>
sequiturInput(const MissTrace &t)
{
    std::vector<std::uint32_t> in;
    std::unordered_map<BlockId, std::uint32_t> ids;
    std::uint32_t next = 0;
    for (unsigned c = 0; c < std::max(1u, t.numCpus); ++c) {
        for (const MissRecord &m : t.misses) {
            if (m.cpu != c)
                continue;
            auto [it, fresh] = ids.try_emplace(m.block, next);
            next += fresh;
            in.push_back(it->second);
        }
        in.push_back(next++);
    }
    return in;
}

void
BM_SequiturRecorded(benchmark::State &state, const MissTrace &(*trace)())
{
    const auto input = sequiturInput(trace());
    for (auto _ : state) {
        Sequitur g;
        g.reserve(input.size());
        g.appendAll(input);
        benchmark::DoNotOptimize(g.ruleCount());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(input.size()));
}
BENCHMARK_CAPTURE(BM_SequiturRecorded, DSS_Qry1_multi_chip,
                  &recordedTrace<WorkloadKind::DssQ1>)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SequiturRecorded, Apache_multi_chip,
                  &recordedTrace<WorkloadKind::Apache>)
    ->Unit(benchmark::kMillisecond);

void
BM_StreamAnalysisRecorded(benchmark::State &state,
                          const MissTrace &(*recorded)())
{
    const MissTrace &trace = recorded();
    for (auto _ : state) {
        StreamStats st = analyzeStreams(trace);
        benchmark::DoNotOptimize(st.grammarRules);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(trace.misses.size()));
}
BENCHMARK_CAPTURE(BM_StreamAnalysisRecorded, DSS_Qry1_multi_chip,
                  &recordedTrace<WorkloadKind::DssQ1>)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_StreamAnalysisRecorded, Apache_multi_chip,
                  &recordedTrace<WorkloadKind::Apache>)
    ->Unit(benchmark::kMillisecond);

/**
 * Stride labelling of a recorded trace as analyzeStreams() does it:
 * one detector fed each CPU's misses in order. The per-CPU order is
 * built once, outside the timed loop.
 */
void
BM_StrideRecorded(benchmark::State &state, const MissTrace &(*recorded)())
{
    const MissTrace &trace = recorded();
    std::vector<MissRecord> byCpu;
    byCpu.reserve(trace.misses.size());
    for (unsigned c = 0; c < std::max(1u, trace.numCpus); ++c)
        for (const MissRecord &m : trace.misses)
            if (m.cpu == c)
                byCpu.push_back(m);
    for (auto _ : state) {
        StrideDetector det;
        std::size_t strided = 0;
        for (const MissRecord &m : byCpu)
            strided += det.observe(m.cpu, m.block);
        benchmark::DoNotOptimize(strided);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(byCpu.size()));
}
BENCHMARK_CAPTURE(BM_StrideRecorded, DSS_Qry1_multi_chip,
                  &recordedTrace<WorkloadKind::DssQ1>)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_StrideRecorded, Apache_multi_chip,
                  &recordedTrace<WorkloadKind::Apache>)
    ->Unit(benchmark::kMillisecond);

/**
 * Replay a recorded cell's block accesses into a fresh System, the
 * warm-up untraced, in blocks per second; building and freeing the
 * model is not timed. Unlike BM_*ChipAccess's uniform span, the
 * stream has the cell's locality, sharing and I/O writes.
 */
template <typename System>
void
BM_AccessRecorded(benchmark::State &state, const RecordedCell &cell)
{
    const Access *accs = cell.accesses.data();
    const std::size_t warm = cell.warmupAccesses;
    for (auto _ : state) {
        state.PauseTiming();
        auto sys = std::make_unique<System>();
        state.ResumeTiming();
        sys->accessBlockRun(accs, warm);
        sys->setTracing(true);
        sys->accessBlockRun(accs + warm, cell.accesses.size() - warm);
        benchmark::DoNotOptimize(sys->offChipTrace().misses.data());
        state.PauseTiming();
        sys.reset();
        state.ResumeTiming();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(cell.accesses.size()));
}

void
BM_SingleChipAccessRecorded(benchmark::State &state,
                            const RecordedCell &(*cell)())
{
    BM_AccessRecorded<SingleChipSystem>(state, cell());
}
BENCHMARK_CAPTURE(
    BM_SingleChipAccessRecorded, DSS_Qry17,
    &recordedCell<WorkloadKind::DssQ17, SystemContext::SingleChip>)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(
    BM_SingleChipAccessRecorded, DB2_OLTP,
    &recordedCell<WorkloadKind::Oltp, SystemContext::SingleChip>)
    ->Unit(benchmark::kMillisecond);

void
BM_MultiChipAccessRecorded(benchmark::State &state,
                           const RecordedCell &(*cell)())
{
    BM_AccessRecorded<MultiChipSystem>(state, cell());
}
BENCHMARK_CAPTURE(
    BM_MultiChipAccessRecorded, DSS_Qry17,
    &recordedCell<WorkloadKind::DssQ17, SystemContext::MultiChip>)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(
    BM_MultiChipAccessRecorded, DB2_OLTP,
    &recordedCell<WorkloadKind::Oltp, SystemContext::MultiChip>)
    ->Unit(benchmark::kMillisecond);

} // namespace
} // namespace tstream

BENCHMARK_MAIN();
