/**
 * @file
 * Allocation budgets of the hot paths, proved by a counting global
 * operator new: SEQUITUR construction into a reserved arena, the flat
 * grammar copy, the stream analysis per extra miss, and the memory
 * models once a footprint's per-block state exists. A check that
 * passes must cost nothing, so a panicIf() that built its message
 * before testing the condition would show here as one allocation per
 * symbol or per miss.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/sequitur.hh"
#include "core/stream_analysis.hh"
#include "counting_new.hh"
#include "mem/multichip.hh"
#include "mem/singlechip.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace tstream
{
namespace
{

/** Heap allocations made while running @p f. */
template <typename F>
std::size_t
allocationsIn(F &&f)
{
    const std::size_t before = gAllocs.load(std::memory_order_relaxed);
    f();
    return gAllocs.load(std::memory_order_relaxed) - before;
}

/**
 * @p n symbols shaped like a miss trace: a scan over fresh ids for the
 * first quarter, then recurring motifs mixed with random ids.
 */
std::vector<std::uint32_t>
mixedSymbols(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<std::uint32_t>> motifs(8);
    for (auto &m : motifs) {
        m.resize(4 + rng.below(28));
        for (auto &v : m)
            v = static_cast<std::uint32_t>(rng.below(1 << 16));
    }
    std::vector<std::uint32_t> out;
    out.reserve(n);
    for (std::uint32_t i = 0; out.size() < n / 4; ++i)
        out.push_back((1u << 20) + i);
    while (out.size() < n) {
        if (rng.chance(0.5)) {
            for (auto v : motifs[rng.below(motifs.size())])
                out.push_back(v);
        } else {
            out.push_back(static_cast<std::uint32_t>(rng.below(1 << 16)));
        }
    }
    out.resize(n);
    return out;
}

/** A 4-CPU miss trace of @p n misses over mixedSymbols() blocks. */
MissTrace
mixedTrace(std::size_t n)
{
    const auto blocks = mixedSymbols(n, 11);
    Rng rng(12);
    MissTrace t;
    t.numCpus = 4;
    t.misses.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        t.misses.push_back(MissRecord{
            i, blocks[i], static_cast<CpuId>(rng.below(4)), 0, 0});
    t.instructions = n * 100;
    return t;
}

TEST(HotPathAlloc, PassingPanicIfAllocatesNothing)
{
    volatile bool cond = false;
    EXPECT_EQ(allocationsIn([&] {
                  for (int i = 0; i < 1000; ++i)
                      panicIf(cond, "a message longer than the SSO buffer");
              }),
              0u);
}

TEST(HotPathAllocDeathTest, FailingPanicIfPrintsItsMessage)
{
    EXPECT_DEATH(panicIf(true, "m"), "panic: m");
}

TEST(HotPathAlloc, ReservedSequiturAppendsInLogarithmicAllocations)
{
    const auto input = mixedSymbols(200000, 3);
    Sequitur g;
    g.reserve(input.size());
    const std::size_t n = allocationsIn([&] { g.appendAll(input); });
    EXPECT_GT(g.ruleCount(), 100u) << "the input should build rules";
    EXPECT_LE(n, 64u) << "appending " << input.size()
                      << " reserved symbols allocated " << n << " times";
}

TEST(HotPathAlloc, GrammarCopyAllocatesAConstantNumberOfTimes)
{
    std::size_t counts[2] = {0, 0};
    const std::size_t sizes[2] = {20000, 200000};
    for (int k = 0; k < 2; ++k) {
        const auto input = mixedSymbols(sizes[k], 4);
        Sequitur g;
        g.reserve(input.size());
        g.appendAll(input);
        counts[k] = allocationsIn([&] {
            const Sequitur::Grammar gr = g.grammar();
            EXPECT_GT(gr.numRules(), 1u);
        });
    }
    EXPECT_EQ(counts[0], counts[1]);
    EXPECT_LE(counts[1], 4u);
}

TEST(HotPathAlloc, StreamAnalysisAllocationsDoNotGrowWithTheTrace)
{
    const MissTrace small = mixedTrace(50000);
    const MissTrace large = mixedTrace(100000);
    std::uint64_t rules[2] = {0, 0};
    const std::size_t a = allocationsIn(
        [&] { rules[0] = analyzeStreams(small).grammarRules; });
    const std::size_t b = allocationsIn(
        [&] { rules[1] = analyzeStreams(large).grammarRules; });
    EXPECT_GT(rules[1], rules[0] + 100) << "the larger trace has more rules";
    EXPECT_LT(b > a ? b - a : 0, 64u)
        << "50k misses: " << a << " allocations, 100k misses: " << b;
}

/**
 * Touch a footprint once, then run the same accesses again with room
 * in both traces: the second pass must not allocate.
 */
template <typename System>
void
expectTouchedFootprintAllocationFree(unsigned cpus)
{
    Rng rng(21);
    std::vector<Access> accs(20000);
    for (Access &a : accs) {
        a.addr = rng.below(1 << 14) * kBlockSize;
        a.size = static_cast<std::uint32_t>(kBlockSize * (1 + rng.below(3)));
        a.cpu = static_cast<CpuId>(rng.below(cpus));
        a.type = rng.chance(0.3) ? AccessType::Write : AccessType::Read;
    }
    System sys;
    sys.setTracing(true);
    sys.accessRun(accs.data(), accs.size());
    const std::size_t blocks = 3 * accs.size();
    sys.offChipTrace().misses.reserve(sys.offChipTrace().misses.size() +
                                      blocks);
    sys.intraChipTrace().misses.reserve(
        sys.intraChipTrace().misses.size() + blocks);
    const std::size_t n =
        allocationsIn([&] { sys.accessRun(accs.data(), accs.size()); });
    EXPECT_EQ(n, 0u);
}

TEST(HotPathAlloc, MultiChipAccessRunOnTouchedFootprintAllocatesNothing)
{
    expectTouchedFootprintAllocationFree<MultiChipSystem>(16);
}

TEST(HotPathAlloc, SingleChipAccessRunOnTouchedFootprintAllocatesNothing)
{
    expectTouchedFootprintAllocationFree<SingleChipSystem>(4);
}

} // namespace
} // namespace tstream
