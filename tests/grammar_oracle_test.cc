/**
 * @file
 * The grammar oracle (grammar_oracle.hh) over seeded inputs: the
 * SEQUITUR grammar properties on random symbol sequences and on the
 * per-CPU input of random miss traces, the naive relabeler against
 * analyzeStreams() on those traces, and the recorded digests of a
 * fixed set of grammars, which pin every rule's id, references and
 * body. The quick-grid traces get the same checks from
 * grammar_oracle_traces (ctest bench.grammar_oracle_quick_grid).
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "grammar_oracle.hh"
#include "util/rng.hh"

namespace tstream
{
namespace
{

/**
 * A seeded symbol sequence: uniform draws below @p alphabet, mixed
 * with whole copies of one 32-symbol motif with probability
 * @p motifFrac; with @p high the values are mirrored below 2^31, so
 * terminals near the top of the allowed range are covered.
 */
std::vector<std::uint64_t>
seededInput(std::uint64_t seed, std::size_t length, std::uint64_t alphabet,
            double motifFrac, bool high)
{
    Rng rng(seed);
    std::vector<std::uint64_t> motif(32);
    for (auto &v : motif)
        v = rng.below(alphabet);
    std::vector<std::uint64_t> out;
    while (out.size() < length) {
        if (motifFrac > 0 && rng.chance(motifFrac))
            out.insert(out.end(), motif.begin(), motif.end());
        else
            out.push_back(rng.below(alphabet));
    }
    out.resize(length);
    if (high)
        for (auto &v : out)
            v = (std::uint64_t{1} << 31) - 1 - v;
    return out;
}

/**
 * A seeded miss trace shaped like a recorded one: @p ncpu CPUs draw
 * motifs (3..40 blocks) from a shared library, replay them with some
 * truncation, and mix in fresh blocks, private hot blocks and short
 * runs of one block.
 */
MissTrace
seededTrace(std::uint64_t seed, std::size_t misses, unsigned ncpu)
{
    Rng rng(seed);
    std::vector<std::vector<BlockId>> motifs(24);
    for (auto &m : motifs) {
        m.resize(3 + rng.below(38));
        for (auto &b : m)
            b = 0x10000 + rng.below(4096);
    }
    MissTrace t;
    t.numCpus = ncpu;
    BlockId fresh = 1u << 24;
    auto push = [&](CpuId cpu, BlockId b) {
        t.misses.push_back(MissRecord{t.misses.size(), b, cpu, 0, 0});
    };
    while (t.misses.size() < misses) {
        const auto cpu = static_cast<CpuId>(rng.below(ncpu));
        const double pick = rng.uniform();
        if (pick < 0.45) {
            const auto &m = motifs[rng.below(motifs.size())];
            const std::size_t len =
                rng.chance(0.7) ? m.size() : 1 + rng.below(m.size());
            for (std::size_t i = 0; i < len; ++i)
                push(cpu, m[i]);
        } else if (pick < 0.75) {
            push(cpu, fresh++);
        } else if (pick < 0.95) {
            push(cpu, 0x20000 + cpu * 64 + rng.below(64));
        } else {
            const BlockId b = rng.below(8);
            for (std::uint64_t i = 1 + rng.below(6); i > 0; --i)
                push(cpu, b);
        }
    }
    t.instructions = 1000 * t.misses.size();
    return t;
}

struct SequenceCase
{
    std::uint64_t seed;
    std::size_t length;
    std::uint64_t alphabet;
    double motifFrac;
    bool high;
};

class GrammarOracleSequence : public ::testing::TestWithParam<SequenceCase>
{
};

TEST_P(GrammarOracleSequence, KeepsTheGrammarProperties)
{
    const SequenceCase c = GetParam();
    const auto in =
        seededInput(c.seed, c.length, c.alphabet, c.motifFrac, c.high);
    Sequitur g;
    g.appendAll(in);
    EXPECT_EQ(oracle::checkGrammar(g, in, {}), "");
}

INSTANTIATE_TEST_SUITE_P(
    Seeded, GrammarOracleSequence,
    ::testing::Values(SequenceCase{1, 3000, 1, 0, false},
                      SequenceCase{2, 20000, 2, 0, false},
                      SequenceCase{3, 30000, 3, 0, true},
                      SequenceCase{4, 30000, 16, 0.1, false},
                      SequenceCase{5, 50000, 256, 0.3, true},
                      SequenceCase{6, 50000, 4096, 0.5, false},
                      SequenceCase{7, 80000, 1 << 20, 0.4, true}));

TEST(GrammarOracle, RandomTracesRelabelLikeTheAnalysis)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        const unsigned ncpu = 1 + static_cast<unsigned>(seed % 8);
        const MissTrace t = seededTrace(seed, 2000 + 1500 * seed, ncpu);
        const oracle::StreamInput in = oracle::streamInput(t);
        Sequitur g;
        g.appendAll(in.symbols);
        EXPECT_EQ(oracle::checkGrammar(g, in.symbols, in.sentinels), "")
            << "seed " << seed;
        EXPECT_EQ(oracle::compareWithAnalysis(
                      oracle::naiveRelabel(t, in, g), t),
                  "")
            << "seed " << seed;
    }
}

// ---------------------------------------------------------------------
// Grammar digests, recorded from the reference implementation: each
// line of the data file is "seed length alphabet motifFrac high rules
// digest". A mismatch prints the actual line.
// ---------------------------------------------------------------------

TEST(GrammarOracle, GrammarsMatchTheRecordedDigests)
{
    std::ifstream f(std::string(TSTREAM_TEST_DATA_DIR) +
                    "/sequitur_grammar_digests.txt");
    ASSERT_TRUE(f) << "missing sequitur_grammar_digests.txt";
    std::string line;
    int checked = 0;
    while (std::getline(f, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        SequenceCase c{};
        std::size_t rules = 0;
        std::string digest;
        ASSERT_TRUE(ls >> c.seed >> c.length >> c.alphabet >> c.motifFrac >>
                    c.high >> rules >> digest)
            << "malformed line: " << line;
        Sequitur g;
        g.appendAll(
            seededInput(c.seed, c.length, c.alphabet, c.motifFrac, c.high));
        char actual[17];
        std::snprintf(actual, sizeof actual, "%016" PRIx64,
                      oracle::grammarDigest(g));
        EXPECT_EQ(g.ruleCount(), rules) << line;
        EXPECT_EQ(actual, digest)
            << "recorded: " << line << "\nactual:   " << c.seed << ' '
            << c.length << ' ' << c.alphabet << ' ' << c.motifFrac << ' '
            << int{c.high} << ' ' << g.ruleCount() << ' ' << actual;
        ++checked;
    }
    EXPECT_GE(checked, 8);
}

} // namespace
} // namespace tstream
