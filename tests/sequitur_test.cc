/**
 * @file
 * Unit and property tests for the SEQUITUR grammar builder: exact
 * reconstruction, the grammar properties (checked by the oracle in
 * grammar_oracle.hh), known-grammar cases, and the terminal bound.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "grammar_oracle.hh"
#include "util/rng.hh"

namespace tstream
{
namespace
{

/** Terminals of rule @p id of @p g. */
std::vector<std::uint64_t>
expandRule(const Sequitur &g, std::uint32_t id)
{
    return oracle::expand(oracle::snapshot(g), id);
}

std::vector<std::uint64_t>
buildAndExpand(const std::vector<std::uint64_t> &in)
{
    Sequitur g;
    g.appendAll(in);
    return expandRule(g, Sequitur::kRootRule);
}

/** Ids of the live rules of @p g, the root included. */
std::vector<std::uint32_t>
liveRuleIds(const Sequitur &g)
{
    const Sequitur::Grammar view = g.grammar();
    std::vector<std::uint32_t> ids;
    for (std::uint32_t id = 0; id < view.numRules(); ++id)
        if (view.live(id))
            ids.push_back(id);
    return ids;
}

TEST(Sequitur, EmptyGrammar)
{
    Sequitur g;
    EXPECT_EQ(g.inputLength(), 0u);
    EXPECT_EQ(g.ruleCount(), 1u); // just the root
    EXPECT_TRUE(expandRule(g, Sequitur::kRootRule).empty());
    EXPECT_EQ(oracle::checkGrammar(g, {}, {}), "");
}

TEST(Sequitur, SingleSymbol)
{
    Sequitur g;
    g.append(42);
    EXPECT_EQ(expandRule(g, Sequitur::kRootRule),
              (std::vector<std::uint64_t>{42}));
    EXPECT_EQ(oracle::checkGrammar(g, {42}, {}), "");
}

TEST(Sequitur, NoRepetitionCreatesNoRules)
{
    const std::vector<std::uint64_t> in{1, 2, 3, 4, 5, 6, 7, 8};
    Sequitur g;
    g.appendAll(in);
    EXPECT_EQ(g.ruleCount(), 1u);
    EXPECT_EQ(oracle::checkGrammar(g, in, {}), "");
}

TEST(Sequitur, ClassicAbcdbc)
{
    // From the SEQUITUR paper: "abcdbc" yields root a A d A with
    // A -> b c.
    const std::vector<std::uint64_t> in{'a', 'b', 'c', 'd', 'b', 'c'};
    Sequitur g;
    g.appendAll(in);
    EXPECT_EQ(g.ruleCount(), 2u);
    EXPECT_EQ(buildAndExpand(in), in);
    EXPECT_EQ(oracle::checkGrammar(g, in, {}), "");
}

TEST(Sequitur, HierarchyFormation)
{
    // "abcdbcabcdbc": the whole half repeats; expect nested rules and a
    // root of two identical non-terminals.
    Sequitur g;
    const std::vector<std::uint64_t> in{'a', 'b', 'c', 'd', 'b', 'c',
                                        'a', 'b', 'c', 'd', 'b', 'c'};
    g.appendAll(in);
    EXPECT_EQ(expandRule(g, Sequitur::kRootRule), in);
    const auto root = oracle::snapshot(g).bodies[Sequitur::kRootRule];
    ASSERT_EQ(root.size(), 2u);
    EXPECT_TRUE(root[0].isRule);
    EXPECT_TRUE(root[1].isRule);
    EXPECT_EQ(root[0].value, root[1].value);
    EXPECT_EQ(oracle::checkGrammar(g, in, {}), "");
}

TEST(Sequitur, RunsOfIdenticalSymbols)
{
    for (std::size_t n = 1; n <= 40; ++n) {
        std::vector<std::uint64_t> in(n, 7);
        Sequitur g;
        g.appendAll(in);
        EXPECT_EQ(expandRule(g, Sequitur::kRootRule), in) << "n=" << n;
        EXPECT_EQ(oracle::checkGrammar(g, in, {}), "") << "n=" << n;
    }
}

TEST(Sequitur, RuleUtilityInlinesSingleUseRules)
{
    // "aabaaab" exercises rule creation then inlining (from the JAIR
    // paper's discussion of utility).
    const std::vector<std::uint64_t> in{'a', 'a', 'b', 'a', 'a', 'a',
                                        'b'};
    Sequitur g;
    g.appendAll(in);
    EXPECT_EQ(expandRule(g, Sequitur::kRootRule), in);
    EXPECT_EQ(oracle::checkGrammar(g, in, {}), "");
    // Every non-root rule must be referenced at least twice.
    for (auto id : liveRuleIds(g)) {
        if (id == Sequitur::kRootRule)
            continue;
        EXPECT_GE(g.ruleRefs(id), 2u);
    }
}

TEST(Sequitur, RuleLengthsMatchExpansion)
{
    Sequitur g;
    std::vector<std::uint64_t> in;
    for (int rep = 0; rep < 6; ++rep)
        for (std::uint64_t v : {1, 2, 3, 4, 5, 9, 2, 3, 4, 7})
            in.push_back(v);
    g.appendAll(in);
    const auto lens = g.grammar().ruleLengths();
    for (auto id : liveRuleIds(g)) {
        EXPECT_EQ(lens[id], expandRule(g, id).size()) << "rule " << id;
    }
    EXPECT_EQ(lens[Sequitur::kRootRule], in.size());
}

TEST(Sequitur, DetectsLongRepeatedSequence)
{
    // A 50-symbol "stream" occurring three times among noise: expect a
    // rule whose expansion length is (close to) 50.
    Rng rng(123);
    std::vector<std::uint64_t> stream;
    for (int i = 0; i < 50; ++i)
        stream.push_back(1000 + i);

    std::vector<std::uint64_t> in;
    auto noise = [&](int n) {
        for (int i = 0; i < n; ++i)
            in.push_back(rng.range(1, 500)); // mostly unique pairs
    };
    noise(100);
    in.insert(in.end(), stream.begin(), stream.end());
    noise(100);
    in.insert(in.end(), stream.begin(), stream.end());
    noise(100);
    in.insert(in.end(), stream.begin(), stream.end());

    Sequitur g;
    g.appendAll(in);
    EXPECT_EQ(expandRule(g, Sequitur::kRootRule), in);

    const auto lens = g.grammar().ruleLengths();
    std::uint64_t longest = 0;
    for (auto id : liveRuleIds(g))
        if (id != Sequitur::kRootRule)
            longest = std::max(longest, lens[id]);
    EXPECT_GE(longest, 45u);
    EXPECT_EQ(oracle::checkGrammar(g, in, {}), "");
}

// ---------------------------------------------------------------------
// Property tests over random inputs: exact reconstruction and both
// SEQUITUR invariants for a spread of alphabet sizes and lengths.
// ---------------------------------------------------------------------

struct SequiturPropertyParam
{
    std::uint64_t seed;
    std::size_t length;
    std::uint64_t alphabet;
};

class SequiturPropertyTest
    : public ::testing::TestWithParam<SequiturPropertyParam>
{
};

TEST_P(SequiturPropertyTest, ReconstructsInputAndKeepsInvariants)
{
    const auto param = GetParam();
    Rng rng(param.seed);
    std::vector<std::uint64_t> in(param.length);
    for (auto &v : in)
        v = rng.below(param.alphabet);

    Sequitur g;
    g.appendAll(in);
    EXPECT_EQ(expandRule(g, Sequitur::kRootRule), in);
    EXPECT_EQ(oracle::checkGrammar(g, in, {}), "");
}

INSTANTIATE_TEST_SUITE_P(
    RandomInputs, SequiturPropertyTest,
    ::testing::Values(
        SequiturPropertyParam{1, 10, 2}, SequiturPropertyParam{2, 100, 2},
        SequiturPropertyParam{3, 1000, 2},
        SequiturPropertyParam{4, 10000, 2},
        SequiturPropertyParam{5, 100, 4},
        SequiturPropertyParam{6, 1000, 4},
        SequiturPropertyParam{7, 10000, 4},
        SequiturPropertyParam{8, 1000, 16},
        SequiturPropertyParam{9, 10000, 16},
        SequiturPropertyParam{10, 50000, 16},
        SequiturPropertyParam{11, 1000, 256},
        SequiturPropertyParam{12, 10000, 256},
        SequiturPropertyParam{13, 50000, 1024},
        SequiturPropertyParam{14, 20000, 8},
        SequiturPropertyParam{15, 30000, 3}));

TEST(Sequitur, RepeatedBlocksWithPeriodicStructure)
{
    // Periodic input with a long period: SEQUITUR should compress the
    // repetition heavily (few root symbols relative to input).
    std::vector<std::uint64_t> period;
    Rng rng(77);
    for (int i = 0; i < 97; ++i)
        period.push_back(rng.below(64));

    std::vector<std::uint64_t> in;
    for (int rep = 0; rep < 50; ++rep)
        in.insert(in.end(), period.begin(), period.end());
    Sequitur g;
    g.appendAll(in);

    EXPECT_EQ(g.inputLength(), 97u * 50u);
    const auto root = oracle::snapshot(g).bodies[Sequitur::kRootRule];
    EXPECT_LT(root.size(), 97u * 5u);
    const auto out = expandRule(g, Sequitur::kRootRule);
    ASSERT_EQ(out.size(), 97u * 50u);
    for (std::size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i], period[i % 97]) << "at " << i;
    EXPECT_EQ(oracle::checkGrammar(g, in, {}), "");
}

TEST(Sequitur, TerminalsUpToTheBound)
{
    // The largest terminals share a symbol word with rule references
    // (bit 31) and guards (bits 31 and 30): they must still read back
    // as terminals and form rules like any other.
    const std::uint64_t top = Sequitur::kTerminalLimit - 1;
    const std::uint64_t bit30 = std::uint64_t{1} << 30;
    const std::vector<std::uint64_t> in{top, bit30, top - 1, top, bit30,
                                        top - 1, 0, top, bit30};
    Sequitur g;
    g.appendAll(in);
    EXPECT_EQ(expandRule(g, Sequitur::kRootRule), in);
    EXPECT_EQ(g.ruleCount(), 3u); // root, A -> top bit30, B -> A top-1
    EXPECT_EQ(oracle::checkGrammar(g, in, {}), "");
}

TEST(SequiturDeathTest, RejectsTerminalAtTheBound)
{
    Sequitur g;
    g.append(Sequitur::kTerminalLimit - 1);
    EXPECT_DEATH(g.append(std::uint64_t{1} << 31), "terminal value too large");
}

} // namespace
} // namespace tstream
