/**
 * @file
 * Test-only oracle for the temporal-stream analysis, independent of
 * the code it checks:
 *
 *  - checkGrammar() verifies a finished SEQUITUR grammar against its
 *    input: the root expands to the input, no digram occurs twice
 *    (except overlapping occurrences in a same-symbol run), every
 *    non-root rule has a body of at least two symbols and is
 *    referenced at least twice (and as often as Sequitur::ruleRefs()
 *    says), and no rule's expansion contains a CPU sentinel
 *    (Sequitur::grammar() itself panics on broken symbol links);
 *  - naiveRelabel() recomputes analyzeStreams()' per-miss labels,
 *    stream lengths and reuse distances from explicit root-level rule
 *    expansions, without the derivation walk's shortcuts, and
 *    compareWithAnalysis() diffs the two;
 *  - grammarDigest() hashes every live rule's id, reference count and
 *    body, so a test can pin a grammar exactly, not just its
 *    statistics.
 *
 * Every check returns "" on success or a one-line diagnostic, so the
 * gtest suites and the recorded-trace checker share them.
 */

#ifndef TSTREAM_TESTS_GRAMMAR_ORACLE_HH
#define TSTREAM_TESTS_GRAMMAR_ORACLE_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/sequitur.hh"
#include "core/stream_analysis.hh"
#include "trace/record.hh"

namespace tstream::oracle
{

/** One body symbol: a terminal value or a rule id. */
struct Sym
{
    bool isRule = false;
    std::uint64_t value = 0;

    bool
    operator==(const Sym &o) const
    {
        return isRule == o.isRule && value == o.value;
    }
};

/** Every rule's body by id; dead ids have live == false. */
struct Snapshot
{
    std::vector<bool> live;
    std::vector<std::vector<Sym>> bodies;
    std::vector<std::uint32_t> refs;
};

/** Copy @p g's rules out of its flat grammar view. */
inline Snapshot
snapshot(const Sequitur &g)
{
    using View = Sequitur::Grammar;
    const View view = g.grammar();
    Snapshot s;
    const std::uint32_t n = view.numRules();
    s.live.assign(n, false);
    s.bodies.resize(n);
    s.refs.assign(n, 0);
    for (std::uint32_t id = 0; id < n; ++id) {
        if (!view.live(id))
            continue;
        s.live[id] = true;
        s.refs[id] = g.ruleRefs(id);
        for (const std::uint32_t *p = view.begin(id); p != view.end(id);
             ++p)
            s.bodies[id].push_back({View::isRule(*p), View::valueOf(*p)});
    }
    return s;
}

/** Terminals of rule @p id, expanded with an explicit stack. */
inline std::vector<std::uint64_t>
expand(const Snapshot &s, std::uint32_t id)
{
    std::vector<std::uint64_t> out;
    std::vector<std::pair<std::uint32_t, std::size_t>> stack{{id, 0}};
    while (!stack.empty()) {
        auto &[rule, idx] = stack.back();
        if (idx == s.bodies[rule].size()) {
            stack.pop_back();
            continue;
        }
        const Sym sym = s.bodies[rule][idx++];
        if (sym.isRule)
            stack.push_back({static_cast<std::uint32_t>(sym.value), 0});
        else
            out.push_back(sym.value);
    }
    return out;
}

inline std::string
symText(const Sym &s)
{
    return (s.isRule ? "R" : "t") + std::to_string(s.value);
}

/**
 * Check @p g, built from @p input, for the four grammar properties in
 * the file doc. @p sentinels are the terminals that end a CPU section.
 */
inline std::string
checkGrammar(const Sequitur &g, const std::vector<std::uint64_t> &input,
             const std::set<std::uint64_t> &sentinels)
{
    const Snapshot s = snapshot(g);
    const std::uint32_t n = static_cast<std::uint32_t>(s.live.size());

    const std::vector<std::uint64_t> root =
        expand(s, Sequitur::kRootRule);
    if (root.size() != input.size())
        return "root expands to " + std::to_string(root.size()) +
               " terminals, input has " + std::to_string(input.size());
    for (std::size_t i = 0; i < root.size(); ++i)
        if (root[i] != input[i])
            return "root expansion differs from the input at position " +
                   std::to_string(i);

    // Digram uniqueness: each occurrence of a digram must overlap the
    // previous one (adjacent positions of one rule, same symbol twice).
    using Key = std::tuple<bool, std::uint64_t, bool, std::uint64_t>;
    std::map<Key, std::pair<std::uint32_t, std::size_t>> last;
    std::vector<std::uint32_t> uses(n, 0);
    for (std::uint32_t id = 0; id < n; ++id) {
        if (!s.live[id])
            continue;
        const auto &b = s.bodies[id];
        if (id != Sequitur::kRootRule && b.size() < 2)
            return "rule " + std::to_string(id) + " has a body of " +
                   std::to_string(b.size()) + " symbol(s)";
        for (std::size_t i = 0; i < b.size(); ++i) {
            if (b[i].isRule) {
                if (b[i].value >= n || !s.live[b[i].value])
                    return "rule " + std::to_string(id) +
                           " references dead rule " + symText(b[i]);
                ++uses[b[i].value];
            }
            if (i + 1 == b.size())
                continue;
            const Key k{b[i].isRule, b[i].value, b[i + 1].isRule,
                        b[i + 1].value};
            auto [it, fresh] = last.try_emplace(k, id, i);
            if (!fresh) {
                const bool overlap = it->second.first == id &&
                                     it->second.second + 1 == i &&
                                     b[i] == b[i + 1];
                if (!overlap)
                    return "digram " + symText(b[i]) + " " +
                           symText(b[i + 1]) + " occurs in rule " +
                           std::to_string(it->second.first) + " at " +
                           std::to_string(it->second.second) +
                           " and in rule " + std::to_string(id) + " at " +
                           std::to_string(i);
                it->second = {id, i};
            }
        }
    }

    for (std::uint32_t id = 1; id < n; ++id) {
        if (!s.live[id])
            continue;
        if (uses[id] < 2)
            return "rule " + std::to_string(id) + " is referenced " +
                   std::to_string(uses[id]) + " time(s)";
        if (uses[id] != s.refs[id])
            return "rule " + std::to_string(id) + " is referenced " +
                   std::to_string(uses[id]) + " times, ruleRefs says " +
                   std::to_string(s.refs[id]);
    }

    // Sentinels: a rule contains one if its body holds one or one of
    // its rules contains one (post-order over an explicit stack).
    std::vector<std::uint8_t> state(n, 0); // 0 new, 1 open, 2 done
    std::vector<bool> hasSentinel(n, false);
    for (std::uint32_t top = 1; top < n; ++top) {
        if (!s.live[top] || state[top] == 2)
            continue;
        std::vector<std::uint32_t> stack{top};
        while (!stack.empty()) {
            const std::uint32_t id = stack.back();
            if (state[id] == 0) {
                state[id] = 1;
                for (const Sym &sym : s.bodies[id])
                    if (sym.isRule && state[sym.value] == 0)
                        stack.push_back(
                            static_cast<std::uint32_t>(sym.value));
                continue;
            }
            stack.pop_back();
            if (state[id] == 2)
                continue;
            state[id] = 2;
            for (const Sym &sym : s.bodies[id])
                if (sym.isRule ? hasSentinel[sym.value]
                               : sentinels.count(sym.value) != 0)
                    hasSentinel[id] = true;
            if (hasSentinel[id])
                return "rule " + std::to_string(id) +
                       " expands across a CPU sentinel";
        }
    }
    return "";
}

/** The per-CPU concatenated SEQUITUR input of a miss trace. */
struct StreamInput
{
    std::vector<std::uint64_t> symbols;
    /** Miss index of each position; -1 at a sentinel. */
    std::vector<std::int64_t> miss;
    std::set<std::uint64_t> sentinels;
};

/** Sentinel of CPU c is kSentinelBase + c, above every block id. */
constexpr std::uint64_t kSentinelBase = std::uint64_t{1} << 30;

/**
 * Build the analysis input the slow way: each CPU's misses in trace
 * order, blocks numbered by first appearance through a std::map, each
 * CPU's section closed by its own sentinel. SEQUITUR only compares
 * terminals for equality, so any injective numbering yields the same
 * grammar as the analysis' own.
 */
inline StreamInput
streamInput(const MissTrace &t)
{
    StreamInput in;
    std::map<BlockId, std::uint64_t> ids;
    const unsigned ncpu = std::max(1u, t.numCpus);
    for (unsigned c = 0; c < ncpu; ++c) {
        for (std::size_t i = 0; i < t.misses.size(); ++i) {
            if (t.misses[i].cpu != c)
                continue;
            const auto it = ids.emplace(t.misses[i].block, ids.size()).first;
            in.symbols.push_back(it->second);
            in.miss.push_back(static_cast<std::int64_t>(i));
        }
        in.symbols.push_back(kSentinelBase + c);
        in.miss.push_back(-1);
        in.sentinels.insert(kSentinelBase + c);
    }
    return in;
}

/** The analysis' outputs, recomputed by naiveRelabel(). */
struct NaiveStats
{
    std::vector<RepLabel> labels;
    /** (length, weight), sorted. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> lengthWeighted;
    /** (distance, weight), in occurrence time order. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> reuseWeighted;
    std::uint64_t grammarRules = 0;
};

/**
 * Relabel @p t from @p g, the grammar of streamInput(@p t): every
 * root-level non-terminal is a stream occurrence, expanded explicitly;
 * it is New if no instance of its rule anywhere in the derivation
 * starts earlier, else Recurring. Reuse distances count the misses of
 * the previous occurrence's CPU strictly between its last miss and
 * the next occurrence's first, in global time.
 */
inline NaiveStats
naiveRelabel(const MissTrace &t, const StreamInput &in, const Sequitur &g)
{
    const Snapshot s = snapshot(g);
    const std::uint32_t n = static_cast<std::uint32_t>(s.live.size());
    NaiveStats out;
    out.labels.assign(t.misses.size(), RepLabel::NonRepetitive);
    for (std::uint32_t id = 0; id < n; ++id)
        out.grammarRules += s.live[id];

    struct Occ
    {
        std::uint32_t rule;
        std::uint64_t start, len;
    };
    std::vector<Occ> occs;
    std::uint64_t pos = 0;
    for (const Sym &sym : s.bodies[Sequitur::kRootRule]) {
        if (!sym.isRule) {
            ++pos;
            continue;
        }
        const auto r = static_cast<std::uint32_t>(sym.value);
        const std::uint64_t len = expand(s, r).size();
        occs.push_back({r, pos, len});
        pos += len;
    }

    // Earliest start of any instance of each rule: visit every node
    // of the derivation tree and keep the minimum.
    std::vector<std::uint64_t> first(n, UINT64_MAX);
    {
        std::vector<std::uint64_t> len(n, 0);
        for (std::uint32_t id = 0; id < n; ++id)
            if (s.live[id])
                len[id] = expand(s, id).size();
        struct Node
        {
            std::uint32_t rule;
            std::size_t idx;
            std::uint64_t pos;
        };
        std::vector<Node> stack{{Sequitur::kRootRule, 0, 0}};
        while (!stack.empty()) {
            Node &f = stack.back();
            if (f.idx == s.bodies[f.rule].size()) {
                stack.pop_back();
                continue;
            }
            const Sym sym = s.bodies[f.rule][f.idx++];
            const std::uint64_t at = f.pos;
            if (!sym.isRule) {
                f.pos += 1;
                continue;
            }
            const auto r = static_cast<std::uint32_t>(sym.value);
            f.pos += len[r];
            first[r] = std::min(first[r], at);
            stack.push_back({r, 0, at});
        }
    }

    std::map<std::uint32_t, std::uint64_t> occCount;
    for (const Occ &o : occs) {
        const RepLabel lbl = o.start == first[o.rule]
                                 ? RepLabel::NewStream
                                 : RepLabel::RecurringStream;
        for (std::uint64_t p = o.start; p < o.start + o.len; ++p)
            if (in.miss[p] >= 0)
                out.labels[static_cast<std::size_t>(in.miss[p])] = lbl;
        ++occCount[o.rule];
    }
    for (const auto &[rule, count] : occCount) {
        const std::uint64_t len = expand(s, rule).size();
        out.lengthWeighted.emplace_back(len, count * len);
    }
    std::sort(out.lengthWeighted.begin(), out.lengthWeighted.end());

    // Global time of each CPU's misses, for the distance counts.
    const unsigned ncpu = std::max(1u, t.numCpus);
    std::vector<std::vector<std::uint64_t>> seqsOn(ncpu);
    for (const MissRecord &m : t.misses)
        seqsOn[m.cpu].push_back(m.seq);
    for (auto &v : seqsOn)
        std::sort(v.begin(), v.end());
    auto missAt = [&](std::uint64_t p) -> const MissRecord & {
        return t.misses[static_cast<std::size_t>(in.miss[p])];
    };

    std::sort(occs.begin(), occs.end(), [&](const Occ &a, const Occ &b) {
        return missAt(a.start).seq < missAt(b.start).seq;
    });
    std::map<std::uint32_t, Occ> prevOf;
    for (const Occ &o : occs) {
        const auto it = prevOf.find(o.rule);
        if (it != prevOf.end()) {
            const Occ &prev = it->second;
            const auto &onA = seqsOn[missAt(prev.start).cpu];
            const std::uint64_t after = missAt(prev.start + prev.len - 1).seq;
            const std::uint64_t before = missAt(o.start).seq;
            std::uint64_t dist = 0;
            if (before > after)
                dist = static_cast<std::uint64_t>(
                    std::lower_bound(onA.begin(), onA.end(), before) -
                    std::upper_bound(onA.begin(), onA.end(), after));
            out.reuseWeighted.emplace_back(dist, o.len);
        }
        prevOf[o.rule] = o;
    }
    return out;
}

/** "" if analyzeStreams(@p t) agrees with @p naive, else the first
 *  difference. */
inline std::string
compareWithAnalysis(const NaiveStats &naive, const MissTrace &t)
{
    MissLabels labels;
    const StreamStats a = analyzeStreams(t, &labels);
    if (labels.rep.size() != naive.labels.size())
        return "label count differs";
    for (std::size_t i = 0; i < labels.rep.size(); ++i)
        if (labels.rep[i] != naive.labels[i])
            return "label of miss " + std::to_string(i) + " is " +
                   std::to_string(static_cast<int>(labels.rep[i])) +
                   ", naive relabel says " +
                   std::to_string(static_cast<int>(naive.labels[i]));
    std::uint64_t counts[3] = {0, 0, 0};
    for (RepLabel l : naive.labels)
        ++counts[static_cast<int>(l)];
    if (a.nonRepetitive != counts[0] || a.newStream != counts[1] ||
        a.recurringStream != counts[2])
        return "label counts differ from the labels";
    auto lengths = a.lengthWeighted;
    std::sort(lengths.begin(), lengths.end());
    if (lengths != naive.lengthWeighted)
        return "stream-length histogram differs";
    if (a.reuseWeighted != naive.reuseWeighted)
        return "reuse-distance list differs";
    if (a.grammarRules != naive.grammarRules)
        return "rule count differs";
    return "";
}

/**
 * FNV-1a over the rule count and, in id order, every live rule's id,
 * reference count, body length and body symbols.
 */
inline std::uint64_t
grammarDigest(const Sequitur &g)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t w) {
        for (int i = 0; i < 8; ++i) {
            h ^= (w >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    const Snapshot s = snapshot(g);
    mix(g.ruleCount());
    for (std::uint32_t id = 0; id < s.live.size(); ++id) {
        if (!s.live[id])
            continue;
        mix(id);
        mix(s.refs[id]);
        mix(s.bodies[id].size());
        for (const Sym &sym : s.bodies[id]) {
            mix(sym.isRule);
            mix(sym.value);
        }
    }
    return h;
}

} // namespace tstream::oracle

#endif // TSTREAM_TESTS_GRAMMAR_ORACLE_HH
