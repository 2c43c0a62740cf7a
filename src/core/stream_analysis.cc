#include "core/stream_analysis.hh"

#include <algorithm>

#include "core/sequitur.hh"
#include "core/stride.hh"
#include "mem/block_table.hh"
#include "obs/telemetry.hh"
#include "util/logging.hh"

namespace tstream
{

double
StreamStats::lengthPercentile(double p) const
{
    if (lengthWeighted.empty())
        return 0.0;
    auto sorted = lengthWeighted;
    std::sort(sorted.begin(), sorted.end());
    std::uint64_t total = 0;
    for (const auto &[len, w] : sorted)
        total += w;
    const double target = total * p / 100.0;
    std::uint64_t run = 0;
    for (const auto &[len, w] : sorted) {
        run += w;
        if (static_cast<double>(run) >= target)
            return static_cast<double>(len);
    }
    return static_cast<double>(sorted.back().first);
}

namespace
{

/** Root-level stream occurrence discovered during the derivation walk. */
struct RootOcc
{
    std::uint32_t rule;
    std::uint64_t start; ///< position in the concatenated input
    std::uint64_t len;
};

} // namespace

StreamStats
analyzeStreams(const MissTrace &trace, MissLabels *labels)
{
    StreamStats out;
    out.totalMisses = trace.misses.size();
    MissLabels local;
    MissLabels &per = labels ? *labels : local;
    per.rep.assign(trace.misses.size(), RepLabel::NonRepetitive);
    per.strided.assign(trace.misses.size(), false);
    if (trace.misses.empty())
        return out;

    // Phase spans nest under the driver's per-cell "analyze" span, so
    // the trace timeline shows where analysis time actually goes.
    telemetry::Span whole("analysis", "analysis");
    if (whole.active())
        whole.arg("misses",
                  static_cast<std::int64_t>(trace.misses.size()));

    // ------------------------------------------------------------------
    // 1. Project the trace per CPU: group miss indices by CPU.
    // ------------------------------------------------------------------
    const unsigned ncpu = std::max(1u, trace.numCpus);
    std::vector<std::vector<std::uint32_t>> byCpu(ncpu);
    for (std::uint32_t i = 0; i < trace.misses.size(); ++i) {
        const unsigned cpu = trace.misses[i].cpu;
        panicIf(cpu >= ncpu, "analyzeStreams: cpu out of range");
        byCpu[cpu].push_back(i);
    }

    // ------------------------------------------------------------------
    // 2. Stride labeling over each CPU's misses in order (each CPU's
    //    tracker table is independent).
    // ------------------------------------------------------------------
    {
        telemetry::Span span("analysis.stride_seq", "analysis");
        StrideDetector det;
        for (const auto &idx : byCpu)
            for (std::uint32_t mi : idx)
                per.strided[mi] =
                    det.observe(trace.misses[mi].cpu, trace.misses[mi].block);
    }

    // ------------------------------------------------------------------
    // 3. Build the concatenated per-CPU input, interning block ids
    //    densely in order of first appearance, and remember per-position
    //    miss indices. Each CPU section ends with the next dense id, a
    //    symbol that occurs nowhere else, so no rule spans two CPUs.
    // ------------------------------------------------------------------
    std::vector<std::uint32_t> input;
    std::vector<std::uint32_t> posToMiss; // UINT32_MAX for sentinels
    input.reserve(trace.misses.size() + ncpu);
    posToMiss.reserve(input.capacity());
    {
        BlockTable<std::uint32_t> intern; // dense id + 1; 0 = unseen
        std::uint32_t nextId = 0;
        for (unsigned c = 0; c < ncpu; ++c) {
            for (std::uint32_t mi : byCpu[c]) {
                std::uint32_t &id = intern.findOrInsert(trace.misses[mi].block);
                if (id == 0)
                    id = ++nextId;
                input.push_back(id - 1);
                posToMiss.push_back(mi);
            }
            input.push_back(nextId++);
            posToMiss.push_back(UINT32_MAX);
        }
    }

    // ------------------------------------------------------------------
    // 4. Grammar construction, then one flat copy of the rule bodies.
    // ------------------------------------------------------------------
    Sequitur::Grammar grammar;
    {
        Sequitur g;
        g.reserve(input.size());
        {
            telemetry::Span span("analysis.sequitur", "analysis");
            if (span.active())
                span.arg("symbols",
                         static_cast<std::int64_t>(input.size()));
            g.appendAll(input);
        }
        // posToMiss is the input's length; free the input before the
        // grammar copy, while the construction's arena is still live.
        std::vector<std::uint32_t>().swap(input);
        grammar = g.grammar();
        out.grammarRules = g.ruleCount();
        telemetry::observe("analysis.sequitur_table_slots",
                           static_cast<double>(g.digramSlots()));
        telemetry::observe("analysis.sequitur_peak_digrams",
                           static_cast<double>(g.peakDigrams()));
        telemetry::observe("analysis.sequitur_arena_symbols",
                           static_cast<double>(g.arenaSymbols()));
    }
    const std::vector<std::uint64_t> ruleLen = grammar.ruleLengths();
    telemetry::observe("analysis.grammar_rules",
                       static_cast<double>(out.grammarRules));

    // ------------------------------------------------------------------
    // 5. Derivation walk over the rule bodies in place: enumerate
    //    root-level occurrences and each rule's first-expansion position
    //    (for New/Recurring). A rule met again is skipped by its length:
    //    its first expansion already visited every rule inside it.
    // ------------------------------------------------------------------
    std::vector<std::uint64_t> firstExpansion(grammar.numRules(),
                                              UINT64_MAX);
    std::vector<RootOcc> rootOccs;

    {
        telemetry::Span span("analysis.derivation_walk", "analysis");
        struct Frame
        {
            const std::uint32_t *cur, *end;
        };
        std::vector<Frame> stack;
        stack.push_back({grammar.begin(Sequitur::kRootRule),
                         grammar.end(Sequitur::kRootRule)});
        std::uint64_t pos = 0;

        while (!stack.empty()) {
            Frame &f = stack.back();
            if (f.cur == f.end) {
                stack.pop_back();
                continue;
            }
            const std::uint32_t sym = *f.cur++;
            if (!Sequitur::Grammar::isRule(sym)) {
                ++pos;
                continue;
            }
            const std::uint32_t r = Sequitur::Grammar::valueOf(sym);
            const bool seen = firstExpansion[r] != UINT64_MAX;
            if (!seen)
                firstExpansion[r] = pos;
            if (stack.size() == 1)
                rootOccs.push_back({r, pos, ruleLen[r]});
            if (seen)
                pos += ruleLen[r];
            else
                stack.push_back({grammar.begin(r), grammar.end(r)});
        }
        panicIf(pos != posToMiss.size(),
                "analyzeStreams: derivation length mismatch");
    }

    // ------------------------------------------------------------------
    // 6. Label misses: inside a root-level occurrence -> New if this is
    //    the rule's first expansion, else Recurring.
    // ------------------------------------------------------------------
    for (const RootOcc &occ : rootOccs) {
        const bool isNew = occ.start == firstExpansion[occ.rule];
        const RepLabel lbl =
            isNew ? RepLabel::NewStream : RepLabel::RecurringStream;
        for (std::uint64_t p = occ.start; p < occ.start + occ.len; ++p) {
            const std::uint32_t mi = posToMiss[p];
            panicIf(mi == UINT32_MAX,
                    "analyzeStreams: rule covers a sentinel");
            per.rep[mi] = lbl;
        }
    }

    for (std::size_t i = 0; i < per.rep.size(); ++i) {
        switch (per.rep[i]) {
          case RepLabel::NonRepetitive: ++out.nonRepetitive; break;
          case RepLabel::NewStream: ++out.newStream; break;
          case RepLabel::RecurringStream: ++out.recurringStream; break;
        }
        const bool rep = per.rep[i] != RepLabel::NonRepetitive;
        const bool str = per.strided[i];
        if (rep && str)
            ++out.stridedRepetitive;
        else if (rep)
            ++out.nonStridedRepetitive;
        else if (str)
            ++out.stridedNonRepetitive;
        else
            ++out.nonStridedNonRepetitive;
    }

    // ------------------------------------------------------------------
    // 7. Stream-length distribution, weighted by contribution: each
    //    root occurrence of a rule of length L contributes L misses.
    // ------------------------------------------------------------------
    {
        telemetry::Span span("analysis.length_dist", "analysis");
        std::vector<std::uint32_t> occCount(grammar.numRules(), 0);
        for (const RootOcc &occ : rootOccs)
            occCount[occ.rule]++;
        for (std::uint32_t rule = 0; rule < occCount.size(); ++rule)
            if (occCount[rule] != 0)
                out.lengthWeighted.emplace_back(
                    ruleLen[rule], occCount[rule] * ruleLen[rule]);
    }

    // ------------------------------------------------------------------
    // 8. Reuse distance: consecutive root occurrences of the same rule,
    //    measured in intervening misses on the first occurrence's CPU.
    // ------------------------------------------------------------------
    {
        telemetry::Span span("analysis.reuse_dist", "analysis");
        // Positions are grouped by CPU, so a position's per-CPU
        // ordinal is its offset into its CPU's section.
        std::vector<std::uint64_t> sectionStart(ncpu, 0);
        for (unsigned c = 1; c < ncpu; ++c)
            sectionStart[c] = sectionStart[c - 1] + byCpu[c - 1].size() + 1;

        // Process occurrences in global-time order of their first miss.
        std::vector<RootOcc> occs = std::move(rootOccs);
        std::sort(occs.begin(), occs.end(),
                  [&](const RootOcc &a, const RootOcc &b) {
                      return trace.misses[posToMiss[a.start]].seq <
                             trace.misses[posToMiss[b.start]].seq;
                  });
        // 1 + the index in occs of each rule's previous occurrence
        // (0: none yet).
        std::vector<std::uint32_t> lastOcc(grammar.numRules(), 0);
        for (std::uint32_t i = 0; i < occs.size(); ++i) {
            const RootOcc &occ = occs[i];
            if (lastOcc[occ.rule] != 0) {
                const RootOcc &prev = occs[lastOcc[occ.rule] - 1];
                const unsigned cpuA = trace.misses[posToMiss[prev.start]].cpu;
                // Ordinal of the previous occurrence's last miss on A.
                const std::uint64_t endOrdinal =
                    prev.start + prev.len - 1 - sectionStart[cpuA];
                // Misses A has issued before this occurrence begins.
                const std::uint64_t startSeq =
                    trace.misses[posToMiss[occ.start]].seq;
                const auto &onA = byCpu[cpuA];
                const std::uint64_t seenOnA = static_cast<std::uint64_t>(
                    std::lower_bound(onA.begin(), onA.end(), startSeq,
                                     [&](std::uint32_t mi, std::uint64_t t) {
                                         return trace.misses[mi].seq < t;
                                     }) -
                    onA.begin());
                const std::uint64_t dist =
                    seenOnA > endOrdinal + 1 ? seenOnA - endOrdinal - 1
                                             : 0;
                out.reuseWeighted.emplace_back(dist, occ.len);
            }
            lastOcc[occ.rule] = i + 1;
        }
    }

    return out;
}

} // namespace tstream
