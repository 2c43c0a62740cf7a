/**
 * @file
 * The views of the paper's Figures 1-4.
 *
 * Figure 1, miss classification. Left: off-chip read misses per 1000
 * instructions, split into Compulsory / I-O Coherence / Replacement /
 * Coherence, for every workload in the multi-chip and single-chip
 * contexts. Right: intra-chip (L1) misses per 1000 instructions, split
 * into Coherence:Peer-L1 / Coherence:L2 / Replacement:L2 / Off-chip.
 * Expected shape (Section 4.1): coherence dominates multi-chip
 * web/OLTP; the single-chip context has no processor coherence
 * off-chip and is replacement/I-O dominated; DSS is compulsory-heavy
 * everywhere; one third to one half of on-chip L1 traffic is
 * coherence.
 *
 * Figure 2, fraction of misses in temporal streams (Non-repetitive /
 * New stream / Recurring stream). Expected shape (Section 4.2): 35-90%
 * of misses occur in temporal streams; web applications around
 * 75-85%; OLTP multi-chip highly repetitive but single-chip only about
 * half; DSS the lowest.
 *
 * Figure 3, joint breakdown of strided and repetitive miss sequences.
 * Expected shape (Section 4.3): DSS is heavily strided (especially
 * single-chip, where page-sized copies dominate); the other
 * applications are mostly non-strided; strided patterns and temporal
 * streams are largely disjoint.
 *
 * Figure 4, temporal stream length CDF (left) and reuse distance PDF
 * (right). Expected shape (Sections 4.4-4.5): median stream length
 * about eight to ten misses with a heavy tail into the thousands; DSS
 * shows a step near 64 blocks (4 KB page copies); multi-chip
 * (coherence) reuse distances concentrate below ~2x10^5 misses while
 * single-chip (replacement) mass sits between 10^4 and 10^7; DSS peaks
 * just under 10^4 from bulk copies.
 */

#include <algorithm>
#include <numeric>

#include "bench/common.hh"
#include "stats/histogram.hh"

namespace tstream::bench
{
namespace
{

std::vector<Cell>
allWorkloadsGrid(const BenchOptions &opts, std::string &err)
{
    return benchGrid(allWorkloads(), opts, err);
}

std::vector<BenchRow>
fig1Rows(const CellResult &res)
{
    std::vector<BenchRow> rows;
    for (const RunOutput &r : res.runs()) {
        // The class counts precede the intra-chip filter, so the
        // right panel keeps its Off-chip bar.
        const std::uint64_t *cls = r.classMisses.data();
        const std::uint64_t misses = std::accumulate(
            r.classMisses.begin(), r.classMisses.end(), std::uint64_t{0});
        const double tot =
            std::max<double>(1.0, static_cast<double>(misses));
        // MissTrace::mpki() over the unfiltered trace.
        const double mpki =
            r.trace.instructions == 0
                ? 0.0
                : 1000.0 * static_cast<double>(misses) /
                      static_cast<double>(r.trace.instructions);
        if (r.kind != TraceKind::IntraChip) {
            BenchRow row = runRow(r, "offchip");
            row.text += strprintf(
                " %8.2f %9.1f%% %5.1f%% %7.1f%% %9.1f%% %10zu", mpki,
                100.0 * cls[0] / tot, 100.0 * cls[2] / tot,
                100.0 * cls[3] / tot, 100.0 * cls[1] / tot,
                static_cast<std::size_t>(misses));
            row.metrics = {
                {"mpki", mpki},
                {"compulsory_pct", 100.0 * cls[0] / tot},
                {"io_coherence_pct", 100.0 * cls[2] / tot},
                {"replacement_pct", 100.0 * cls[3] / tot},
                {"coherence_pct", 100.0 * cls[1] / tot},
                {"misses", static_cast<double>(misses)},
            };
            rows.push_back(std::move(row));
        } else {
            // Coherence share of on-chip-satisfied traffic (the
            // paper's "one third to one half of all L2 and peer-L1
            // accesses").
            const double onchip = std::max<double>(
                1.0, static_cast<double>(cls[0] + cls[1] + cls[2]));
            const double cohShare =
                100.0 * (cls[0] + cls[1]) / onchip;
            BenchRow row;
            row.table = "intra";
            row.trace = std::string(traceKindName(r.kind));
            row.text = strprintf(
                "%-10s %8.2f %8.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%%",
                std::string(workloadName(r.workload)).c_str(), mpki,
                100.0 * cls[0] / tot, 100.0 * cls[1] / tot,
                100.0 * cls[2] / tot, 100.0 * cls[3] / tot, cohShare);
            row.metrics = {
                {"mpki", mpki},
                {"peer_l1_pct", 100.0 * cls[0] / tot},
                {"coherence_l2_pct", 100.0 * cls[1] / tot},
                {"replacement_l2_pct", 100.0 * cls[2] / tot},
                {"offchip_pct", 100.0 * cls[3] / tot},
                {"coherence_share_pct", cohShare},
            };
            rows.push_back(std::move(row));
        }
    }
    return rows;
}

void
fig1Print(const std::vector<BenchCell> &cells)
{
    std::printf("Figure 1 (left): off-chip read misses per 1000 "
                "instructions\n");
    rule();
    std::printf("%-10s %-12s %8s %10s %6s %8s %10s %10s\n", "app",
                "context", "MPKI", "Compulsory", "I/O", "Repl",
                "Coherence", "misses");
    rule();
    printTable(cells, "offchip");

    std::printf("\nFigure 1 (right): intra-chip (L1) read misses per "
                "1000 instructions\n");
    rule();
    std::printf("%-10s %8s %9s %8s %8s %8s %8s\n", "app", "MPKI",
                "Peer-L1", "Coh:L2", "Repl:L2", "Off-chip", "coh-shr");
    rule();
    printTable(cells, "intra");

    std::printf("\nPaper shape check: multi-chip web/OLTP coherence-"
                "dominated; single-chip has no\nprocessor coherence "
                "off-chip; DSS compulsory-dominated; on-chip traffic "
                "has a\nsubstantial coherence component.\n");
}

std::vector<BenchRow>
fig2Rows(const CellResult &res)
{
    std::vector<BenchRow> rows;
    for (const RunOutput &r : res.runs()) {
        const StreamStats &s = r.streams;
        const double tot = std::max<double>(
            1.0, static_cast<double>(s.totalMisses));
        const double nonRep = 100.0 * s.nonRepetitive / tot;
        const double fresh = 100.0 * s.newStream / tot;
        const double recurring = 100.0 * s.recurringStream / tot;
        const double inStreams = 100.0 * s.inStreamFraction();
        BenchRow row = runRow(r, "streams");
        row.text += strprintf(" %9.1f%% %9.1f%% %11.1f%% %9.1f%%", nonRep,
                              fresh, recurring, inStreams);
        row.metrics = {
            {"non_repetitive_pct", nonRep},
            {"new_stream_pct", fresh},
            {"recurring_stream_pct", recurring},
            {"in_streams_pct", inStreams},
        };
        rows.push_back(std::move(row));
    }
    return rows;
}

void
fig2Print(const std::vector<BenchCell> &cells)
{
    std::printf("Figure 2: fraction of misses in temporal streams\n");
    rule();
    std::printf("%-10s %-12s %10s %10s %12s %10s\n", "app", "context",
                "non-rep", "new", "recurring", "in-streams");
    rule();
    printTable(cells, "streams");

    std::printf("\nPaper shape check: 35-90%% of misses in streams; web "
                "~75-85%%; OLTP single-chip\nmarkedly less repetitive "
                "than multi-chip; DSS lowest.\n");
}

std::vector<BenchRow>
fig3Rows(const CellResult &res)
{
    std::vector<BenchRow> rows;
    for (const RunOutput &r : res.runs()) {
        const StreamStats &s = r.streams;
        const double tot = std::max<double>(
            1.0, static_cast<double>(s.totalMisses));
        const double strided =
            100.0 * (s.stridedRepetitive + s.stridedNonRepetitive) /
            tot;
        const double repStr = 100.0 * s.stridedRepetitive / tot;
        const double repNonStr = 100.0 * s.nonStridedRepetitive / tot;
        const double nonRepStr = 100.0 * s.stridedNonRepetitive / tot;
        const double nonRepNonStr =
            100.0 * s.nonStridedNonRepetitive / tot;
        BenchRow row = runRow(r, "strides");
        row.text += strprintf(" %9.1f%% %9.1f%% %9.1f%% %9.1f%% %7.1f%%",
                              repStr, repNonStr, nonRepStr,
                              nonRepNonStr, strided);
        row.metrics = {
            {"strided_repetitive_pct", repStr},
            {"non_strided_repetitive_pct", repNonStr},
            {"strided_non_repetitive_pct", nonRepStr},
            {"non_strided_non_repetitive_pct", nonRepNonStr},
            {"strided_pct", strided},
        };
        rows.push_back(std::move(row));
    }
    return rows;
}

void
fig3Print(const std::vector<BenchCell> &cells)
{
    std::printf("Figure 3: strides and temporal streams\n");
    rule();
    std::printf("%-10s %-12s %10s %10s %10s %10s %8s\n", "app",
                "context", "rep+str", "rep+nonstr", "nonrep+str",
                "nonrep+ns", "strided");
    rule();
    printTable(cells, "strides");

    std::printf("\nPaper shape check: DSS most strided; web/OLTP mostly "
                "non-strided; the\nstrided-and-repetitive overlap is "
                "small outside DSS.\n");
}

constexpr std::uint64_t kLenPoints[] = {1,  2,  4,   8,   16,   32,
                                        64, 128, 512, 1024, 4096};

std::vector<BenchRow>
fig4Rows(const CellResult &res)
{
    std::vector<BenchRow> rows;
    for (const RunOutput &r : res.runs()) {
        {
            WeightedCdf cdf;
            for (const auto &[len, w] : r.streams.lengthWeighted)
                cdf.add(len, w);
            BenchRow row = runRow(r, "length_cdf");
            for (auto p : kLenPoints) {
                row.text +=
                    strprintf(" %6.1f%%", 100.0 * cdf.cumulativeAt(p));
                row.metrics.emplace_back(
                    strprintf("cdf_le_%llu",
                              static_cast<unsigned long long>(p)),
                    100.0 * cdf.cumulativeAt(p));
            }
            row.text += strprintf(" %6.0f",
                                  r.streams.medianStreamLength());
            row.metrics.emplace_back("median_length",
                                     r.streams.medianStreamLength());
            rows.push_back(std::move(row));
        }
        {
            LogHistogram h(7, 1);
            for (const auto &[dist, w] : r.streams.reuseWeighted)
                h.add(dist == 0 ? 1 : dist, w);
            BenchRow row = runRow(r, "reuse_pdf");
            for (int d = 0; d < 7; ++d) {
                const double frac =
                    100.0 * h.fraction(static_cast<std::size_t>(d));
                row.text += strprintf("  %6.1f%%", frac);
                row.metrics.emplace_back(
                    strprintf("decade_1e%d_1e%d_pct", d, d + 1), frac);
            }
            rows.push_back(std::move(row));
        }
    }
    return rows;
}

void
fig4Print(const std::vector<BenchCell> &cells)
{
    std::printf("Figure 4 (left): cumulative stream-length "
                "distribution, weighted by contribution\n");
    rule();
    std::printf("%-10s %-12s", "app", "context");
    for (auto p : kLenPoints)
        std::printf(" <=%-5llu", static_cast<unsigned long long>(p));
    std::printf(" median\n");
    rule();
    printTable(cells, "length_cdf");

    std::printf("\nFigure 4 (right): reuse-distance distribution "
                "(weight = stream length),\nper-decade shares\n");
    rule();
    std::printf("%-10s %-12s", "app", "context");
    for (int d = 0; d < 7; ++d)
        std::printf("  1e%d-1e%d", d, d + 1);
    std::printf("\n");
    rule();
    printTable(cells, "reuse_pdf");

    std::printf("\nPaper shape check: median length ~8-10; heavy tail; "
                "DSS step near 64-block\n(page) streams; multi-chip "
                "reuse distances shorter than single-chip.\n");
}

} // namespace

BenchView
fig1View(const BenchOptions &)
{
    return {allWorkloadsGrid, fig1Rows, fig1Print};
}

BenchView
fig2View(const BenchOptions &)
{
    return {allWorkloadsGrid, fig2Rows, fig2Print};
}

BenchView
fig3View(const BenchOptions &)
{
    return {allWorkloadsGrid, fig3Rows, fig3Print};
}

BenchView
fig4View(const BenchOptions &)
{
    return {allWorkloadsGrid, fig4Rows, fig4Print};
}

} // namespace tstream::bench
