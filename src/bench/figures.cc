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

#include "bench/common.hh"
#include "core/figure_columns.hh"

namespace tstream::bench
{
namespace
{

std::vector<Cell>
allWorkloadsGrid(const BenchOptions &opts, std::string &err)
{
    return benchGrid(allWorkloads(), opts, err);
}

/** A row of @p table for run @p r: the app/context prefix, then
 *  @p cols. */
BenchRow
figureRow(const RunOutput &r, const char *table, FigureColumns cols)
{
    BenchRow row = runRow(r, table);
    row.text += cols.text;
    row.metrics = std::move(cols.metrics);
    return row;
}

std::vector<BenchRow>
fig1Rows(const CellResult &res)
{
    std::vector<BenchRow> rows;
    for (const RunOutput &r : res.runs()) {
        // The class counts precede the intra-chip filter, so the
        // right panel keeps its Off-chip bar.
        const bool intra = r.kind == TraceKind::IntraChip;
        FigureColumns cols =
            missClassColumns(r.classMisses, r.instructions, intra);
        if (!intra) {
            rows.push_back(figureRow(r, "offchip", std::move(cols)));
            continue;
        }
        // The right panel has no context column.
        BenchRow row;
        row.table = "intra";
        row.trace = std::string(traceKindName(r.kind));
        row.text = strprintf("%-10s",
                             std::string(workloadName(r.workload)).c_str()) +
                   cols.text;
        row.metrics = std::move(cols.metrics);
        rows.push_back(std::move(row));
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
    for (const RunOutput &r : res.runs())
        rows.push_back(figureRow(r, "streams", streamColumns(r.streams)));
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
    for (const RunOutput &r : res.runs())
        rows.push_back(figureRow(r, "strides", strideColumns(r.streams)));
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

std::vector<BenchRow>
fig4Rows(const CellResult &res)
{
    std::vector<BenchRow> rows;
    for (const RunOutput &r : res.runs()) {
        rows.push_back(
            figureRow(r, "length_cdf", lengthCdfColumns(r.streams)));
        rows.push_back(figureRow(r, "reuse_pdf", reuseColumns(r.streams)));
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
    for (auto p : kStreamLengthPoints)
        std::printf(" <=%-5llu", static_cast<unsigned long long>(p));
    std::printf(" median\n");
    rule();
    printTable(cells, "length_cdf");

    std::printf("\nFigure 4 (right): reuse-distance distribution "
                "(weight = stream length),\nper-decade shares\n");
    rule();
    std::printf("%-10s %-12s", "app", "context");
    for (int d = 0; d < kReuseDecades; ++d)
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
