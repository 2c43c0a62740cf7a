/**
 * @file
 * The views of the paper's Tables 3-5 and the scenario extension
 * Table 6: temporal stream origins per category, per context. JSON
 * rows carry one entry per category (label = category name) plus the
 * overall row, each with the exact printed line and the two
 * percentage columns as metrics.
 *
 * Table 3, Web applications (Section 5.1): the http server's own code
 * is a tiny fraction; STREAMS and IP dominate kernel activity
 * multi-chip; bulk copies grow in the single-chip context; perl input
 * processing is almost perfectly repetitive; overall in-stream share
 * 75-85%.
 *
 * Table 4, OLTP (Section 5.2): index/page/tuple accesses are the
 * largest DB2 category; request control and the runtime interpreter
 * are highly repetitive; scheduler and synchronization activity is
 * present multi-chip/intra-chip but vanishes from the single-chip
 * off-chip profile; MMU traps contribute substantially.
 *
 * Table 5, DSS (Section 5.3): bulk memory copies dominate and are
 * non-repetitive (streaming buffers); index/tuple accesses are the
 * second contributor and not repetitive off-chip (single-visit scans);
 * overall in-stream share is the lowest of the suite.
 *
 * Table 6 (extension), the scenario suite: the KV store's hash/chain
 * walks and the broker's log replay mirror the paper's web-serving
 * results — high overall in-stream shares driven by recycled buffers
 * (slabs, log segments) and fixed-address metadata; kernel categories
 * (scheduler, syscalls, copies, IP) carry the rest, exactly as in
 * Tables 3-5.
 */

#include "bench/common.hh"

namespace tstream::bench
{
namespace
{

/** Which category rows an origins table shows. */
struct OriginsRows
{
    bool web = false;
    bool db = false;
    bool scenario = false;
};

std::vector<BenchRow>
originsRows(const CellResult &res, OriginsRows which)
{
    // The printed blocks need the table header lines around each row
    // group, so each run also carries an "origins_block" row whose
    // text is the whole block.
    std::vector<BenchRow> rows;
    for (const RunOutput &r : res.runs()) {
        for (Category c : moduleTableCategories(which.web, which.db,
                                                which.scenario)) {
            BenchRow row;
            row.table = "origins";
            row.trace = std::string(traceKindName(r.kind));
            row.label = std::string(categoryName(c));
            row.text = renderModuleRow(r.modules, c);
            row.metrics = {
                {"pct_misses", r.modules.pctMisses(c)},
                {"pct_in_streams", r.modules.pctInStreams(c)},
            };
            rows.push_back(std::move(row));
        }
        BenchRow overall;
        overall.table = "origins";
        overall.trace = std::string(traceKindName(r.kind));
        overall.label = "overall";
        overall.text = renderModuleOverallRow(r.modules);
        overall.metrics = {
            {"overall_pct_in_streams", r.modules.overallPctInStreams()},
        };
        rows.push_back(std::move(overall));

        BenchRow block;
        block.table = "origins_block";
        block.trace = std::string(traceKindName(r.kind));
        block.text = strprintf(
            "%s / %s  (%zu misses)",
            std::string(workloadName(r.workload)).c_str(),
            std::string(traceKindName(r.kind)).c_str(),
            r.trace.misses.size());
        block.text += "\n" + renderModuleTable(r.modules, which.web,
                                               which.db, which.scenario);
        while (!block.text.empty() && block.text.back() == '\n')
            block.text.pop_back();
        rows.push_back(std::move(block));
    }
    return rows;
}

BenchView
originsView(const char *title, std::vector<WorkloadKind> workloads,
            OriginsRows which)
{
    return {
        [workloads](const BenchOptions &opts, std::string &err) {
            return benchGrid(workloads, opts, err);
        },
        [which](const CellResult &res) { return originsRows(res, which); },
        [title](const std::vector<BenchCell> &cells) {
            std::printf("%s\n", title);
            for (const BenchCell &cell : cells)
                for (const BenchRow &row : cell.rows)
                    if (row.table == "origins_block") {
                        rule();
                        std::printf("%s\n", row.text.c_str());
                    }
        }};
}

} // namespace

BenchView
table3View(const BenchOptions &)
{
    return originsView(
        "Table 3: temporal stream origins in Web applications",
        {WorkloadKind::Apache, WorkloadKind::Zeus}, {true, false, false});
}

BenchView
table4View(const BenchOptions &)
{
    return originsView("Table 4: temporal stream origins in OLTP (DB2)",
                       {WorkloadKind::Oltp}, {false, true, false});
}

BenchView
table5View(const BenchOptions &)
{
    return originsView(
        "Table 5: temporal stream origins in DSS (DB2)",
        {WorkloadKind::DssQ1, WorkloadKind::DssQ2, WorkloadKind::DssQ17},
        {false, true, false});
}

BenchView
table6View(const BenchOptions &)
{
    return originsView("Table 6 (extension): temporal stream origins in "
                       "the scenario suite",
                       {WorkloadKind::KvStore, WorkloadKind::Broker,
                        WorkloadKind::PhasedMix},
                       {false, false, true});
}

} // namespace tstream::bench
