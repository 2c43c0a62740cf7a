/**
 * @file
 * Helpers shared by the view implementations in src/bench/: the
 * workload lists the views sweep and the table-printing glue. Every
 * view prints its table from BenchRow::text, which is also what lands
 * in the JSON report, so the two are bit-identical.
 */

#ifndef TSTREAM_BENCH_COMMON_HH
#define TSTREAM_BENCH_COMMON_HH

#include <cstdio>
#include <string>
#include <vector>

#include "bench/run.hh"
#include "util/strprintf.hh"

namespace tstream::bench
{

/** The suite the figure views sweep: the paper's six applications in
 *  its figure order, then the post-paper scenario suite (key-value
 *  store, message broker, phased mix; see src/kv, src/mq,
 *  sim/phased_workload.hh). */
inline std::vector<WorkloadKind>
allWorkloads()
{
    return {WorkloadKind::Apache,  WorkloadKind::Zeus,
            WorkloadKind::Oltp,    WorkloadKind::DssQ1,
            WorkloadKind::DssQ2,   WorkloadKind::DssQ17,
            WorkloadKind::KvStore, WorkloadKind::Broker,
            WorkloadKind::PhasedMix};
}

/** A row of @p table for run @p r, its text opened with the app and
 *  context columns. */
inline BenchRow
runRow(const RunOutput &r, const char *table)
{
    BenchRow row;
    row.table = table;
    row.trace = std::string(traceKindName(r.kind));
    row.text = strprintf("%-10s %-12s",
                         std::string(workloadName(r.workload)).c_str(),
                         row.trace.c_str());
    return row;
}

/** Horizontal rule for table output. */
inline void
rule(char c = '-')
{
    for (int i = 0; i < 78; ++i)
        std::putchar(c);
    std::putchar('\n');
}

/** Print every row of @p cells whose table tag is @p table, in cell
 *  order. */
inline void
printTable(const std::vector<BenchCell> &cells, const char *table)
{
    for (const BenchCell &c : cells)
        for (const BenchRow &r : c.rows)
            if (r.table == table)
                std::printf("%s\n", r.text.c_str());
}

} // namespace tstream::bench

#endif // TSTREAM_BENCH_COMMON_HH
