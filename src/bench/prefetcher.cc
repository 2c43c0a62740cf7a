/**
 * @file
 * The extension view: a temporal-streaming prefetcher over the
 * collected traces — the "so what" of the paper's characterization.
 * Coverage should track Figure 2's in-stream fractions (web/OLTP
 * multi-chip high, DSS low), and a replay-depth sweep shows why the paper argues
 * against fixed-depth policies (Section 4.4).
 *
 * Every evaluation routes through the prefetch-policy registry
 * (core/prefetch_policy.hh). On top of the classic depth-sweep table:
 *
 *  - --policy NAME[,NAME...] scores the named policies (fixed,
 *    adaptive, stride, hybrid) per trace in a "prefetcher_policy"
 *    table with storage/coverage/accuracy columns;
 *  - --budget-sweep adds the paper's Section 4.5 storage-budget sweep
 *    ("prefetcher_budget"): CMOB entries x coverage/accuracy, so the
 *    coverage-vs-storage trade-off is one table per workload;
 *  - --replay-depth N sets the replay depth those tables use.
 *
 * The default (flagless) output is byte-identical to the
 * pre-policy-API bench. The flags are `tstream-bench run` flags
 * (bench/run.hh), accepted only when the ext view is named.
 */

#include "bench/common.hh"
#include "core/prefetch_policy.hh"

namespace tstream::bench
{
namespace
{

/** CMOB budget points of the Section 4.5 sweep (entries per CPU). */
constexpr std::uint32_t kBudgetPoints[] = {1u << 12, 1u << 14,
                                           1u << 16, 1u << 18};

/** Policy-table and budget-sweep evaluation at @p depth. */
TsPrefetcherStats
scorePolicy(const MissTrace &trace, const std::string &name,
            unsigned depth, std::uint32_t historyEntries,
            std::uint64_t &storageBytes)
{
    PrefetchPolicyParams params;
    params.ts.replayDepth = depth;
    params.ts.historyEntries = historyEntries;
    auto policy = makePrefetchPolicy(name, params);
    const TsPrefetcherStats st =
        evaluatePolicy(trace, *policy, params.ts.bufferBlocks);
    storageBytes = policy->storageBytes();
    return st;
}

std::vector<BenchRow>
buildRows(const CellResult &res, const ExtOptions &ext)
{
    std::vector<BenchRow> rows;
    for (const RunOutput &r : res.runs()) {
        // The classic depth-sweep table, routed through the policy
        // registry.
        BenchRow row = runRow(r, "prefetcher");
        row.text += strprintf(" %9.1f%% |       ",
                              100.0 * r.streams.inStreamFraction());
        row.metrics = {
            {"in_streams_pct", 100.0 * r.streams.inStreamFraction()},
        };
        double acc8 = 0.0;
        for (unsigned d : {1u, 4u, 8u, 16u, 32u}) {
            std::uint64_t storage = 0;
            const TsPrefetcherStats st = scorePolicy(
                r.trace, "fixed", d, TsPrefetcherConfig{}.historyEntries,
                storage);
            row.text += strprintf(" %6.1f%%", 100.0 * st.coverage());
            row.metrics.emplace_back(
                strprintf("coverage_depth_%u_pct", d),
                100.0 * st.coverage());
            if (d == 8)
                acc8 = st.accuracy();
        }
        // The paper's Section 4.3 synergy: add a stride engine.
        std::uint64_t storage = 0;
        const TsPrefetcherStats hs = scorePolicy(
            r.trace, "hybrid", 8, TsPrefetcherConfig{}.historyEntries,
            storage);
        row.text += strprintf(" %6.1f%% %7.1f%%", 100.0 * acc8,
                              100.0 * hs.coverage());
        row.metrics.emplace_back("accuracy_depth_8_pct", 100.0 * acc8);
        row.metrics.emplace_back("hybrid_coverage_depth_8_pct",
                                 100.0 * hs.coverage());
        rows.push_back(std::move(row));

        // --policy: one row per named policy.
        for (const std::string &name : ext.policies) {
            std::uint64_t bytes = 0;
            const TsPrefetcherStats st = scorePolicy(
                r.trace, name, ext.replayDepth,
                TsPrefetcherConfig{}.historyEntries, bytes);
            BenchRow pr = runRow(r, "prefetcher_policy");
            pr.policy = name;
            pr.text += strprintf(" %-9s %9.0fKB %7.1f%% %7.1f%%",
                                 name.c_str(),
                                 static_cast<double>(bytes) / 1024.0,
                                 100.0 * st.coverage(),
                                 100.0 * st.accuracy());
            pr.metrics = {
                {"storage_bytes", static_cast<double>(bytes)},
                {"coverage_pct", 100.0 * st.coverage()},
                {"accuracy_pct", 100.0 * st.accuracy()},
            };
            rows.push_back(std::move(pr));
        }

        // --budget-sweep: coverage/accuracy per CMOB budget point
        // (Section 4.5). The stride policy has no CMOB, so it is
        // skipped — its storage does not move along this axis.
        if (ext.budgetSweep) {
            std::vector<std::string> sweep = ext.policies;
            if (sweep.empty())
                sweep.push_back("fixed");
            for (const std::string &name : sweep) {
                if (name == "stride")
                    continue;
                for (const std::uint32_t entries : kBudgetPoints) {
                    std::uint64_t bytes = 0;
                    const TsPrefetcherStats st =
                        scorePolicy(r.trace, name, ext.replayDepth,
                                    entries, bytes);
                    BenchRow br = runRow(r, "prefetcher_budget");
                    br.policy = name;
                    br.label = strprintf("%u", entries);
                    br.text += strprintf(
                        " %-9s %8u %9.0fKB %7.1f%% %7.1f%%",
                        name.c_str(), entries,
                        static_cast<double>(bytes) / 1024.0,
                        100.0 * st.coverage(), 100.0 * st.accuracy());
                    br.metrics = {
                        {"cmob_entries",
                         static_cast<double>(entries)},
                        {"storage_bytes", static_cast<double>(bytes)},
                        {"coverage_pct", 100.0 * st.coverage()},
                        {"accuracy_pct", 100.0 * st.accuracy()},
                    };
                    rows.push_back(std::move(br));
                }
            }
        }
    }
    return rows;
}

void
extPrint(const std::vector<BenchCell> &cells, const ExtOptions &ext)
{
    std::printf("Extension: temporal-streaming prefetcher coverage / "
                "accuracy\n");
    rule();
    std::printf("%-10s %-12s %10s | depth:", "app", "context",
                "in-streams");
    for (unsigned d : {1u, 4u, 8u, 16u, 32u})
        std::printf("  cov@%-2u", d);
    std::printf("  acc@8  hybrid@8\n");
    rule();
    printTable(cells, "prefetcher");

    if (!ext.policies.empty()) {
        std::printf("\nPolicy comparison (replay depth %u)\n",
                    ext.replayDepth);
        rule();
        std::printf("%-10s %-12s %-9s %11s %8s %8s\n", "app",
                    "context", "policy", "storage", "cov", "acc");
        rule();
        printTable(cells, "prefetcher_policy");
    }

    if (ext.budgetSweep) {
        std::printf("\nStorage-budget sweep (Section 4.5; replay "
                    "depth %u)\n",
                    ext.replayDepth);
        rule();
        std::printf("%-10s %-12s %-9s %8s %11s %8s %8s\n", "app",
                    "context", "policy", "entries", "storage", "cov",
                    "acc");
        rule();
        printTable(cells, "prefetcher_budget");
    }

    std::printf("\nReading: coverage tracks the in-stream fraction and "
                "grows with replay depth\nwhere streams are long "
                "(web/OLTP); DSS coverage stays low — temporal\n"
                "streaming cannot address compulsory misses, exactly "
                "the paper's conclusion.\nThe hybrid column adds a "
                "stride engine: it recovers most of the strided,\n"
                "non-repetitive DSS misses (the Section 4.3 synergy) "
                "while temporal replay\nkeeps the pointer-chasing "
                "coverage.\n");
}

} // namespace

BenchView
extView(const BenchOptions &opts)
{
    return {[](const BenchOptions &o, std::string &err) {
                return benchGrid(allWorkloads(), o, err);
            },
            [ext = opts.ext](const CellResult &res) {
                return buildRows(res, ext);
            },
            [ext = opts.ext](const std::vector<BenchCell> &cells) {
                extPrint(cells, ext);
            }};
}

} // namespace tstream::bench
