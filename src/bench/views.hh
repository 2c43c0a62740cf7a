/**
 * @file
 * The figure/table views. Each of the paper's figures and tables,
 * plus the ablations and the prefetcher extension, is a *view*: a grid
 * of cells, a function from one analyzed cell (sim/driver.hh) to its
 * report rows, and a printer for the finished table. One registry
 * names them all; `tstream-bench run` (bench/run.hh) executes the
 * named views in one process and shares one CellMemo between them, so
 * each distinct cell is simulated and analyzed once per run.
 * docs/ARCHITECTURE.md maps the views to the paper.
 */

#ifndef TSTREAM_BENCH_VIEWS_HH
#define TSTREAM_BENCH_VIEWS_HH

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/bench_report.hh"
#include "sim/driver.hh"

namespace tstream::bench
{

struct BenchOptions; // bench/run.hh

/** One figure or table as a query over analyzed cells. */
struct BenchView
{
    /** The view's grid; empty with @p err set when the options cannot
     *  apply (e.g. --workload naming a workload outside the sweep). */
    std::function<std::vector<Cell>(const BenchOptions &,
                                    std::string &err)>
        grid;
    std::function<std::vector<BenchRow>(const CellResult &)> rows;
    /** Print the finished table to stdout from the report cells. */
    std::function<void(const std::vector<BenchCell> &)> print;
    /** The rows walk each run's misses (CellResult::trace), so the
     *  memo keeps this view's traces; the other views read only the
     *  cell summaries. */
    bool walksMisses = false;
};

BenchView fig1View(const BenchOptions &opts);
BenchView fig2View(const BenchOptions &opts);
BenchView fig3View(const BenchOptions &opts);
BenchView fig4View(const BenchOptions &opts);
BenchView table3View(const BenchOptions &opts);
BenchView table4View(const BenchOptions &opts);
BenchView table5View(const BenchOptions &opts);
BenchView table6View(const BenchOptions &opts);
BenchView ablationAView(const BenchOptions &opts);
BenchView ablationBView(const BenchOptions &opts);
BenchView extView(const BenchOptions &opts);

/** A registry entry: names plus a factory, so listing builds nothing. */
struct ViewEntry
{
    const char *binary; ///< report name and alias binary name
    const char *alias;  ///< short name for `tstream-bench run`
    BenchView (*make)(const BenchOptions &);
};

/** Every view, in `tstream-bench list` and `all` order. */
inline constexpr ViewEntry kViews[] = {
    {"fig1_miss_classification", "fig1", fig1View},
    {"fig2_stream_fraction", "fig2", fig2View},
    {"fig3_stride_breakdown", "fig3", fig3View},
    {"fig4_length_reuse", "fig4", fig4View},
    {"table3_web_origins", "table3", table3View},
    {"table4_oltp_origins", "table4", table4View},
    {"table5_dss_origins", "table5", table5View},
    {"table6_scenario_origins", "table6", table6View},
    {"ablation_stream_detector", "ablation_a", ablationAView},
    {"ablation_l2_sweep", "ablation_b", ablationBView},
    {"ext_prefetcher", "ext", extView},
};

/** The view named by binary name or alias, or null. */
const ViewEntry *findView(std::string_view name);

/**
 * A swept view's grid after any --workload / --phases override: with
 * neither flag this is standardGrid(@p workloads, opts.budgets); with
 * --workload FILE it is the file's workload kind (which must be in
 * @p workloads) running the file's schedule; with --phases SPEC it is
 * PhasedMix under the inline schedule. A config error or a workload
 * outside the sweep returns an empty grid with @p err set.
 */
std::vector<Cell> benchGrid(const std::vector<WorkloadKind> &workloads,
                            const BenchOptions &opts, std::string &err);

} // namespace tstream::bench

#endif // TSTREAM_BENCH_VIEWS_HH
