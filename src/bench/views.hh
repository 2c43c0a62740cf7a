/**
 * @file
 * The figure/table views. Each of the paper's figures and tables,
 * plus the ablations and the prefetcher extension, is a *view*: a grid
 * of cells, a function from one analyzed cell (sim/driver.hh) to its
 * report rows, and a printer for the finished table. One registry
 * names them all. A standalone bench binary (bench/main.cc) and
 * `tstream-bench run` both execute a view through runView(); `run`
 * executes its named views in order in one process and shares one
 * CellMemo between them, so each distinct cell is simulated and
 * analyzed once per run. docs/ARCHITECTURE.md maps the views to the
 * paper.
 */

#ifndef TSTREAM_BENCH_VIEWS_HH
#define TSTREAM_BENCH_VIEWS_HH

#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "sim/bench_report.hh"
#include "sim/driver.hh"

namespace tstream::bench
{

/** One figure or table as a query over analyzed cells. */
struct BenchView
{
    std::function<std::vector<Cell>(const BenchOptions &)> grid;
    std::function<std::vector<BenchRow>(const CellResult &)> rows;
    /** Print the finished table to stdout from the report cells. */
    std::function<void(const std::vector<BenchCell> &)> print;
    /** View-specific flags; empty for every view but ext_prefetcher. */
    BenchExtraArgs extra;
};

BenchView fig1View();
BenchView fig2View();
BenchView fig3View();
BenchView fig4View();
BenchView table3View();
BenchView table4View();
BenchView table5View();
BenchView table6View();
BenchView ablationAView();
BenchView ablationBView();
BenchView extView();

/** A registry entry: names plus a factory, so listing builds nothing. */
struct ViewEntry
{
    const char *binary; ///< report name and standalone binary name
    const char *alias;  ///< short name for `tstream-bench run`
    BenchView (*make)();
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
 * Run @p view over @p grid and print its tables. The cells this shard
 * owns are executed on the driver pool, except those in @p prior (the
 * already-validated cells of a `--resume` report), which are reused
 * verbatim. Under `--claim-session` the claim protocol decides which
 * cells this worker runs. @p memo (null for a standalone binary)
 * shares analyses with the other views of a run. A cell that exhausted
 * its retries becomes a failure row. Returns the view's report.
 */
BenchDoc runView(const BenchView &view, const BenchOptions &opts,
                 const std::vector<Cell> &grid,
                 std::vector<BenchCell> prior,
                 std::shared_ptr<CellMemo> memo);

/**
 * main() of the standalone binary for the view named @p binary: parse
 * the bench flags, run the view, and write the `--json` report.
 */
int viewMain(const char *binary, int argc, char **argv);

} // namespace tstream::bench

#endif // TSTREAM_BENCH_VIEWS_HH
