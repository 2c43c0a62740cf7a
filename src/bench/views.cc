#include "bench/views.hh"

#include <algorithm>
#include <cstdio>

#include "util/work_pool.hh"

namespace tstream::bench
{

const ViewEntry *
findView(std::string_view name)
{
    for (const ViewEntry &v : kViews)
        if (name == v.binary || name == v.alias)
            return &v;
    return nullptr;
}

BenchDoc
runView(const BenchView &view, const BenchOptions &opts,
        const std::vector<Cell> &grid, std::vector<BenchCell> prior,
        std::shared_ptr<CellMemo> memo)
{
    // Keep only the reused cells this shard owns, so a resumed shard
    // run emits exactly what a fresh shard run would.
    prior.erase(std::remove_if(prior.begin(), prior.end(),
                               [&](const BenchCell &c) {
                                   return !opts.shard.owns(c.index);
                               }),
                prior.end());
    if (!prior.empty())
        std::fprintf(stderr, "[bench] %s --resume: reusing %zu cell(s)\n",
                     opts.benchName.c_str(), prior.size());

    std::vector<bool> have(grid.size(), false);
    for (const BenchCell &c : prior)
        have[c.index] = true;
    std::vector<Cell> todo;
    for (const Cell &c : shardCells(grid, opts.shard))
        if (!have[c.index])
            todo.push_back(c);

    DriverOptions dopts = opts.driver();
    dopts.memo = std::move(memo);
    std::vector<BenchCell> cells = std::move(prior);
    for (const CellResult &res : runCells(todo, dopts))
        cells.push_back(makeBenchCell(
            res, res.failed ? std::vector<BenchRow>{} : view.rows(res)));
    std::stable_sort(cells.begin(), cells.end(),
                     [](const BenchCell &a, const BenchCell &b) {
                         return a.index < b.index;
                     });

    view.print(cells);

    BenchDoc doc;
    doc.bench = opts.benchName;
    doc.quick = opts.quick;
    doc.budgets = opts.budgets;
    doc.gridCells = grid.size();
    doc.shard = opts.shard;
    doc.jobs = opts.jobs != 0 ? opts.jobs : WorkPool::defaultJobs();
    doc.cells = std::move(cells);
    return doc;
}

int
viewMain(const char *binary, int argc, char **argv)
{
    const ViewEntry *entry = findView(binary);
    if (!entry) {
        std::fprintf(stderr, "%s: no such view\n", binary);
        return 2;
    }
    const BenchView view = entry->make();
    const BenchOptions opts =
        parseBenchArgs(argc, argv, binary, &view.extra);
    const std::vector<Cell> grid = view.grid(opts);

    std::vector<BenchCell> prior;
    std::string err;
    if (opts.resume &&
        !loadResumeCells(opts.jsonPath, binary, opts.quick, opts.budgets,
                         grid, prior, err)) {
        std::fprintf(stderr, "%s: --resume: %s\n", binary, err.c_str());
        return 1;
    }

    const BenchDoc doc = runView(view, opts, grid, std::move(prior),
                                 nullptr);
    if (opts.jsonPath.empty())
        return 0;
    if (!writeBenchDoc(doc, opts.jsonPath, err)) {
        std::fprintf(stderr, "%s: %s\n", binary, err.c_str());
        return 1;
    }
    std::fprintf(stderr, "[bench] wrote %s (%zu cells)\n",
                 opts.jsonPath.c_str(), doc.cells.size());
    return 0;
}

} // namespace tstream::bench
