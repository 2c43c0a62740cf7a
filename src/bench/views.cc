#include "bench/views.hh"

#include <algorithm>

#include "bench/run.hh"
#include "gen/workload_config.hh"

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

std::vector<Cell>
benchGrid(const std::vector<WorkloadKind> &workloads,
          const BenchOptions &opts, std::string &err)
{
    if (opts.workloadFile.empty() && opts.phasesSpec.empty())
        return standardGrid(workloads, opts.budgets);

    WorkloadKind kind;
    PhaseSchedule schedule;
    if (!opts.workloadFile.empty()) {
        WorkloadConfig config;
        if (!config.loadFromFile(opts.workloadFile, err)) {
            err = "--workload: " + err;
            return {};
        }
        kind = config.kind;
        schedule = config.schedule;
    } else {
        if (!parsePhasesSpec(opts.phasesSpec, schedule, err)) {
            err = "--phases: " + err;
            return {};
        }
        kind = WorkloadKind::PhasedMix;
    }

    if (std::find(workloads.begin(), workloads.end(), kind) ==
        workloads.end()) {
        err = "workload " + std::string(workloadName(kind)) +
              " is not part of this bench's sweep";
        return {};
    }

    std::vector<Cell> grid = standardGrid({kind}, opts.budgets);
    for (Cell &c : grid)
        c.cfg.phases = schedule;
    return grid;
}

} // namespace tstream::bench
