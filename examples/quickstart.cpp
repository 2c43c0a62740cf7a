/**
 * @file
 * Quickstart: run one workload through one system context, identify
 * temporal streams, and print the headline numbers.
 *
 * Build the project, then:   ./build/examples/example_quickstart
 */

#include <cstdio>

#include "core/module_profile.hh"
#include "core/stream_analysis.hh"
#include "sim/experiment.hh"

int
main()
{
    using namespace tstream;

    // 1. Configure one experiment: the OLTP workload on the 16-node
    //    multi-chip DSM, with small budgets so this runs in seconds.
    ExperimentConfig cfg;
    cfg.workload = WorkloadKind::Oltp;
    cfg.context = SystemContext::MultiChip;
    cfg.warmupInstructions = 6'000'000;
    cfg.measureInstructions = 8'000'000;
    cfg.scale = 0.4; // shrink footprints for the demo

    // 2. Run it: warms up untraced, then collects the off-chip
    //    read-miss trace.
    ExperimentResult res = runExperiment(cfg);
    std::printf("collected %zu off-chip read misses over %llu "
                "instructions (%.2f per 1000)\n",
                res.offChip.misses.size(),
                static_cast<unsigned long long>(res.instructions),
                res.offChip.mpki());

    // 3. Identify temporal streams with the SEQUITUR analysis.
    MissLabels labels;
    StreamStats streams = analyzeStreams(res.offChip, &labels);
    std::printf("misses in temporal streams: %.1f%%  (median stream "
                "length %.0f, %llu grammar rules)\n",
                100.0 * streams.inStreamFraction(),
                streams.medianStreamLength(),
                static_cast<unsigned long long>(streams.grammarRules));

    // 4. Attribute misses to code modules (paper Tables 3-5 style).
    ModuleProfile prof =
        profileModules(res.offChip, labels.rep, res.registry);
    std::printf("\nper-category breakdown:\n%s",
                renderModuleTable(prof, /*web_rows=*/false,
                                  /*db_rows=*/true)
                    .c_str());
    return 0;
}
