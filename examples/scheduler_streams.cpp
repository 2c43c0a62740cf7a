/**
 * @file
 * The paper's motivating example two (Section 2.1): the Solaris
 * per-CPU dispatch queues. When a CPU's own queue is empty it scans
 * every other CPU's queue in a fixed order (disp_getwork /
 * disp_getbest / dispdeq / disp_ratify). Because the queue locks sit
 * at fixed addresses and all CPUs scan in the same order, the misses
 * form highly repetitive cross-CPU temporal streams — the paper
 * measures up to 12% of all off-chip misses in these functions.
 *
 * This example starves most CPUs so work stealing dominates, then
 * shows the scheduler category's share and repetitiveness.
 */

#include <cstdio>
#include <memory>

#include "core/module_profile.hh"
#include "core/stream_analysis.hh"
#include "kernel/kernel.hh"
#include "mem/multichip.hh"
#include "sim/engine.hh"

namespace
{

using namespace tstream;

/** A task that does a little private work, then yields. */
class ChurnTask : public Task
{
  public:
    explicit ChurnTask(Addr scratch)
        : scratch_(scratch)
    {
    }

    RunResult
    run(SysCtx &ctx) override
    {
        // Touch a small private working set; the interesting traffic
        // is the scheduler's, not ours.
        for (int i = 0; i < 4; ++i)
            ctx.read(scratch_ + i * kBlockSize, 32, 0);
        ctx.write(scratch_, 16, 0);
        ctx.exec(400);
        return RunResult::Yield;
    }

  private:
    Addr scratch_;
};

} // namespace

int
main()
{
    using namespace tstream;

    Engine eng(std::make_unique<MultiChipSystem>(), /*seed=*/21);
    Kernel kern(eng);

    // Fewer runnable threads than CPUs: queues are mostly empty, so
    // idle CPUs continuously steal, scanning all dispatch queues in
    // fixed order.
    for (unsigned t = 0; t < 6; ++t) {
        const Addr scratch =
            kern.kernelHeap().allocBlocks(8);
        kern.spawn(std::make_unique<ChurnTask>(scratch),
                   static_cast<CpuId>(t % eng.numCpus()));
    }

    eng.setTracing(false);
    kern.run(2'000'000);
    eng.setTracing(true);
    kern.run(6'000'000);
    eng.finalizeTraces();

    const MissTrace &trace = eng.memory().offChipTrace();
    MissLabels labels;
    StreamStats st = analyzeStreams(trace, &labels);
    ModuleProfile prof = profileModules(trace, labels.rep, eng.registry());

    std::printf("off-chip misses: %zu\n", trace.misses.size());
    std::printf("kernel scheduler share: %.1f%% of misses, %.1f%% of "
                "misses in-category are in streams\n",
                prof.pctMisses(Category::KernelScheduler),
                prof.pctInStreams(Category::KernelScheduler));
    std::printf("overall in-stream: %.1f%%\n",
                100.0 * st.inStreamFraction());
    std::printf("\nThe dispatch-queue scan addresses are fixed and the "
                "scan order is the same\non every CPU, so the "
                "scheduler's misses are almost entirely repetitive.\n");
    return 0;
}
