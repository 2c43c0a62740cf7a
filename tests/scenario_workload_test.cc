/**
 * @file
 * Scenario-suite tests: the KV store, broker and phased-mix
 * workloads are deterministic down to the trace bytes, the phase
 * schedule switches op mixes exactly at the configured edges, and the
 * phased configHash covers the schedule.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/module_profile.hh"
#include "core/stream_analysis.hh"
#include "kernel/kernel.hh"
#include "mem/singlechip.hh"
#include "sim/experiment.hh"
#include "sim/phased_workload.hh"
#include "trace/trace_io.hh"

namespace tstream
{
namespace
{

/** Small budgets: enough work to exercise every subsystem, fast. */
ExperimentConfig
tinyConfig(WorkloadKind w, SystemContext c)
{
    ExperimentConfig cfg;
    cfg.workload = w;
    cfg.context = c;
    cfg.warmupInstructions = 300'000;
    cfg.measureInstructions = 800'000;
    cfg.scale = 0.1;
    return cfg;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
tempPath(const char *tag)
{
    // Keyed on the running test's name so parameterized instances can
    // execute concurrently (ctest -j) without racing on one file.
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string unique = info ? info->name() : "unnamed";
    for (char &c : unique)
        if (c == '/' || c == ' ' || c == '<' || c == '>')
            c = '_';
    return ::testing::TempDir() + "/tstream_scenario_" + unique + "_" +
           tag + ".tst";
}

// ---- fixed-seed determinism -------------------------------------------------

class ScenarioDeterminismTest
    : public ::testing::TestWithParam<WorkloadKind>
{
};

/** Two runs of one config: equal configHash, byte-identical traces. */
TEST_P(ScenarioDeterminismTest, IdenticalHashAndTraceBytes)
{
    const auto cfg =
        tinyConfig(GetParam(), SystemContext::MultiChip);
    ASSERT_EQ(configHash(cfg), configHash(cfg));

    const std::string pathA = tempPath("a"), pathB = tempPath("b");
    for (int run = 0; run < 2; ++run) {
        ExperimentResult res = runExperiment(cfg);
        ASSERT_GT(res.offChip.misses.size(), 1000u);
        TraceWriteOptions opts;
        opts.configHash = configHash(cfg);
        opts.registry = &res.registry;
        ASSERT_TRUE(saveTrace(res.offChip,
                              run == 0 ? pathA : pathB, opts));
    }
    const std::string a = fileBytes(pathA), b = fileBytes(pathB);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "trace bytes differ across identical runs";
    std::remove(pathA.c_str());
    std::remove(pathB.c_str());
}

TEST_P(ScenarioDeterminismTest, DifferentSeedsDiverge)
{
    auto cfg = tinyConfig(GetParam(), SystemContext::MultiChip);
    auto r1 = runExperiment(cfg);
    cfg.seed = 1234;
    auto r2 = runExperiment(cfg);
    EXPECT_NE(configHash(tinyConfig(GetParam(),
                                    SystemContext::MultiChip)),
              configHash(cfg));
    bool differ =
        r1.offChip.misses.size() != r2.offChip.misses.size();
    for (std::size_t i = 0;
         !differ && i < r1.offChip.misses.size(); ++i)
        differ = r1.offChip.misses[i].block !=
                 r2.offChip.misses[i].block;
    EXPECT_TRUE(differ);
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, ScenarioDeterminismTest,
                         ::testing::Values(WorkloadKind::KvStore,
                                           WorkloadKind::Broker,
                                           WorkloadKind::PhasedMix));

// ---- phase schedule edges ---------------------------------------------------

TEST(PhaseSchedule, SwitchesExactlyAtConfiguredEdges)
{
    PhaseSchedule s;
    s.phases = {
        {WorkloadKind::KvStore, 0.9, 1000},
        {WorkloadKind::Broker, 0.5, 500},
        {WorkloadKind::KvStore, 0.2, 250},
    };
    ASSERT_EQ(s.cycleLength(), 1750u);

    // Phase 0 covers [0, 1000): the instruction *at* the edge already
    // belongs to the next phase.
    EXPECT_EQ(s.ordinalAt(0), 0u);
    EXPECT_EQ(s.ordinalAt(999), 0u);
    EXPECT_EQ(s.ordinalAt(1000), 1u);
    EXPECT_EQ(s.ordinalAt(1499), 1u);
    EXPECT_EQ(s.ordinalAt(1500), 2u);
    EXPECT_EQ(s.ordinalAt(1749), 2u);

    // Cyclic wrap: ordinals keep increasing across cycles.
    EXPECT_EQ(s.ordinalAt(1750), 3u);
    EXPECT_EQ(s.ordinalAt(1750 + 999), 3u);
    EXPECT_EQ(s.ordinalAt(1750 + 1000), 4u);
    EXPECT_EQ(s.ordinalAt(2 * 1750), 6u);

    // at() maps an ordinal back to its phase definition.
    EXPECT_EQ(s.at(0).kind, WorkloadKind::KvStore);
    EXPECT_EQ(s.at(1).kind, WorkloadKind::Broker);
    EXPECT_EQ(s.at(4).kind, WorkloadKind::Broker);
    EXPECT_DOUBLE_EQ(s.at(5).mix, 0.2);
}

TEST(PhaseSchedule, StandardMixAlternatesKinds)
{
    const PhaseSchedule s = PhaseSchedule::standardMix();
    ASSERT_EQ(s.phases.size(), 4u);
    EXPECT_EQ(s.phases[0].kind, WorkloadKind::KvStore);
    EXPECT_EQ(s.phases[1].kind, WorkloadKind::Broker);
    EXPECT_EQ(s.phases[2].kind, WorkloadKind::KvStore);
    EXPECT_EQ(s.phases[3].kind, WorkloadKind::Broker);
    EXPECT_GT(s.cycleLength(), 0u);
}

/** The phased workload honours the schedule: both op kinds run, and
 *  every observed transition lands at-or-after its configured edge
 *  while the previous observation was still before it. */
TEST(PhaseSchedule, WorkloadSwitchesOpMixAtEdges)
{
    PhasedConfig cfg;
    cfg.rescale(0.1);
    cfg.seed = 42;
    cfg.schedule.phases = {
        {WorkloadKind::KvStore, 0.9, 400'000},
        {WorkloadKind::Broker, 0.6, 400'000},
    };

    Engine eng(std::make_unique<SingleChipSystem>(), cfg.seed);
    Kernel kern(eng);
    PhasedWorkload wl(cfg);
    wl.setup(kern);
    kern.run(2'000'000); // ~2.5 cycles

    EXPECT_GT(wl.kvOps(), 0u);
    EXPECT_GT(wl.mqOps(), 0u);

    const auto &log = wl.switchLog();
    ASSERT_GE(log.size(), 3u); // saw at least ordinals 0, 1, 2
    for (std::size_t i = 0; i < log.size(); ++i) {
        // The edge where this ordinal begins.
        const std::uint64_t cycle = cfg.schedule.cycleLength();
        const std::uint64_t start =
            (log[i].ordinal / cfg.schedule.phases.size()) * cycle +
            (log[i].ordinal % cfg.schedule.phases.size()) * 400'000;
        EXPECT_GE(log[i].instructions, start)
            << "switch observed before its phase edge";
        EXPECT_EQ(cfg.schedule.ordinalAt(log[i].instructions),
                  log[i].ordinal);
        if (i > 0) {
            EXPECT_EQ(log[i].ordinal, log[i - 1].ordinal + 1);
            EXPECT_LT(log[i - 1].instructions, start)
                << "previous phase observation at/after this edge";
        }
    }
}

// ---- configHash covers the schedule ----------------------------------------

TEST(PhasedConfigHash, CoversPhaseSchedule)
{
    auto base = tinyConfig(WorkloadKind::PhasedMix,
                           SystemContext::MultiChip);

    // Empty schedule hashes like an explicit copy of the default.
    auto explicitDefault = base;
    explicitDefault.phases = PhaseSchedule::standardMix();
    EXPECT_EQ(configHash(base), configHash(explicitDefault));

    // Any real change re-keys the cell.
    auto longer = explicitDefault;
    longer.phases.phases[0].duration += 1;
    EXPECT_NE(configHash(base), configHash(longer));

    auto mixed = explicitDefault;
    mixed.phases.phases[1].mix = 0.51;
    EXPECT_NE(configHash(base), configHash(mixed));

    auto swapped = explicitDefault;
    swapped.phases.phases[0].kind = WorkloadKind::Broker;
    EXPECT_NE(configHash(base), configHash(swapped));

    // Standalone scenario workloads hash their *resolved* schedule:
    // spelling out the built-in defaults is the same cell, changing
    // one distribution parameter is not.
    auto kv = tinyConfig(WorkloadKind::KvStore,
                         SystemContext::MultiChip);
    auto kvExplicit = kv;
    kvExplicit.phases =
        resolvedSchedule(WorkloadKind::KvStore, PhaseSchedule{});
    ASSERT_EQ(kvExplicit.phases.phases.size(), 1u);
    EXPECT_EQ(configHash(kv), configHash(kvExplicit));

    auto kvHot = kvExplicit;
    kvHot.phases.phases[0].dist.theta = 0.99;
    EXPECT_NE(configHash(kv), configHash(kvHot));

    auto kvDist = kvExplicit;
    kvDist.phases.phases[0].dist.kind = KeyDistKind::Hotspot;
    EXPECT_NE(configHash(kv), configHash(kvDist));
}

// ---- engine-level invariants ------------------------------------------------

TEST(ScenarioShape, KvStoreIsHighlyRepetitive)
{
    auto res = runExperiment(
        tinyConfig(WorkloadKind::KvStore, SystemContext::MultiChip));
    // Hash/LRU/slab reuse should put the KV store at web-like
    // in-stream fractions (top of the paper's 35-90% band).
    const double frac =
        analyzeStreams(res.offChip).inStreamFraction();
    EXPECT_GT(frac, 0.6);
}

TEST(ScenarioShape, BrokerReplayFormsStreams)
{
    auto res = runExperiment(
        tinyConfig(WorkloadKind::Broker, SystemContext::MultiChip));
    const double frac =
        analyzeStreams(res.offChip).inStreamFraction();
    EXPECT_GT(frac, 0.6);
}

TEST(ScenarioShape, ScenarioCategoriesAttributed)
{
    {
        auto res = runExperiment(tinyConfig(WorkloadKind::KvStore,
                                            SystemContext::MultiChip));
        MissLabels labels;
        analyzeStreams(res.offChip, &labels);
        auto prof = profileModules(res.offChip, labels.rep, res.registry);
        EXPECT_GT(prof.pctMisses(Category::KvHashIndex) +
                      prof.pctMisses(Category::KvSlabLru),
                  1.0);
        EXPECT_LT(prof.pctMisses(Category::Uncategorized), 5.0);
    }
    {
        auto res = runExperiment(tinyConfig(WorkloadKind::Broker,
                                            SystemContext::MultiChip));
        MissLabels labels;
        analyzeStreams(res.offChip, &labels);
        auto prof = profileModules(res.offChip, labels.rep, res.registry);
        EXPECT_GT(prof.pctMisses(Category::MqTopicLog) +
                      prof.pctMisses(Category::MqCursorIndex),
                  1.0);
        EXPECT_LT(prof.pctMisses(Category::Uncategorized), 5.0);
    }
}

TEST(ScenarioShape, NamesAndPredicates)
{
    EXPECT_EQ(workloadName(WorkloadKind::KvStore), "KVstore");
    EXPECT_EQ(workloadName(WorkloadKind::Broker), "Broker");
    EXPECT_EQ(workloadName(WorkloadKind::PhasedMix), "PhasedMix");
    EXPECT_TRUE(workloadIsScenario(WorkloadKind::KvStore));
    EXPECT_TRUE(workloadIsScenario(WorkloadKind::Broker));
    EXPECT_TRUE(workloadIsScenario(WorkloadKind::PhasedMix));
    EXPECT_FALSE(workloadIsScenario(WorkloadKind::Apache));
    EXPECT_FALSE(workloadIsDb(WorkloadKind::KvStore));
    EXPECT_TRUE(categoryIsScenario(Category::KvHashIndex));
    EXPECT_TRUE(categoryIsScenario(Category::MqTopicLog));
    EXPECT_FALSE(categoryIsScenario(Category::WebWorker));
}

} // namespace
} // namespace tstream
