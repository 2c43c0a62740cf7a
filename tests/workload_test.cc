/**
 * @file
 * Integration tests: every workload runs end-to-end in both system
 * contexts and exhibits the paper's qualitative invariants.
 */

#include <gtest/gtest.h>

#include <array>

#include "core/module_profile.hh"
#include "core/stream_analysis.hh"
#include "sim/driver.hh"
#include "sim/experiment.hh"

namespace tstream
{
namespace
{

std::array<double, kNumMissClasses>
classShares(const MissTrace &t)
{
    std::array<double, kNumMissClasses> shares{};
    if (t.misses.empty())
        return shares;
    for (const MissRecord &m : t.misses)
        shares[m.cls] += 1.0;
    for (auto &s : shares)
        s /= static_cast<double>(t.misses.size());
    return shares;
}

constexpr auto kComp = static_cast<std::size_t>(MissClass::Compulsory);
constexpr auto kCoh = static_cast<std::size_t>(MissClass::Coherence);
constexpr auto kIo = static_cast<std::size_t>(MissClass::IoCoherence);

/** Every (workload, context) pair runs and produces a sane trace. */
class WorkloadRunTest
    : public ::testing::TestWithParam<
          std::tuple<WorkloadKind, SystemContext>>
{
};

TEST_P(WorkloadRunTest, ProducesConsistentTrace)
{
    const auto [w, c] = GetParam();
    auto cfg = ExperimentConfig::quick(w, c);
    ExperimentResult res = runExperiment(cfg);

    EXPECT_GT(res.instructions, cfg.measureInstructions / 2);
    ASSERT_GT(res.offChip.misses.size(), 1000u);
    EXPECT_GT(res.offChip.mpki(), 0.1);
    EXPECT_LT(res.offChip.mpki(), 200.0);
    // The untraced warm-up counted the misses that size the traces.
    EXPECT_GT(res.warmupOffChipMisses, 0u);

    // Sequence numbers strictly increase; cpu ids are in range.
    const unsigned ncpu = res.offChip.numCpus;
    for (std::size_t i = 0; i < res.offChip.misses.size(); ++i) {
        const auto &m = res.offChip.misses[i];
        EXPECT_LT(m.cpu, ncpu);
        EXPECT_LT(m.cls, kNumMissClasses);
        if (i > 0) {
            EXPECT_GT(m.seq, res.offChip.misses[i - 1].seq);
        }
    }

    if (c == SystemContext::SingleChip) {
        ASSERT_FALSE(res.intraChip.misses.empty());
        EXPECT_GT(res.warmupIntraChipMisses, 0u);
        // No processor coherence leaves a single chip.
        const auto shares = classShares(res.offChip);
        EXPECT_EQ(shares[kCoh], 0.0);
        // The filtered view drops exactly the off-chip records.
        const MissTrace onchip = onChipMisses(res.intraChip);
        std::size_t offchip = 0;
        for (const auto &m : res.intraChip.misses)
            if (static_cast<IntraClass>(m.cls) == IntraClass::OffChip)
                ++offchip;
        EXPECT_EQ(onchip.misses.size() + offchip,
                  res.intraChip.misses.size());
    } else {
        EXPECT_TRUE(res.intraChip.misses.empty());
        EXPECT_EQ(res.warmupIntraChipMisses, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, WorkloadRunTest,
    ::testing::Combine(
        ::testing::Values(WorkloadKind::Apache, WorkloadKind::Zeus,
                          WorkloadKind::Oltp, WorkloadKind::DssQ1,
                          WorkloadKind::DssQ2, WorkloadKind::DssQ17,
                          WorkloadKind::KvStore, WorkloadKind::Broker,
                          WorkloadKind::PhasedMix),
        ::testing::Values(SystemContext::MultiChip,
                          SystemContext::SingleChip)));

TEST(WorkloadShape, WebMultiChipIsCoherenceHeavy)
{
    auto cfg = ExperimentConfig::quick(WorkloadKind::Apache,
                                       SystemContext::MultiChip);
    auto res = runExperiment(cfg);
    const auto shares = classShares(res.offChip);
    EXPECT_GT(shares[kCoh], 0.2);
    EXPECT_GT(shares[kCoh], shares[kComp]);
}

TEST(WorkloadShape, DssIsCompulsoryHeavy)
{
    auto cfg = ExperimentConfig::quick(WorkloadKind::DssQ1,
                                       SystemContext::MultiChip);
    auto res = runExperiment(cfg);
    const auto shares = classShares(res.offChip);
    EXPECT_GT(shares[kComp], 0.4);
}

TEST(WorkloadShape, WebSingleChipIsIoHeavy)
{
    auto cfg = ExperimentConfig::quick(WorkloadKind::Zeus,
                                       SystemContext::SingleChip);
    auto res = runExperiment(cfg);
    const auto shares = classShares(res.offChip);
    EXPECT_GT(shares[kIo], 0.3);
}

TEST(WorkloadShape, WebMoreRepetitiveThanDss)
{
    auto web = runExperiment(ExperimentConfig::quick(
        WorkloadKind::Apache, SystemContext::MultiChip));
    auto dss = runExperiment(ExperimentConfig::quick(
        WorkloadKind::DssQ17, SystemContext::MultiChip));
    const double webFrac =
        analyzeStreams(web.offChip).inStreamFraction();
    const double dssFrac =
        analyzeStreams(dss.offChip).inStreamFraction();
    EXPECT_GT(webFrac, dssFrac);
    EXPECT_GT(webFrac, 0.5);
}

TEST(WorkloadShape, ModuleAttributionCoversTrace)
{
    auto cfg = ExperimentConfig::quick(WorkloadKind::Oltp,
                                       SystemContext::MultiChip);
    auto res = runExperiment(cfg);
    MissLabels labels;
    analyzeStreams(res.offChip, &labels);
    auto prof = profileModules(res.offChip, labels.rep, res.registry);
    EXPECT_EQ(prof.total, res.offChip.misses.size());
    std::uint64_t sum = 0;
    for (auto v : prof.misses)
        sum += v;
    EXPECT_EQ(sum, prof.total);
    // DB activity must show up in a DB workload.
    EXPECT_GT(prof.pctMisses(Category::DbIndexPageTuple), 1.0);
    // And the uncategorized share stays small: attribution is exact.
    EXPECT_LT(prof.pctMisses(Category::Uncategorized), 5.0);
}

TEST(WorkloadShape, WebTouchesItsCategories)
{
    auto cfg = ExperimentConfig::quick(WorkloadKind::Apache,
                                       SystemContext::MultiChip);
    auto res = runExperiment(cfg);
    MissLabels labels;
    analyzeStreams(res.offChip, &labels);
    auto prof = profileModules(res.offChip, labels.rep, res.registry);
    EXPECT_GT(prof.pctMisses(Category::BulkMemoryCopies), 0.5);
    EXPECT_GT(prof.pctMisses(Category::KernelScheduler), 0.0);
    // The web server's own code is a small fraction (paper: ~3%).
    EXPECT_LT(prof.pctMisses(Category::WebWorker), 15.0);
}

TEST(Experiment, DeterministicGivenSeed)
{
    auto cfg = ExperimentConfig::quick(WorkloadKind::Zeus,
                                       SystemContext::MultiChip);
    auto r1 = runExperiment(cfg);
    auto r2 = runExperiment(cfg);
    ASSERT_EQ(r1.offChip.misses.size(), r2.offChip.misses.size());
    for (std::size_t i = 0; i < r1.offChip.misses.size(); ++i) {
        EXPECT_EQ(r1.offChip.misses[i].block,
                  r2.offChip.misses[i].block);
        EXPECT_EQ(r1.offChip.misses[i].cpu, r2.offChip.misses[i].cpu);
        EXPECT_EQ(r1.offChip.misses[i].cls, r2.offChip.misses[i].cls);
    }
    EXPECT_EQ(r1.instructions, r2.instructions);
}

TEST(Experiment, DifferentSeedsDiverge)
{
    auto cfg = ExperimentConfig::quick(WorkloadKind::Zeus,
                                       SystemContext::MultiChip);
    auto r1 = runExperiment(cfg);
    cfg.seed = 777;
    auto r2 = runExperiment(cfg);
    // Traces should differ somewhere (lengths or contents).
    bool differ = r1.offChip.misses.size() != r2.offChip.misses.size();
    if (!differ) {
        for (std::size_t i = 0; i < r1.offChip.misses.size(); ++i) {
            if (r1.offChip.misses[i].block !=
                r2.offChip.misses[i].block) {
                differ = true;
                break;
            }
        }
    }
    EXPECT_TRUE(differ);
}

TEST(Experiment, WorkloadNamesAndPredicates)
{
    EXPECT_EQ(workloadName(WorkloadKind::Apache), "Apache");
    EXPECT_EQ(workloadName(WorkloadKind::Oltp), "DB2-OLTP");
    EXPECT_EQ(workloadName(WorkloadKind::DssQ17), "DSS-Qry17");
    EXPECT_EQ(workloadName(WorkloadKind::KvStore), "KVstore");
    EXPECT_EQ(workloadName(WorkloadKind::Broker), "Broker");
    EXPECT_EQ(workloadName(WorkloadKind::PhasedMix), "PhasedMix");
    EXPECT_TRUE(workloadIsDb(WorkloadKind::DssQ1));
    EXPECT_FALSE(workloadIsDb(WorkloadKind::Zeus));
    EXPECT_FALSE(workloadIsDb(WorkloadKind::Broker));
    EXPECT_EQ(contextName(SystemContext::MultiChip), "multi-chip");
}

} // namespace
} // namespace tstream
