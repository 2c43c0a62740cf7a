/**
 * @file
 * Workload config tests (gen/workload_config.hh): a table of
 * malformed configs each rejected with a distinct, line-numbered
 * diagnostic (the parser must never crash or half-apply a config),
 * golden round-trips through serialize(), the --phases record
 * grammar, and the cache-correctness contract — a config spelling out
 * the compiled-in defaults lands in the same configHash() cell and
 * reproduces the default run bit-for-bit, while a one-parameter change
 * re-keys the cell and measurably reshapes the stream-length
 * distribution.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "core/stream_analysis.hh"
#include "gen/workload_config.hh"
#include "sim/experiment.hh"

namespace tstream
{
namespace
{

constexpr const char *kStandardKv = "workload kv\n"
                                    "phase kv mix=0.85 dist=zipfian "
                                    "theta=0.95\n";

// ---- rejection table --------------------------------------------------------

struct BadConfig
{
    const char *label;
    const char *text;
    const char *errSubstring;
};

const BadConfig kBadConfigs[] = {
    {"empty", "", "config has no 'workload' line"},
    {"comment only", "# nothing here\n\n",
     "config has no 'workload' line"},
    {"no phases", "workload kv\n", "config has no 'phase' lines"},
    {"phase before workload",
     "phase kv mix=0.5 dist=uniform\nworkload kv\n",
     "line 1: expected a 'workload' line before any phase"},
    {"unknown workload kind", "workload oltp\n",
     "line 1: unknown workload kind 'oltp' (want kv, broker or "
     "phased-mix)"},
    {"workload arity", "workload kv broker\n",
     "line 1: 'workload' wants exactly one argument"},
    {"duplicate workload",
     "workload kv\nworkload broker\n"
     "phase kv mix=0.5 dist=uniform\n",
     "line 2: duplicate 'workload' line"},
    {"unknown directive",
     "workload kv\nspeed fast\nphase kv mix=0.5 dist=uniform\n",
     "line 2: unknown directive 'speed' (want 'workload' or "
     "'phase')"},
    {"second phase on standalone",
     "workload kv\nphase kv mix=0.5 dist=uniform\n"
     "phase kv mix=0.9 dist=uniform\n",
     "line 3: a kv workload takes exactly one phase line"},
    {"bare phase", "workload kv\nphase\n",
     "line 2: phase wants a kind (kv or broker)"},
    {"phase kind phased-mix",
     "workload phased-mix\n"
     "phase phased-mix mix=0.5 dist=uniform duration=1000\n",
     "line 2: unknown phase kind 'phased-mix' (want kv or broker)"},
    {"param without value",
     "workload kv\nphase kv mix dist=uniform\n",
     "line 2: malformed parameter 'mix' (want key=value)"},
    {"param empty value",
     "workload kv\nphase kv mix= dist=uniform\n",
     "line 2: malformed parameter 'mix=' (want key=value)"},
    {"mix not a number",
     "workload kv\nphase kv mix=fast dist=uniform\n",
     "line 2: bad number 'fast' for 'mix'"},
    {"mix out of range",
     "workload kv\nphase kv mix=1.5 dist=uniform\n",
     "line 2: mix must be within [0, 1]"},
    {"mix trailing garbage",
     "workload kv\nphase kv mix=0.5x dist=uniform\n",
     "line 2: bad number '0.5x' for 'mix'"},
    {"mix nan",
     "workload kv\nphase kv mix=nan dist=uniform\n",
     "line 2: bad number 'nan' for 'mix'"},
    {"duplicate param",
     "workload kv\nphase kv mix=0.5 mix=0.6 dist=uniform\n",
     "line 2: duplicate parameter 'mix'"},
    {"unknown distribution",
     "workload kv\nphase kv mix=0.5 dist=pareto\n",
     "line 2: unknown distribution 'pareto' (want uniform, zipfian, "
     "hotspot or latest)"},
    {"unknown param",
     "workload kv\nphase kv mix=0.5 dist=zipfian skew=0.9\n",
     "line 2: unknown phase parameter 'skew'"},
    {"theta out of range",
     "workload kv\nphase kv mix=0.5 dist=zipfian theta=2.5\n",
     "line 2: theta must be within (0, 2)"},
    {"theta zero",
     "workload kv\nphase kv mix=0.5 dist=zipfian theta=0\n",
     "line 2: theta must be within (0, 2)"},
    {"theta nan",
     "workload kv\nphase kv mix=0.5 dist=zipfian theta=NaN\n",
     "line 2: bad number 'NaN' for 'theta'"},
    {"frac out of range",
     "workload kv\nphase kv mix=0.5 dist=hotspot frac=1 prob=0.9\n",
     "line 2: frac must be within (0, 1)"},
    {"prob out of range",
     "workload kv\nphase kv mix=0.5 dist=hotspot frac=0.2 prob=0\n",
     "line 2: prob must be within (0, 1)"},
    {"missing mix", "workload kv\nphase kv dist=uniform\n",
     "line 2: phase is missing required parameter 'mix'"},
    {"missing dist", "workload kv\nphase kv mix=0.5\n",
     "line 2: phase is missing required parameter 'dist'"},
    {"theta on hotspot",
     "workload kv\n"
     "phase kv mix=0.5 dist=hotspot frac=0.2 prob=0.9 theta=0.9\n",
     "line 2: 'theta' applies only to zipfian/latest distributions"},
    {"frac on zipfian",
     "workload kv\nphase kv mix=0.5 dist=zipfian frac=0.2\n",
     "line 2: 'frac'/'prob' apply only to the hotspot distribution"},
    {"missing duration on phased-mix",
     "workload phased-mix\nphase kv mix=0.5 dist=uniform\n",
     "line 2: phased-mix phases want an explicit duration"},
    {"duration on standalone",
     "workload kv\nphase kv mix=0.5 dist=uniform duration=1000\n",
     "line 2: 'duration' applies only to phased-mix phases"},
    {"zero duration",
     "workload phased-mix\n"
     "phase kv mix=0.5 dist=uniform duration=0\n",
     "line 2: duration wants a positive instruction count, got '0'"},
    {"negative duration",
     "workload phased-mix\n"
     "phase kv mix=0.5 dist=uniform duration=-5\n",
     "line 2: duration wants a positive instruction count, got "
     "'-5'"},
    {"duration not a count",
     "workload phased-mix\n"
     "phase kv mix=0.5 dist=uniform duration=1e6\n",
     "line 2: duration wants a positive instruction count, got "
     "'1e6'"},
    {"duration overflows",
     "workload phased-mix\n"
     "phase kv mix=0.5 dist=uniform duration=18446744073709551616\n",
     "line 2: duration wants a positive instruction count, got "
     "'18446744073709551616'"},
    {"phase kind mismatch",
     "workload kv\nphase broker mix=0.5 dist=uniform\n",
     "line 2: phase kind 'broker' does not match 'workload kv'"},
};

TEST(WorkloadConfigRejects, EveryBadConfigWithDistinctError)
{
    for (const BadConfig &bad : kBadConfigs) {
        WorkloadConfig cfg;
        std::string err;
        EXPECT_FALSE(cfg.loadFromString(bad.text, err)) << bad.label;
        EXPECT_NE(err.find(bad.errSubstring), std::string::npos)
            << bad.label << ": error was \"" << err << "\"";
        // A failed load leaves the config untouched (still the
        // default-constructed empty schedule).
        EXPECT_TRUE(cfg.schedule.empty()) << bad.label;
    }
}

TEST(WorkloadConfigRejects, ErrorMessagesAreDistinct)
{
    // Every rejection names its own cause: no two table entries may
    // share a diagnostic (line prefix aside, which several intended
    // duplicates rely on — compare full strings).
    for (std::size_t i = 0; i < std::size(kBadConfigs); ++i)
        for (std::size_t j = i + 1; j < std::size(kBadConfigs); ++j) {
            if (std::string(kBadConfigs[i].errSubstring) ==
                kBadConfigs[j].errSubstring)
                continue; // intentionally shared (e.g. theta range)
            WorkloadConfig a, b;
            std::string ea, eb;
            a.loadFromString(kBadConfigs[i].text, ea);
            b.loadFromString(kBadConfigs[j].text, eb);
            EXPECT_NE(ea, eb)
                << kBadConfigs[i].label << " vs "
                << kBadConfigs[j].label;
        }
}

// ---- accepted configs & round-trips ----------------------------------------

TEST(WorkloadConfigParses, StandaloneKvWithDefaults)
{
    WorkloadConfig cfg;
    std::string err;
    ASSERT_TRUE(cfg.loadFromString(kStandardKv, err)) << err;
    EXPECT_EQ(cfg.kind, WorkloadKind::KvStore);
    ASSERT_EQ(cfg.schedule.phases.size(), 1u);
    const WorkloadPhase &p = cfg.schedule.phases[0];
    EXPECT_EQ(p.kind, WorkloadKind::KvStore);
    EXPECT_DOUBLE_EQ(p.mix, 0.85);
    EXPECT_EQ(p.duration, 0u);
    EXPECT_EQ(p.dist.kind, KeyDistKind::Zipfian);
    EXPECT_DOUBLE_EQ(p.dist.theta, 0.95);
}

TEST(WorkloadConfigParses, CommentsAliasesAndWhitespace)
{
    const char *text = "# scenario: write-heavy broker\n"
                       "\n"
                       "workload mq   # 'mq' aliases 'broker'\n"
                       "  phase   broker   mix=0.25 "
                       "dist=hotspot frac=0.1 prob=0.8  # skewed\n";
    WorkloadConfig cfg;
    std::string err;
    ASSERT_TRUE(cfg.loadFromString(text, err)) << err;
    EXPECT_EQ(cfg.kind, WorkloadKind::Broker);
    ASSERT_EQ(cfg.schedule.phases.size(), 1u);
    EXPECT_EQ(cfg.schedule.phases[0].dist.kind, KeyDistKind::Hotspot);
    EXPECT_DOUBLE_EQ(cfg.schedule.phases[0].dist.hotFrac, 0.1);
    EXPECT_DOUBLE_EQ(cfg.schedule.phases[0].dist.hotProb, 0.8);
}

TEST(WorkloadConfigParses, GoldenRoundTripAllDistributions)
{
    const char *text =
        "workload phased-mix\n"
        "phase kv mix=0.9 dist=zipfian theta=0.99 duration=1000000\n"
        "phase broker mix=0.75 dist=latest theta=0.7 "
        "duration=500000\n"
        "phase kv mix=0.5 dist=hotspot frac=0.25 prob=0.95 "
        "duration=250000\n"
        "phase broker mix=0.3 dist=uniform duration=125000\n";
    WorkloadConfig cfg;
    std::string err;
    ASSERT_TRUE(cfg.loadFromString(text, err)) << err;
    ASSERT_EQ(cfg.schedule.phases.size(), 4u);

    // load → serialize → reparse must be a fixed point.
    const std::string text2 = cfg.serialize();
    WorkloadConfig cfg2;
    ASSERT_TRUE(cfg2.loadFromString(text2, err)) << err;
    EXPECT_EQ(cfg, cfg2);
    EXPECT_EQ(cfg2.serialize(), text2);
}

TEST(WorkloadConfigParses, SerializePreservesExactDoubles)
{
    // An awkward theta must survive serialize() → strtod exactly, so
    // a round-tripped config hashes into the same cache cell.
    const char *text = "workload kv\n"
                       "phase kv mix=0.333333333333333315 "
                       "dist=zipfian theta=1.0000000000000002\n";
    WorkloadConfig cfg;
    std::string err;
    ASSERT_TRUE(cfg.loadFromString(text, err)) << err;
    WorkloadConfig cfg2;
    ASSERT_TRUE(cfg2.loadFromString(cfg.serialize(), err)) << err;
    EXPECT_EQ(cfg.schedule.phases[0].mix,
              cfg2.schedule.phases[0].mix);
    EXPECT_EQ(cfg.schedule.phases[0].dist.theta,
              cfg2.schedule.phases[0].dist.theta);
}

TEST(WorkloadConfigFile, LoadFromFileAndMissingFile)
{
    const std::string path =
        ::testing::TempDir() + "/tstream_wcfg_test.conf";
    {
        std::ofstream out(path);
        out << kStandardKv;
    }
    WorkloadConfig cfg;
    std::string err;
    ASSERT_TRUE(cfg.loadFromFile(path, err)) << err;
    EXPECT_EQ(cfg.kind, WorkloadKind::KvStore);
    std::remove(path.c_str());

    // Errors carry the path: both open failures and parse failures.
    WorkloadConfig missing;
    EXPECT_FALSE(missing.loadFromFile(path, err));
    EXPECT_NE(err.find(path), std::string::npos);
    EXPECT_NE(err.find("cannot open workload config"),
              std::string::npos);

    {
        std::ofstream out(path);
        out << "workload kv\n";
    }
    WorkloadConfig broken;
    EXPECT_FALSE(broken.loadFromFile(path, err));
    EXPECT_NE(err.find(path), std::string::npos);
    EXPECT_NE(err.find("no 'phase' lines"), std::string::npos);
    std::remove(path.c_str());
}

// ---- loader fuzz ------------------------------------------------------------

/** The committed example configs (examples/workloads), in name order. */
std::vector<std::filesystem::path>
exampleConfigs()
{
    std::vector<std::filesystem::path> out;
    for (const auto &e : std::filesystem::directory_iterator(
             TSTREAM_WORKLOAD_EXAMPLES_DIR))
        if (e.path().extension() == ".conf")
            out.push_back(e.path());
    std::sort(out.begin(), out.end());
    return out;
}

/**
 * Parse @p text into a config holding @p sentinel. A mutant must
 * either fail with a diagnostic and leave the sentinel untouched, or
 * load a config that serialize() round-trips to an equal value.
 */
void
checkMutant(const std::string &text, const WorkloadConfig &sentinel,
            const std::string &label)
{
    WorkloadConfig cfg = sentinel;
    std::string err;
    if (!cfg.loadFromString(text, err)) {
        EXPECT_FALSE(err.empty()) << label;
        EXPECT_EQ(cfg, sentinel) << label;
        return;
    }
    const std::string canon = cfg.serialize();
    WorkloadConfig back;
    ASSERT_TRUE(back.loadFromString(canon, err))
        << label << ": " << err << "\n" << canon;
    EXPECT_EQ(back, cfg) << label << "\n" << canon;
}

TEST(WorkloadConfigFuzz, MutatedExampleConfigsFailCleanlyOrRoundTrip)
{
    const auto configs = exampleConfigs();
    ASSERT_GE(configs.size(), 3u);
    // Distinct from every example, so a half-applied load shows.
    WorkloadConfig sentinel;
    std::string err;
    ASSERT_TRUE(sentinel.loadFromString(kStandardKv, err)) << err;
    std::mt19937_64 rng(2027);
    for (const auto &conf : configs) {
        std::ifstream in(conf, std::ios::binary);
        const std::string base((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
        ASSERT_FALSE(base.empty()) << conf;
        const std::string name = conf.filename().string();
        checkMutant(base, sentinel, name);
        // Every single-bit flip and every truncation: the files are
        // small enough to cover exhaustively.
        for (std::size_t at = 0; at < base.size(); ++at) {
            for (unsigned bit = 0; bit < 8; ++bit) {
                std::string m = base;
                m[at] = static_cast<char>(m[at] ^ (1u << bit));
                checkMutant(m, sentinel,
                            name + " bit " + std::to_string(bit) +
                                " of byte " + std::to_string(at));
            }
            checkMutant(base.substr(0, at), sentinel,
                        name + " truncated to " + std::to_string(at));
        }
        // Then 512 mutants of two to four random flips each.
        for (int i = 0; i < 512; ++i) {
            std::string m = base;
            std::string label = name;
            for (int flips = 2 + int(rng() % 3); flips > 0; --flips) {
                const std::size_t at = rng() % m.size();
                const unsigned bit = rng() % 8;
                m[at] = static_cast<char>(m[at] ^ (1u << bit));
                label += " bit " + std::to_string(bit) + " of byte " +
                         std::to_string(at);
            }
            checkMutant(m, sentinel, label);
        }
    }
}

// ---- --phases records -------------------------------------------------------

TEST(PhasesSpec, ParsesSemicolonSeparatedRecords)
{
    PhaseSchedule sched;
    std::string err;
    ASSERT_TRUE(parsePhasesSpec(
        "kv mix=0.9 dist=zipfian theta=0.99 duration=1000; "
        "broker mix=0.5 dist=uniform duration=500",
        sched, err))
        << err;
    ASSERT_EQ(sched.phases.size(), 2u);
    EXPECT_EQ(sched.phases[0].kind, WorkloadKind::KvStore);
    EXPECT_EQ(sched.phases[0].duration, 1000u);
    EXPECT_EQ(sched.phases[1].kind, WorkloadKind::Broker);
    EXPECT_EQ(sched.phases[1].dist.kind, KeyDistKind::Uniform);
}

TEST(PhasesSpec, ErrorsNameTheRecord)
{
    PhaseSchedule sched;
    std::string err;
    EXPECT_FALSE(parsePhasesSpec(
        "kv mix=0.9 dist=uniform duration=1000; "
        "broker mix=0.5 dist=uniform",
        sched, err));
    EXPECT_NE(err.find("phase record 2"), std::string::npos);
    EXPECT_NE(err.find("explicit duration"), std::string::npos);

    EXPECT_FALSE(parsePhasesSpec(
        "kv mix=0.9 dist=uniform duration=1000;", sched, err));
    EXPECT_NE(err.find("phase record 2 is empty"), std::string::npos);

    EXPECT_FALSE(parsePhasesSpec("", sched, err));
    EXPECT_NE(err.find("phase record 1 is empty"), std::string::npos);

    // A failed parse leaves the output schedule untouched.
    EXPECT_TRUE(sched.empty());
}

// ---- cache correctness ------------------------------------------------------

ExperimentConfig
tinyConfig(WorkloadKind w)
{
    ExperimentConfig cfg;
    cfg.workload = w;
    cfg.context = SystemContext::MultiChip;
    cfg.warmupInstructions = 300'000;
    cfg.measureInstructions = 800'000;
    cfg.scale = 0.1;
    return cfg;
}

TEST(ConfigCache, DefaultSpellingSharesTheCellOneParamDoesNot)
{
    // A config file that spells out the compiled-in KV defaults must
    // land in the same trace-cache cell as the flagless binary...
    WorkloadConfig file;
    std::string err;
    ASSERT_TRUE(file.loadFromString(kStandardKv, err)) << err;

    auto base = tinyConfig(WorkloadKind::KvStore);
    auto fromFile = base;
    fromFile.phases = file.schedule;
    EXPECT_EQ(configHash(base), configHash(fromFile));

    // ...while any one-parameter difference re-keys it.
    for (const char *variant : {
             "workload kv\n"
             "phase kv mix=0.85 dist=zipfian theta=0.99\n",
             "workload kv\nphase kv mix=0.86 dist=zipfian "
             "theta=0.95\n",
             "workload kv\nphase kv mix=0.85 dist=uniform\n",
             "workload kv\nphase kv mix=0.85 dist=hotspot frac=0.2 "
             "prob=0.9\n",
         }) {
        WorkloadConfig v;
        ASSERT_TRUE(v.loadFromString(variant, err)) << err;
        auto changed = base;
        changed.phases = v.schedule;
        EXPECT_NE(configHash(base), configHash(changed)) << variant;
    }

    // Hotspot parameters are covered too, not just the kind.
    WorkloadConfig hot1, hot2;
    ASSERT_TRUE(hot1.loadFromString("workload kv\nphase kv mix=0.85 "
                                    "dist=hotspot frac=0.2 prob=0.9\n",
                                    err));
    ASSERT_TRUE(hot2.loadFromString("workload kv\nphase kv mix=0.85 "
                                    "dist=hotspot frac=0.3 prob=0.9\n",
                                    err));
    auto h1 = base, h2 = base;
    h1.phases = hot1.schedule;
    h2.phases = hot2.schedule;
    EXPECT_NE(configHash(h1), configHash(h2));
}

TEST(ConfigCache, DefaultSpellingReproducesTraceBitForBit)
{
    // The hash-equality above is honest only if the traces really are
    // identical: run both and compare every miss record.
    const auto base = tinyConfig(WorkloadKind::KvStore);
    WorkloadConfig file;
    std::string err;
    ASSERT_TRUE(file.loadFromString(kStandardKv, err)) << err;
    auto fromFile = base;
    fromFile.phases = file.schedule;

    const auto a = runExperiment(base);
    const auto b = runExperiment(fromFile);
    ASSERT_GT(a.offChip.misses.size(), 1000u);
    ASSERT_EQ(a.offChip.misses.size(), b.offChip.misses.size());
    for (std::size_t i = 0; i < a.offChip.misses.size(); ++i) {
        ASSERT_EQ(a.offChip.misses[i].block, b.offChip.misses[i].block)
            << "miss " << i;
        ASSERT_EQ(a.offChip.misses[i].cpu, b.offChip.misses[i].cpu);
    }
}

TEST(ConfigCache, ThetaSweepReshapesStreamLengths)
{
    // The fig4 acceptance check: sweeping zipfian theta through a
    // config file must measurably move the stream-length
    // distribution, not just re-key the cache.
    const auto base = tinyConfig(WorkloadKind::KvStore);
    WorkloadConfig file;
    std::string err;
    ASSERT_TRUE(file.loadFromString("workload kv\n"
                                    "phase kv mix=0.85 dist=zipfian "
                                    "theta=0.5\n",
                                    err))
        << err;
    auto swept = base;
    swept.phases = file.schedule;

    const auto a = runExperiment(base);
    const auto b = runExperiment(swept);
    const auto sa = analyzeStreams(a.offChip);
    const auto sb = analyzeStreams(b.offChip);
    EXPECT_NE(sa.lengthWeighted, sb.lengthWeighted)
        << "theta sweep left the stream-length distribution "
           "untouched";
    // The traces themselves diverge (different key popularity ⇒
    // different hash-chain / slab walks).
    bool differ = a.offChip.misses.size() != b.offChip.misses.size();
    for (std::size_t i = 0;
         !differ && i < a.offChip.misses.size(); ++i)
        differ =
            a.offChip.misses[i].block != b.offChip.misses[i].block;
    EXPECT_TRUE(differ);
}

TEST(ConfigCache, ResolvedScheduleMatchesConfigDefaults)
{
    // resolvedSchedule() and the example configs must agree on what
    // "the defaults" are — this is the contract that makes the
    // default-spelling test above meaningful for broker too.
    const PhaseSchedule kv =
        resolvedSchedule(WorkloadKind::KvStore, PhaseSchedule{});
    ASSERT_EQ(kv.phases.size(), 1u);
    EXPECT_DOUBLE_EQ(kv.phases[0].mix, 0.85);
    EXPECT_EQ(kv.phases[0].dist.kind, KeyDistKind::Zipfian);
    EXPECT_DOUBLE_EQ(kv.phases[0].dist.theta, 0.95);
    EXPECT_EQ(kv.phases[0].duration, 0u);

    const PhaseSchedule mq =
        resolvedSchedule(WorkloadKind::Broker, PhaseSchedule{});
    ASSERT_EQ(mq.phases.size(), 1u);
    EXPECT_DOUBLE_EQ(mq.phases[0].dist.theta, 0.80);
    EXPECT_NEAR(mq.phases[0].mix, 2.0 / 3.0, 1e-12);

    // PhasedMix: empty resolves to the standard mix; explicit
    // schedules pass through untouched.
    EXPECT_EQ(resolvedSchedule(WorkloadKind::PhasedMix,
                               PhaseSchedule{})
                  .phases,
              PhaseSchedule::standardMix().phases);
    WorkloadConfig custom;
    std::string err;
    ASSERT_TRUE(custom.loadFromString(
        "workload phased-mix\n"
        "phase kv mix=0.5 dist=uniform duration=1000\n",
        err));
    EXPECT_EQ(resolvedSchedule(WorkloadKind::PhasedMix,
                               custom.schedule)
                  .phases,
              custom.schedule.phases);

    // Paper workloads never carry a schedule.
    EXPECT_TRUE(resolvedSchedule(WorkloadKind::Oltp,
                                 PhaseSchedule::standardMix())
                    .empty());
}

} // namespace
} // namespace tstream
