/**
 * @file
 * Tests for the perf series behind `tstream-bench trend`
 * (sim/bench_report.hh): loading Google Benchmark JSON and
 * tstream-bench reports into a named series, malformed-report
 * rejection, the trend table, and the regression gate semantics —
 * improvement vs. regression vs. missing series, the exact threshold
 * boundary, and series filtering.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "sim/bench_report.hh"

namespace tstream
{
namespace
{

std::string
tempFile(const char *tag, const std::string &content)
{
    const std::string path =
        ::testing::TempDir() + "/tstream_perf_" + tag + ".json";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
    return path;
}

/** A minimal Google Benchmark JSON document. */
std::string
gbReport(const std::string &entries)
{
    return "{\"context\": {\"num_cpus\": 1},\n"
           "\"benchmarks\": [" + entries + "]}";
}

std::string
gbEntry(const std::string &name, double cpuTime,
        const std::string &unit = "ns",
        const std::string &runType = "iteration")
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"name\": \"%s\", \"run_type\": \"%s\", "
                  "\"cpu_time\": %.17g, \"time_unit\": \"%s\"}",
                  name.c_str(), runType.c_str(), cpuTime,
                  unit.c_str());
    return buf;
}

PerfSample
sample(const std::string &name, double ns)
{
    return PerfSample{name, ns};
}

// ---- loading ---------------------------------------------------------------

TEST(PerfSeriesLoad, GoogleBenchmarkJson)
{
    const std::string path = tempFile(
        "gb", gbReport(gbEntry("BM_A/1000", 1500.0) + ",\n" +
                       gbEntry("BM_B", 2.5, "ms")));
    std::vector<PerfSample> out;
    std::string err;
    ASSERT_TRUE(loadPerfSeries(path, out, err)) << err;
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].name, "BM_A/1000");
    EXPECT_DOUBLE_EQ(out[0].timeNs, 1500.0);
    EXPECT_EQ(out[1].name, "BM_B");
    EXPECT_DOUBLE_EQ(out[1].timeNs, 2.5e6); // ms normalized to ns
    std::remove(path.c_str());
}

TEST(PerfSeriesLoad, SkipsAggregatesAndKeepsBestRepetition)
{
    const std::string path = tempFile(
        "reps",
        gbReport(gbEntry("BM_A", 120.0) + ",\n" +
                 gbEntry("BM_A", 100.0) + ",\n" +
                 gbEntry("BM_A", 140.0) + ",\n" +
                 gbEntry("BM_A_mean", 115.0, "ns", "aggregate")));
    std::vector<PerfSample> out;
    std::string err;
    ASSERT_TRUE(loadPerfSeries(path, out, err)) << err;
    ASSERT_EQ(out.size(), 1u); // aggregates skipped, reps collapsed
    EXPECT_EQ(out[0].name, "BM_A");
    EXPECT_DOUBLE_EQ(out[0].timeNs, 100.0); // fastest repetition
    std::remove(path.c_str());
}

TEST(PerfSeriesLoad, BenchDocCellsBecomeSeries)
{
    BenchDoc doc;
    doc.bench = "fig2_stream_fraction";
    doc.gridCells = 1;
    BenchCell cell;
    cell.index = 0;
    cell.id = "DB2-OLTP/multi-chip";
    cell.wallSeconds = 2.0;
    BenchRow row;
    row.table = "streams";
    row.trace = "multi-chip";
    row.text = "row";
    cell.rows.push_back(row);
    doc.cells.push_back(cell);

    const std::string path =
        ::testing::TempDir() + "/tstream_perf_doc.json";
    std::string err;
    ASSERT_TRUE(writeBenchDoc(doc, path, err)) << err;

    std::vector<PerfSample> out;
    ASSERT_TRUE(loadPerfSeries(path, out, err)) << err;
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].name, "fig2_stream_fraction/DB2-OLTP/multi-chip");
    EXPECT_DOUBLE_EQ(out[0].timeNs, 2.0e9);
    std::remove(path.c_str());
}

TEST(PerfSeriesLoad, RejectsMalformedReports)
{
    std::vector<PerfSample> out;
    std::string err;

    // Not JSON at all.
    const std::string junk = tempFile("junk", "not json {");
    EXPECT_FALSE(loadPerfSeries(junk, out, err));
    std::remove(junk.c_str());

    // JSON, but neither format.
    const std::string neither = tempFile("neither", "{\"x\": 1}");
    EXPECT_FALSE(loadPerfSeries(neither, out, err));
    EXPECT_NE(err.find("benchmarks"), std::string::npos) << err;
    std::remove(neither.c_str());

    // Google-Benchmark-shaped but an entry lacks cpu_time.
    const std::string noCpu = tempFile(
        "nocpu", gbReport("{\"name\": \"BM_A\"}"));
    EXPECT_FALSE(loadPerfSeries(noCpu, out, err));
    std::remove(noCpu.c_str());

    // An empty benchmarks array is not a usable baseline.
    const std::string empty = tempFile("empty", gbReport(""));
    EXPECT_FALSE(loadPerfSeries(empty, out, err));
    std::remove(empty.c_str());
}

// ---- gate semantics --------------------------------------------------------
//
// The two-report computeTrend() gate at the default 1.25 threshold:
// each case keeps the decision the pairwise gate has always made.

constexpr double kGate = 1.25;

TrendTable
gate(const std::vector<PerfSample> &base,
     const std::vector<PerfSample> &current,
     const std::vector<std::string> &filter = {})
{
    return computeTrend({"base", "current"}, {base, current}, filter,
                        kGate);
}

TEST(PerfCompare, ImprovementPasses)
{
    const auto t = gate({sample("a", 1000.0)}, {sample("a", 500.0)});
    ASSERT_EQ(t.rows.size(), 1u);
    EXPECT_TRUE(t.rows[0].gated);
    EXPECT_EQ(t.rows[0].verdict, TrendSeries::Verdict::Ok);
    EXPECT_DOUBLE_EQ(t.rows[0].lastVsFirst, 0.5);
    EXPECT_TRUE(t.pass);
}

TEST(PerfCompare, RegressionBeyondThresholdFails)
{
    const auto t = gate({sample("a", 1000.0)}, {sample("a", 1300.0)});
    ASSERT_EQ(t.rows.size(), 1u);
    EXPECT_EQ(t.rows[0].verdict, TrendSeries::Verdict::Regressed);
    EXPECT_EQ(t.regressed, 1u);
    EXPECT_FALSE(t.pass);
}

TEST(PerfCompare, ThresholdBoundaryPasses)
{
    // ratio == maxRegress exactly (both sides representable): passes.
    const auto at = gate({sample("a", 100.0)}, {sample("a", 125.0)});
    EXPECT_EQ(at.rows[0].verdict, TrendSeries::Verdict::Ok);
    EXPECT_TRUE(at.pass);

    // The next representable step beyond fails.
    const auto over = gate({sample("a", 100.0)}, {sample("a", 125.1)});
    EXPECT_EQ(over.rows[0].verdict, TrendSeries::Verdict::Regressed);
    EXPECT_FALSE(over.pass);
}

TEST(PerfCompare, MissingBaselineSeriesFails)
{
    const auto t = gate({sample("a", 100.0), sample("gone", 100.0)},
                        {sample("a", 100.0)});
    ASSERT_EQ(t.rows.size(), 2u);
    EXPECT_EQ(t.rows[1].name, "gone");
    EXPECT_TRUE(t.rows[1].gated);
    EXPECT_EQ(t.rows[1].verdict, TrendSeries::Verdict::Missing);
    EXPECT_EQ(t.missing, 1u);
    EXPECT_FALSE(t.pass);
}

TEST(PerfCompare, FreshSeriesIsReportedButNotGated)
{
    const auto t =
        gate({sample("a", 100.0)},
             {sample("a", 100.0), sample("brand-new", 9e9)});
    ASSERT_EQ(t.rows.size(), 2u);
    EXPECT_EQ(t.rows[1].name, "brand-new");
    EXPECT_FALSE(t.rows[1].gated);
    EXPECT_EQ(t.rows[1].verdict, TrendSeries::Verdict::Ok);
    EXPECT_TRUE(t.pass);
}

TEST(PerfCompare, SeriesFilterGatesOnlyNamedSeries)
{
    // "other" regresses wildly but is not gated (and not listed).
    const auto t = gate({sample("gated", 100.0), sample("other", 100.0)},
                        {sample("gated", 110.0), sample("other", 9000.0)},
                        {"gated"});
    ASSERT_EQ(t.rows.size(), 1u);
    EXPECT_EQ(t.rows[0].name, "gated");
    EXPECT_EQ(t.rows[0].verdict, TrendSeries::Verdict::Ok);
    EXPECT_TRUE(t.pass);
}

TEST(PerfCompare, FilterNameAbsentFromBaselineFails)
{
    // Named, present only in the newest report: gated and Missing.
    const auto t = gate({sample("real", 100.0)},
                        {sample("real", 100.0), sample("late", 100.0)},
                        {"late"});
    ASSERT_EQ(t.rows.size(), 1u);
    EXPECT_EQ(t.rows[0].name, "late");
    EXPECT_TRUE(t.rows[0].gated);
    EXPECT_EQ(t.rows[0].verdict, TrendSeries::Verdict::Missing);
    EXPECT_FALSE(t.pass);

    // Named, present in no report at all: no row, and still a failure.
    const auto typo = gate({sample("real", 100.0)},
                           {sample("real", 100.0)}, {"tpyo"});
    EXPECT_TRUE(typo.rows.empty());
    ASSERT_EQ(typo.unknownSeries.size(), 1u);
    EXPECT_EQ(typo.unknownSeries[0], "tpyo");
    EXPECT_FALSE(typo.pass);
}

TEST(PerfGate, SeriesVanishedFromNewestFailsWithoutFilter)
{
    // Present in the oldest and a middle report, gone from the newest:
    // lastVsFirst still spans the present points, but the gate fails.
    const auto t = computeTrend(
        {"r0", "r1", "r2"},
        {{sample("a", 100.0), sample("b", 100.0)},
         {sample("a", 100.0), sample("b", 100.0)},
         {sample("a", 100.0)}},
        {}, 1.01);
    ASSERT_EQ(t.rows.size(), 2u);
    EXPECT_EQ(t.rows[0].verdict, TrendSeries::Verdict::Ok);
    EXPECT_EQ(t.rows[1].verdict, TrendSeries::Verdict::Missing);
    EXPECT_DOUBLE_EQ(t.rows[1].lastVsFirst, 1.0);
    EXPECT_EQ(t.missing, 1u);
    EXPECT_FALSE(t.pass);
}

TEST(PerfGate, GatesNewestAgainstOldestAcrossMiddleGaps)
{
    // The middle report's spike and absence do not matter; only
    // newest/oldest does.
    const auto t = computeTrend(
        {"r0", "r1", "r2", "r3"},
        {{sample("a", 100.0)}, {sample("a", 900.0)}, {},
         {sample("a", 120.0)}},
        {}, 1.25);
    ASSERT_EQ(t.rows.size(), 1u);
    EXPECT_EQ(t.rows[0].verdict, TrendSeries::Verdict::Ok);
    EXPECT_TRUE(t.pass);
}

TEST(PerfGate, NoThresholdGatesNothing)
{
    // maxRegress == 0 is the informational table: a vanished or
    // slower series never fails it.
    const auto t = computeTrend(
        {"r0", "r1"},
        {{sample("slow", 1.0), sample("gone", 1.0)}, {sample("slow", 9.0)}},
        {});
    ASSERT_EQ(t.rows.size(), 2u);
    for (const TrendSeries &r : t.rows) {
        EXPECT_FALSE(r.gated);
        EXPECT_EQ(r.verdict, TrendSeries::Verdict::Ok);
    }
    EXPECT_TRUE(t.pass);
}

// ---- trend (`tstream-bench trend`) -----------------------------------------

TEST(PerfTrend, AlignsSeriesAcrossReportsInFirstAppearanceOrder)
{
    const auto t = computeTrend(
        {"r0", "r1", "r2"},
        {{sample("a", 100.0), sample("b", 50.0)},
         {sample("b", 55.0), sample("a", 110.0)},
         {sample("a", 120.0), sample("b", 60.0), sample("c", 7.0)}},
        {});
    ASSERT_EQ(t.labels.size(), 3u);
    ASSERT_EQ(t.rows.size(), 3u);
    EXPECT_EQ(t.rows[0].name, "a");
    EXPECT_EQ(t.rows[1].name, "b");
    EXPECT_EQ(t.rows[2].name, "c");
    ASSERT_EQ(t.rows[0].timesNs.size(), 3u);
    EXPECT_DOUBLE_EQ(t.rows[0].timesNs[0], 100.0);
    EXPECT_DOUBLE_EQ(t.rows[0].timesNs[1], 110.0);
    EXPECT_DOUBLE_EQ(t.rows[0].timesNs[2], 120.0);
    EXPECT_DOUBLE_EQ(t.rows[0].lastVsFirst, 1.2);
    EXPECT_DOUBLE_EQ(t.rows[1].lastVsFirst, 1.2);
}

TEST(PerfTrend, AbsentReportsAreZeroAndSkippedInRatio)
{
    // "a" is missing from the middle report: slot is 0, the ratio
    // still spans first-present to last-present.
    const auto t = computeTrend(
        {"r0", "r1", "r2"},
        {{sample("a", 100.0)}, {}, {sample("a", 90.0)}}, {});
    ASSERT_EQ(t.rows.size(), 1u);
    EXPECT_DOUBLE_EQ(t.rows[0].timesNs[1], 0.0);
    EXPECT_DOUBLE_EQ(t.rows[0].lastVsFirst, 0.9);
}

TEST(PerfTrend, SinglePointHasNoRatio)
{
    const auto t = computeTrend(
        {"r0", "r1"}, {{sample("once", 42.0)}, {}}, {});
    ASSERT_EQ(t.rows.size(), 1u);
    EXPECT_DOUBLE_EQ(t.rows[0].lastVsFirst, 0.0); // <2 points
}

TEST(PerfTrend, FilterRestrictsToNamedSeries)
{
    const auto t = computeTrend(
        {"r0", "r1"},
        {{sample("keep", 10.0), sample("drop", 10.0)},
         {sample("keep", 11.0), sample("drop", 99.0)}},
        {"keep"});
    ASSERT_EQ(t.rows.size(), 1u);
    EXPECT_EQ(t.rows[0].name, "keep");
    EXPECT_DOUBLE_EQ(t.rows[0].lastVsFirst, 1.1);
}

TEST(PerfTrend, FilteredNameAbsentEverywhereYieldsNoRow)
{
    // No row at all, and the table fails even without a gate: a typo
    // must never read as a quiet empty row.
    const auto t = computeTrend(
        {"r0"}, {{sample("real", 1.0)}}, {"tpyo"});
    EXPECT_TRUE(t.rows.empty());
    ASSERT_EQ(t.unknownSeries.size(), 1u);
    EXPECT_FALSE(t.pass);
}

} // namespace
} // namespace tstream
