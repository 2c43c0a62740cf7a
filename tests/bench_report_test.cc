/**
 * @file
 * Tests for the versioned bench reports (sim/bench_report.hh): JSON
 * round-trips, strict loading of hashes and counts, worker-report
 * merging with the exact-cover guarantee, the
 * content-equivalence check behind `tstream-bench check-equal`, and a
 * bit-flip/truncation fuzz of the loader over the committed golden
 * reports.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>

#include "sim/bench_report.hh"

namespace tstream
{
namespace
{

BenchRow
makeRow(const std::string &table, const std::string &trace,
        double value)
{
    BenchRow r;
    r.table = table;
    r.trace = trace;
    r.text = table + " " + trace + " row";
    r.metrics = {{"value_pct", value}, {"count", 3.0}};
    return r;
}

BenchCell
makeCell(std::size_t index, double value)
{
    BenchCell c;
    c.index = index;
    c.id = "cell-" + std::to_string(index);
    c.workload = "DB2-OLTP";
    c.context = index % 2 ? "single-chip" : "multi-chip";
    c.configHash = 0xfedcba9876543210ull + index; // exercises >2^53
    c.cacheHit = index % 2 == 0;
    c.wallSeconds = 0.25 * static_cast<double>(index + 1);
    c.instructions = 4'000'000 + index;
    c.rows = {makeRow("streams", c.context, value),
              makeRow("strides", c.context, value / 2)};
    return c;
}

BenchDoc
makeDoc(std::size_t cellCount)
{
    BenchDoc d;
    d.bench = "fig2_stream_fraction";
    d.quick = true;
    d.budgets.warmup = 2'000'000;
    d.budgets.measure = 4'000'000;
    d.budgets.scale = 0.15;
    d.gridCells = cellCount;
    d.jobs = 4;
    for (std::size_t i = 0; i < cellCount; ++i)
        d.cells.push_back(makeCell(i, 88.44581859765782 + i));
    return d;
}

TEST(BenchReportTest, JsonRoundTripPreservesEverything)
{
    const BenchDoc doc = makeDoc(4);
    const json::Value v = benchDocToJson(doc);
    // Through text and back, as `tstream-bench` consumers will see it.
    json::Value reparsed;
    std::string err;
    ASSERT_TRUE(json::Value::parse(v.dump(2), reparsed, err)) << err;

    BenchDoc back;
    ASSERT_TRUE(benchDocFromJson(reparsed, back, err)) << err;
    EXPECT_EQ(back.bench, doc.bench);
    EXPECT_EQ(back.quick, doc.quick);
    EXPECT_EQ(back.budgets.warmup, doc.budgets.warmup);
    EXPECT_EQ(back.budgets.measure, doc.budgets.measure);
    EXPECT_DOUBLE_EQ(back.budgets.scale, doc.budgets.scale);
    EXPECT_EQ(back.gridCells, doc.gridCells);
    EXPECT_EQ(back.jobs, doc.jobs);
    ASSERT_EQ(back.cells.size(), doc.cells.size());
    for (std::size_t i = 0; i < doc.cells.size(); ++i) {
        const BenchCell &a = doc.cells[i];
        const BenchCell &b = back.cells[i];
        EXPECT_EQ(b.index, a.index);
        EXPECT_EQ(b.id, a.id);
        EXPECT_EQ(b.configHash, a.configHash);
        EXPECT_EQ(b.cacheHit, a.cacheHit);
        EXPECT_EQ(b.wallSeconds, a.wallSeconds); // bit-exact doubles
        EXPECT_EQ(b.instructions, a.instructions);
        ASSERT_EQ(b.rows.size(), a.rows.size());
        for (std::size_t r = 0; r < a.rows.size(); ++r) {
            EXPECT_EQ(b.rows[r].table, a.rows[r].table);
            EXPECT_EQ(b.rows[r].trace, a.rows[r].trace);
            EXPECT_EQ(b.rows[r].text, a.rows[r].text);
            ASSERT_EQ(b.rows[r].metrics.size(),
                      a.rows[r].metrics.size());
            for (std::size_t m = 0; m < a.rows[r].metrics.size(); ++m) {
                EXPECT_EQ(b.rows[r].metrics[m].first,
                          a.rows[r].metrics[m].first);
                EXPECT_EQ(b.rows[r].metrics[m].second,
                          a.rows[r].metrics[m].second); // bit-exact
            }
        }
    }

    std::string why;
    EXPECT_TRUE(benchDocsEquivalent(doc, back, why)) << why;
}

TEST(BenchReportTest, FileRoundTripAndCombinedReports)
{
    const BenchDoc doc = makeDoc(2);
    const std::string single =
        testing::TempDir() + "/bench_doc.json";
    std::string err;
    ASSERT_TRUE(writeBenchDoc(doc, single, err)) << err;

    std::vector<BenchDoc> docs;
    ASSERT_TRUE(readBenchDocs(single, docs, err)) << err;
    ASSERT_EQ(docs.size(), 1u);

    // A combined report contributes every contained document.
    BenchDoc other = makeDoc(2);
    other.bench = "fig3_stride_breakdown";
    const std::string combined =
        testing::TempDir() + "/bench_combined.json";
    ASSERT_TRUE(json::writeFile(combinedReportToJson({doc, other}),
                                combined, err))
        << err;
    docs.clear();
    ASSERT_TRUE(readBenchDocs(combined, docs, err)) << err;
    ASSERT_EQ(docs.size(), 2u);
    EXPECT_EQ(docs[0].bench, "fig2_stream_fraction");
    EXPECT_EQ(docs[1].bench, "fig3_stride_breakdown");
}

TEST(BenchReportTest, RejectsUnknownSchema)
{
    json::Value v = json::Value::object();
    v["schema"] = json::Value("tstream-bench/v999");
    BenchDoc doc;
    std::string err;
    EXPECT_FALSE(benchDocFromJson(v, doc, err));
    EXPECT_NE(err.find("unsupported schema"), std::string::npos);
}

TEST(BenchReportTest, MergeReassemblesShardsExactly)
{
    const BenchDoc full = makeDoc(7);

    // Three claiming workers' parts: any disjoint split of the cells,
    // here the first worker took one cell, the second four, the
    // third two.
    std::vector<BenchDoc> parts;
    for (auto [from, to] : {std::pair{0, 1}, {1, 5}, {5, 7}}) {
        BenchDoc part = full;
        part.cells.assign(full.cells.begin() + from,
                          full.cells.begin() + to);
        parts.push_back(std::move(part));
    }

    BenchDoc merged;
    std::string err;
    ASSERT_TRUE(mergeBenchDocs(parts, merged, err)) << err;
    std::string why;
    EXPECT_TRUE(benchDocsEquivalent(full, merged, why)) << why;
}

TEST(BenchReportTest, MergeFailsOnMissingCells)
{
    const BenchDoc full = makeDoc(6);
    BenchDoc partial = full;
    partial.cells.erase(partial.cells.begin() + 2); // drop index 2
    partial.cells.erase(partial.cells.begin() + 3); // drop index 4

    BenchDoc merged;
    std::string err;
    EXPECT_FALSE(mergeBenchDocs({partial}, merged, err));
    EXPECT_NE(err.find("missing cell indexes: 2, 4"),
              std::string::npos)
        << err;
}

TEST(BenchReportTest, MergeNamesAFewMissingIndexesOfAHugeGrid)
{
    // One cell of a 10^12-cell grid: the diagnostic names the first 16
    // absent indexes and counts the rest instead of listing them all.
    BenchDoc doc = makeDoc(1);
    doc.gridCells = 1'000'000'000'000;

    BenchDoc merged;
    std::string err;
    EXPECT_FALSE(mergeBenchDocs({doc}, merged, err));
    EXPECT_NE(err.find("missing cell indexes: 1, 2, 3, 4, 5, 6, 7, 8, 9, "
                       "10, 11, 12, 13, 14, 15, 16, ... (999999999999 "
                       "missing)"),
              std::string::npos)
        << err;
    EXPECT_LT(err.size(), 200u);
}

TEST(BenchReportTest, RejectsOutOfRangeOrRepeatedCellIndex)
{
    const json::Value good = benchDocToJson(makeDoc(2));
    BenchDoc doc;
    std::string err;
    json::Value shrunk = good;
    shrunk["grid_cells"] = json::Value(1u);
    EXPECT_FALSE(benchDocFromJson(shrunk, doc, err));
    EXPECT_NE(err.find("cell cell-1: index 1 is out of range "
                       "(grid_cells 1)"),
              std::string::npos)
        << err;

    json::Value twice = good;
    json::Value cells = json::Value::array();
    cells.push(good.find("cells")->items()[0]);
    cells.push(good.find("cells")->items()[0]);
    twice["cells"] = std::move(cells);
    EXPECT_FALSE(benchDocFromJson(twice, doc, err));
    EXPECT_NE(err.find("cell cell-0: index 0 is repeated"),
              std::string::npos)
        << err;
}

/** Load eq_base.json with @p from replaced by @p to (once). */
bool
loadEditedBase(const std::string &from, const std::string &to,
               std::string &err)
{
    std::ifstream in(std::string(TSTREAM_GOLDEN_REPORTS_DIR) +
                     "/eq_base.json");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos)
        text.replace(at, from.size(), to);
    json::Value v;
    BenchDoc doc;
    return json::Value::parse(text, v, err) &&
           benchDocFromJson(v, doc, err);
}

TEST(BenchReportTest, RejectsSignedHashesAndNonIntegerCounts)
{
    std::string err;
    ASSERT_TRUE(loadEditedBase("\"grid_cells\"", "\"grid_cells\"", err))
        << err;

    // The hash is exactly 16 hex digits: a sign, a 0x prefix or a
    // leading space must not parse into another hash.
    const std::string hash = "\"00000000000000aa\"";
    for (const char *bad : {"\"-0000000000000aa\"", "\"+0000000000000aa\"",
                            "\"0x000000000000aa\"", "\" 0000000000000aa\""}) {
        EXPECT_FALSE(loadEditedBase(hash, bad, err)) << bad;
        EXPECT_NE(err.find("bad config_hash"), std::string::npos)
            << bad << ": " << err;
    }

    // A count or index is a non-negative JSON integer that fits its
    // field: -1 must not wrap to 2^64-1, 0.9 must not truncate to 0
    // (and so check-equal a report it differs from), and 1e30 must not
    // reach a double -> int64 cast, which is undefined out of range.
    const struct
    {
        const char *from, *to, *diagnostic;
    } cases[] = {
        {"\"grid_cells\": 2", "\"grid_cells\": -1",
         "grid_cells is not a non-negative integer"},
        {"\"grid_cells\": 2", "\"grid_cells\": 2.0",
         "grid_cells is not a non-negative integer"},
        {"\"warmup\": 2000000", "\"warmup\": 1e30",
         "budgets.warmup is not a non-negative integer"},
        {"\"measure\": 4000000", "\"measure\": -4000000",
         "budgets.measure is not a non-negative integer"},
        {"\"jobs\": 1", "\"jobs\": 4294967296",
         "jobs is not a non-negative integer"},
        {"\"index\": 0,\n      \"id\"", "\"index\": 0.9,\n      \"id\"",
         "cell DB2-OLTP/multi-chip: index is not a non-negative integer"},
        {"\"instructions\": 4000000", "\"instructions\": 1e30",
         "cell DB2-OLTP/multi-chip: instructions is not a non-negative "
         "integer"},
    };
    for (const auto &c : cases) {
        EXPECT_FALSE(loadEditedBase(c.from, c.to, err)) << c.to;
        EXPECT_NE(err.find(c.diagnostic), std::string::npos)
            << c.to << ": " << err;
    }
}

TEST(BenchReportTest, MergeFailsOnIncompatibleHeaders)
{
    BenchDoc a = makeDoc(2);
    BenchDoc b = makeDoc(2);
    b.budgets.measure += 1;
    BenchDoc merged;
    std::string err;
    EXPECT_FALSE(mergeBenchDocs({a, b}, merged, err));
    EXPECT_NE(err.find("budgets differ"), std::string::npos);

    b = makeDoc(2);
    b.bench = "something_else";
    EXPECT_FALSE(mergeBenchDocs({a, b}, merged, err));
    EXPECT_NE(err.find("bench names differ"), std::string::npos);
}

TEST(BenchReportTest, MergeToleratesEquivalentDuplicates)
{
    BenchDoc a = makeDoc(2);
    BenchDoc b = makeDoc(2);
    // Execution details may differ between the duplicate runs ...
    b.cells[0].wallSeconds *= 7;
    b.cells[0].cacheHit = !b.cells[0].cacheHit;
    BenchDoc merged;
    std::string err;
    EXPECT_TRUE(mergeBenchDocs({a, b}, merged, err)) << err;

    // ... but conflicting *content* is an error.
    b.cells[0].rows[0].metrics[0].second += 0.5;
    EXPECT_FALSE(mergeBenchDocs({a, b}, merged, err));
    EXPECT_NE(err.find("conflicting duplicates"), std::string::npos);
}

TEST(BenchReportTest, EquivalenceIgnoresExecutionDetails)
{
    const BenchDoc a = makeDoc(3);
    BenchDoc b = a;
    b.jobs = 16;
    for (BenchCell &c : b.cells) {
        c.wallSeconds *= 3;
        c.cacheHit = !c.cacheHit;
    }
    std::string why;
    EXPECT_TRUE(benchDocsEquivalent(a, b, why)) << why;
}

TEST(BenchReportTest, EquivalenceCatchesContentDrift)
{
    const BenchDoc a = makeDoc(3);

    BenchDoc b = a;
    b.cells[1].rows[0].text += "x";
    std::string why;
    EXPECT_FALSE(benchDocsEquivalent(a, b, why));
    EXPECT_NE(why.find("row text differs"), std::string::npos);

    b = a;
    b.cells[2].rows[1].metrics[0].second += 1e-9;
    EXPECT_FALSE(benchDocsEquivalent(a, b, why));
    EXPECT_NE(why.find("metric"), std::string::npos);

    b = a;
    b.cells[0].configHash ^= 1;
    EXPECT_FALSE(benchDocsEquivalent(a, b, why));
    EXPECT_NE(why.find("config hashes differ"), std::string::npos);

    b = a;
    b.cells.pop_back();
    EXPECT_FALSE(benchDocsEquivalent(a, b, why));
    // The union walk names the exact absent cell and which side.
    EXPECT_NE(why.find("cell cell-2 (index 2) missing from the "
                       "second report"),
              std::string::npos)
        << why;
}

// ---- failure rows -----------------------------------------------------------

BenchCell
makeFailedCell(std::size_t index, const std::string &cause)
{
    BenchCell c = makeCell(index, 0.0);
    c.failed = true;
    c.failureCause = cause;
    c.rows.clear(); // a failure row never carries table rows
    c.instructions = 0;
    return c;
}

TEST(FailureRowTest, RoundTripsThroughJson)
{
    BenchDoc doc = makeDoc(3);
    doc.cells[1] = makeFailedCell(1, "timeout after 500ms");

    json::Value reparsed;
    std::string err;
    ASSERT_TRUE(
        json::Value::parse(benchDocToJson(doc).dump(2), reparsed, err))
        << err;
    BenchDoc back;
    ASSERT_TRUE(benchDocFromJson(reparsed, back, err)) << err;

    // Cells run once, so no attempt count is written.
    EXPECT_EQ(reparsed.find("cells")->items()[1].find("attempts"),
              nullptr);

    ASSERT_EQ(back.cells.size(), 3u);
    EXPECT_FALSE(back.cells[0].failed);
    EXPECT_TRUE(back.cells[1].failed);
    EXPECT_EQ(back.cells[1].failureCause, "timeout after 500ms");
    EXPECT_TRUE(back.cells[1].rows.empty());
}

TEST(FailureRowTest, MergeDistinguishesFailedFromMissing)
{
    // A failed cell *covers* its grid index: merge succeeds and
    // carries the failure row through.
    BenchDoc withFailure = makeDoc(3);
    withFailure.cells[1] = makeFailedCell(1, "exception: boom");
    BenchDoc merged;
    std::string err;
    ASSERT_TRUE(mergeBenchDocs({withFailure}, merged, err)) << err;
    ASSERT_EQ(merged.cells.size(), 3u);
    EXPECT_TRUE(merged.cells[1].failed);
    EXPECT_EQ(merged.cells[1].failureCause, "exception: boom");

    // A missing cell is still a hard error naming the absent index.
    BenchDoc withHole = makeDoc(3);
    withHole.cells.erase(withHole.cells.begin() + 1);
    EXPECT_FALSE(mergeBenchDocs({withHole}, merged, err));
    EXPECT_NE(err.find("missing cell indexes: 1"), std::string::npos)
        << err;
}

TEST(FailureRowTest, MergeSuccessBeatsFailureEitherOrder)
{
    const BenchDoc good = makeDoc(2);
    BenchDoc bad = makeDoc(2);
    bad.cells[0] = makeFailedCell(0, "timeout after 500ms");

    for (const auto &docs :
         {std::vector<BenchDoc>{good, bad},
          std::vector<BenchDoc>{bad, good}}) {
        BenchDoc merged;
        std::string err;
        ASSERT_TRUE(mergeBenchDocs(docs, merged, err)) << err;
        ASSERT_EQ(merged.cells.size(), 2u);
        // Another worker recovered the cell: the success wins.
        EXPECT_FALSE(merged.cells[0].failed) << merged.cells[0].failureCause;
        EXPECT_FALSE(merged.cells[0].rows.empty());
    }
}

TEST(FailureRowTest, MergeKeepsFirstOfTwoFailures)
{
    BenchDoc a = makeDoc(2);
    a.cells[0] = makeFailedCell(0, "timeout after 500ms");
    BenchDoc b = makeDoc(2);
    b.cells[0] = makeFailedCell(0, "exception: boom");

    BenchDoc merged;
    std::string err;
    ASSERT_TRUE(mergeBenchDocs({a, b}, merged, err)) << err;
    EXPECT_TRUE(merged.cells[0].failed);
    // Causes may legitimately differ between workers; first is kept.
    EXPECT_EQ(merged.cells[0].failureCause, "timeout after 500ms");
}

TEST(FailureRowTest, EquivalenceNeverTreatsFailureAsEqual)
{
    const BenchDoc good = makeDoc(2);

    // Failed on one side: named diagnostic with the cause.
    BenchDoc oneFailed = good;
    oneFailed.cells[1] = makeFailedCell(1, "timeout after 500ms");
    std::string why;
    EXPECT_FALSE(benchDocsEquivalent(good, oneFailed, why));
    EXPECT_NE(why.find("cell cell-1 (index 1) failed in the second "
                       "report (cause=timeout after 500ms) but "
                       "succeeded in the other"),
              std::string::npos)
        << why;

    // Failed on both sides: still not silently equal.
    BenchDoc bothFailed = oneFailed;
    EXPECT_FALSE(benchDocsEquivalent(oneFailed, bothFailed, why));
    EXPECT_NE(why.find("failed in both reports"), std::string::npos)
        << why;
    EXPECT_NE(why.find("timeout after 500ms"), std::string::npos)
        << why;
}

TEST(FailureRowTest, SubsetCheckRejectsFailures)
{
    BenchDoc full = makeDoc(3);
    BenchDoc sub = makeDoc(3);
    sub.cells = {sub.cells[1]};
    std::string why;
    ASSERT_TRUE(benchDocIsSubset(sub, full, why)) << why;

    sub.cells[0] = makeFailedCell(1, "exception: boom");
    EXPECT_FALSE(benchDocIsSubset(sub, full, why));
    EXPECT_NE(why.find("failed"), std::string::npos) << why;
}

TEST(FailureRowTest, PerfSeriesSkipsFailedCells)
{
    BenchDoc doc = makeDoc(3);
    doc.cells[2] = makeFailedCell(2, "timeout after 500ms");
    const std::string path =
        testing::TempDir() + "/bench_failed_perf.json";
    std::string err;
    ASSERT_TRUE(writeBenchDoc(doc, path, err)) << err;

    std::vector<PerfSample> samples;
    ASSERT_TRUE(loadPerfSeries(path, samples, err)) << err;
    // One sample per *successful* cell; the failed cell has no
    // wall-time worth trending.
    ASSERT_EQ(samples.size(), 2u);
    for (const PerfSample &s : samples)
        EXPECT_EQ(s.name.find("fig2_stream_fraction/cell-2"),
                  std::string::npos);
    std::remove(path.c_str());
}

// ---- loader fuzz ------------------------------------------------------------

/** Every committed golden report, in name order. */
std::vector<std::filesystem::path>
goldenReports()
{
    std::vector<std::filesystem::path> out;
    for (const auto &e : std::filesystem::directory_iterator(
             TSTREAM_GOLDEN_REPORTS_DIR))
        if (e.path().extension() == ".json")
            out.push_back(e.path());
    std::sort(out.begin(), out.end());
    return out;
}

/**
 * Write @p bytes to @p path and load it. A mutant must either fail to
 * load with a diagnostic, or load into documents that compare with
 * themselves and merge alone without crashing or hanging.
 */
void
checkMutant(const std::string &bytes, const std::string &path,
            const std::string &label)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    std::vector<BenchDoc> docs;
    std::string err;
    if (!readBenchDocs(path, docs, err)) {
        EXPECT_FALSE(err.empty()) << label;
        return;
    }
    for (const BenchDoc &doc : docs) {
        // A failure row is never equal to anything, itself included.
        const bool anyFailed =
            std::any_of(doc.cells.begin(), doc.cells.end(),
                        [](const BenchCell &c) { return c.failed; });
        std::string why;
        EXPECT_EQ(benchDocsEquivalent(doc, doc, why), !anyFailed)
            << label << ": " << why;
        BenchDoc merged;
        if (mergeBenchDocs({doc}, merged, err))
            EXPECT_EQ(merged.cells.size(), doc.gridCells) << label;
        else
            EXPECT_FALSE(err.empty()) << label;
    }
}

TEST(BenchReportFuzz, MutatedGoldenReportsLoadOrFailCleanly)
{
    const auto reports = goldenReports();
    ASSERT_GE(reports.size(), 6u); // eq_bad_index.json among them
    const std::string path =
        testing::TempDir() + "/bench_report_fuzz.json";
    std::mt19937_64 rng(2008);
    for (const auto &report : reports) {
        std::ifstream in(report, std::ios::binary);
        const std::string base((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
        ASSERT_FALSE(base.empty()) << report;
        const std::string name = report.filename().string();
        checkMutant(base, path, name);
        // 192 single-bit flips and 64 truncations per file.
        for (int i = 0; i < 256; ++i) {
            std::string m = base;
            std::string label = name;
            if (i % 4 == 3) {
                m.resize(rng() % m.size());
                label += " truncated to " + std::to_string(m.size());
            } else {
                const std::size_t at = rng() % m.size();
                const unsigned bit = rng() % 8;
                m[at] = static_cast<char>(m[at] ^ (1u << bit));
                label += " bit " + std::to_string(bit) + " of byte " +
                         std::to_string(at);
            }
            checkMutant(m, path, label);
        }
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace tstream
