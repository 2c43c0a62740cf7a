/**
 * @file
 * Tests for the versioned bench reports (sim/bench_report.hh): JSON
 * round-trips, shard merging with the exact-cover guarantee, and the
 * content-equivalence check behind `tstream-bench check-equal`.
 */

#include <gtest/gtest.h>

#include <cstdio>

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

// ---- --resume loading -------------------------------------------------------

/** A real grid + a report whose cells match it hash-for-hash. */
struct ResumeFixture
{
    std::vector<Cell> grid;
    BenchDoc doc;
    std::string path;

    explicit ResumeFixture(const char *tag)
    {
        BenchBudgets budgets;
        budgets.warmup = 2'000'000;
        budgets.measure = 4'000'000;
        budgets.scale = 0.15;
        grid = standardGrid({WorkloadKind::Oltp, WorkloadKind::KvStore},
                            budgets);
        doc.bench = "fig2_stream_fraction";
        doc.quick = true;
        doc.budgets = budgets;
        doc.gridCells = grid.size();
        for (const Cell &c : grid) {
            BenchCell cell;
            cell.index = c.index;
            cell.id = c.id;
            cell.workload = std::string(workloadName(c.cfg.workload));
            cell.context = std::string(contextName(c.cfg.context));
            cell.configHash = configHash(c.cfg);
            cell.instructions = 1;
            cell.rows = {makeRow("streams", cell.context, 1.0)};
            doc.cells.push_back(std::move(cell));
        }
        path = ::testing::TempDir() + "/tstream_resume_" + tag +
               ".json";
    }

    ~ResumeFixture() { std::remove(path.c_str()); }

    /** Write the report, read it back as `run --resume` does, and
     *  resume its one document over @p g at @p budgets. */
    bool
    resume(const BenchBudgets &budgets, const std::vector<Cell> &g,
           std::vector<BenchCell> &out, std::string &err)
    {
        std::vector<BenchDoc> docs;
        if (!writeBenchDoc(doc, path, err) ||
            !readResumeDocs(path, docs, err))
            return false;
        EXPECT_EQ(docs.size(), 1u);
        return resumeCells(docs.at(0), path, true, budgets, g, out, err);
    }
};

TEST(ResumeTest, MissingFileIsFreshRun)
{
    ResumeFixture fx("missing");
    std::vector<BenchDoc> docs;
    std::string err;
    EXPECT_TRUE(readResumeDocs(fx.path, docs, err)) << err;
    EXPECT_TRUE(docs.empty());
}

TEST(ResumeTest, LoadsMatchingCellsInGridOrder)
{
    ResumeFixture fx("ok");
    // Store them shuffled; resuming must return ascending indexes.
    std::swap(fx.doc.cells[0], fx.doc.cells.back());

    std::vector<BenchCell> out;
    std::string err;
    ASSERT_TRUE(fx.resume(fx.doc.budgets, fx.grid, out, err)) << err;
    ASSERT_EQ(out.size(), fx.grid.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i].index, i);
        EXPECT_EQ(out[i].id, fx.grid[i].id);
    }
}

TEST(ResumeTest, PartialReportLoadsPartially)
{
    ResumeFixture fx("partial");
    fx.doc.cells.erase(fx.doc.cells.begin() + 1,
                       fx.doc.cells.begin() + 3);
    std::vector<BenchCell> out;
    std::string err;
    ASSERT_TRUE(fx.resume(fx.doc.budgets, fx.grid, out, err)) << err;
    EXPECT_EQ(out.size(), fx.grid.size() - 2);
}

TEST(ResumeTest, ConfigHashMismatchFails)
{
    ResumeFixture fx("hash");
    fx.doc.cells[1].configHash ^= 1;
    std::vector<BenchCell> out;
    std::string err;
    EXPECT_FALSE(fx.resume(fx.doc.budgets, fx.grid, out, err));
    EXPECT_NE(err.find("config hash mismatch"), std::string::npos)
        << err;
}

TEST(ResumeTest, BudgetMismatchFails)
{
    ResumeFixture fx("budget");
    BenchBudgets other = fx.doc.budgets;
    other.measure += 1;
    std::vector<BenchCell> out;
    std::string err;
    EXPECT_FALSE(fx.resume(other, fx.grid, out, err));
    EXPECT_NE(err.find("budgets differ"), std::string::npos) << err;
}

TEST(ResumeTest, GridSizeMismatchFails)
{
    ResumeFixture fx("grid");
    std::vector<Cell> bigger = fx.grid;
    bigger.push_back(fx.grid.back());
    bigger.back().index = fx.grid.size();
    std::vector<BenchCell> out;
    std::string err;
    EXPECT_FALSE(fx.resume(fx.doc.budgets, bigger, out, err));
    EXPECT_NE(err.find("grid size"), std::string::npos) << err;
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

    // Split cells the way --shard k/N does: index % N == k.
    std::vector<BenchDoc> shards;
    for (unsigned k = 0; k < 3; ++k) {
        BenchDoc s = full;
        s.shard = ShardSpec{k, 3};
        s.cells.clear();
        for (const BenchCell &c : full.cells)
            if (s.shard.owns(c.index))
                s.cells.push_back(c);
        shards.push_back(std::move(s));
    }

    BenchDoc merged;
    std::string err;
    ASSERT_TRUE(mergeBenchDocs(shards, merged, err)) << err;
    EXPECT_EQ(merged.shard.count, 1u);
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
    b.shard = ShardSpec{0, 1};
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
makeFailedCell(std::size_t index, const std::string &cause,
               unsigned attempts)
{
    BenchCell c = makeCell(index, 0.0);
    c.failed = true;
    c.failureCause = cause;
    c.attempts = attempts;
    c.rows.clear(); // a failure row never carries table rows
    c.instructions = 0;
    return c;
}

TEST(FailureRowTest, RoundTripsThroughJson)
{
    BenchDoc doc = makeDoc(3);
    doc.cells[1] = makeFailedCell(1, "timeout after 500ms", 3);

    json::Value reparsed;
    std::string err;
    ASSERT_TRUE(
        json::Value::parse(benchDocToJson(doc).dump(2), reparsed, err))
        << err;
    BenchDoc back;
    ASSERT_TRUE(benchDocFromJson(reparsed, back, err)) << err;

    ASSERT_EQ(back.cells.size(), 3u);
    EXPECT_FALSE(back.cells[0].failed);
    EXPECT_EQ(back.cells[0].attempts, 1u);
    EXPECT_TRUE(back.cells[1].failed);
    EXPECT_EQ(back.cells[1].failureCause, "timeout after 500ms");
    EXPECT_EQ(back.cells[1].attempts, 3u);
    EXPECT_TRUE(back.cells[1].rows.empty());
}

TEST(FailureRowTest, MergeDistinguishesFailedFromMissing)
{
    // A failed cell *covers* its grid index: merge succeeds and
    // carries the failure row through.
    BenchDoc withFailure = makeDoc(3);
    withFailure.cells[1] = makeFailedCell(1, "exception: boom", 2);
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
    bad.cells[0] = makeFailedCell(0, "timeout after 500ms", 3);

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
    a.cells[0] = makeFailedCell(0, "timeout after 500ms", 3);
    BenchDoc b = makeDoc(2);
    b.cells[0] = makeFailedCell(0, "exception: boom", 2);

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

    // Failed on one side: named diagnostic with cause and attempts.
    BenchDoc oneFailed = good;
    oneFailed.cells[1] = makeFailedCell(1, "timeout after 500ms", 3);
    std::string why;
    EXPECT_FALSE(benchDocsEquivalent(good, oneFailed, why));
    EXPECT_NE(why.find("cell cell-1 (index 1) failed in the second "
                       "report (cause=timeout after 500ms, attempts=3)"
                       " but succeeded in the other"),
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

    sub.cells[0] = makeFailedCell(1, "exception: boom", 1);
    EXPECT_FALSE(benchDocIsSubset(sub, full, why));
    EXPECT_NE(why.find("failed"), std::string::npos) << why;
}

TEST(FailureRowTest, PerfSeriesSkipsFailedCells)
{
    BenchDoc doc = makeDoc(3);
    doc.cells[2] = makeFailedCell(2, "timeout after 500ms", 3);
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

} // namespace
} // namespace tstream
