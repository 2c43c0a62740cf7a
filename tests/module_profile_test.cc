/**
 * @file
 * Tests for the code-module attribution tables (paper Tables 3-5) and
 * the category taxonomy (Table 2).
 */

#include <gtest/gtest.h>

#include "core/module_profile.hh"

namespace tstream
{
namespace
{

TEST(Categories, NamesMatchPaperRows)
{
    EXPECT_EQ(categoryName(Category::BulkMemoryCopies),
              "Bulk memory copies");
    EXPECT_EQ(categoryName(Category::KernelStreams),
              "Kernel STREAMS subsystem");
    EXPECT_EQ(categoryName(Category::DbIndexPageTuple),
              "DB2 index, page & tuple accesses");
    EXPECT_EQ(categoryName(Category::CgiPerlInput),
              "CGI - perl input processing");
}

TEST(Categories, WebAndDbPartitions)
{
    EXPECT_TRUE(categoryIsWeb(Category::KernelIpAssembly));
    EXPECT_FALSE(categoryIsWeb(Category::DbIpc));
    EXPECT_TRUE(categoryIsDb(Category::KernelBlockDev));
    EXPECT_FALSE(categoryIsDb(Category::CgiPerlEngine));
    // Cross-application categories belong to neither partition.
    EXPECT_FALSE(categoryIsWeb(Category::BulkMemoryCopies));
    EXPECT_FALSE(categoryIsDb(Category::BulkMemoryCopies));
}

TEST(FunctionRegistry, InternIsIdempotent)
{
    FunctionRegistry reg;
    const FnId a = reg.intern("disp_getwork", Category::KernelScheduler);
    const FnId b = reg.intern("disp_getwork", Category::KernelScheduler);
    EXPECT_EQ(a, b);
    EXPECT_EQ(reg.name(a), "disp_getwork");
    EXPECT_EQ(reg.category(a), Category::KernelScheduler);
}

TEST(FunctionRegistry, ReservedUnknown)
{
    FunctionRegistry reg;
    EXPECT_EQ(reg.category(0), Category::Uncategorized);
    EXPECT_EQ(reg.name(0), "<unknown>");
    EXPECT_EQ(reg.size(), 1u);
}

TEST(FunctionRegistry, DistinctIdsForDistinctNames)
{
    FunctionRegistry reg;
    const FnId a = reg.intern("putq", Category::KernelStreams);
    const FnId b = reg.intern("getq", Category::KernelStreams);
    EXPECT_NE(a, b);
    EXPECT_EQ(reg.size(), 3u);
}

MissTrace
tinyTrace(const std::vector<FnId> &fns)
{
    MissTrace t;
    t.numCpus = 1;
    for (std::size_t i = 0; i < fns.size(); ++i)
        t.misses.push_back(
            MissRecord{i, 1000 + i, 0, 0, fns[i]});
    return t;
}

TEST(ModuleProfile, PercentagesAndOverall)
{
    FunctionRegistry reg;
    const FnId copy = reg.intern("bcopy", Category::BulkMemoryCopies);
    const FnId sched =
        reg.intern("disp_getwork", Category::KernelScheduler);

    MissTrace trace = tinyTrace({copy, copy, copy, sched});
    const std::vector<RepLabel> labels = {
        RepLabel::NewStream, RepLabel::RecurringStream,
        RepLabel::NonRepetitive, RepLabel::RecurringStream};

    ModuleProfile p = profileModules(trace, labels, reg);
    EXPECT_DOUBLE_EQ(p.pctMisses(Category::BulkMemoryCopies), 75.0);
    EXPECT_DOUBLE_EQ(p.pctInStreams(Category::BulkMemoryCopies), 50.0);
    EXPECT_DOUBLE_EQ(p.pctMisses(Category::KernelScheduler), 25.0);
    EXPECT_DOUBLE_EQ(p.pctInStreams(Category::KernelScheduler), 25.0);
    EXPECT_DOUBLE_EQ(p.overallPctInStreams(), 75.0);
}

TEST(ModuleProfile, RenderContainsRequestedSections)
{
    ModuleProfile p;
    p.total = 1;
    p.misses[static_cast<std::size_t>(Category::KernelStreams)] = 1;

    const std::string web = renderModuleTable(p, true, false);
    EXPECT_NE(web.find("Kernel STREAMS subsystem"), std::string::npos);
    EXPECT_EQ(web.find("DB2 index"), std::string::npos);

    const std::string db = renderModuleTable(p, false, true);
    EXPECT_NE(db.find("DB2 index"), std::string::npos);
    EXPECT_EQ(db.find("CGI - perl"), std::string::npos);

    EXPECT_NE(db.find("Overall % in streams"), std::string::npos);
}

TEST(ModuleProfile, EmptyTraceIsAllZero)
{
    FunctionRegistry reg;
    MissTrace trace;
    ModuleProfile p = profileModules(trace, {}, reg);
    EXPECT_EQ(p.total, 0u);
    EXPECT_DOUBLE_EQ(p.overallPctInStreams(), 0.0);
}

} // namespace
} // namespace tstream
