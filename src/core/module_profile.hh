/**
 * @file
 * Code-module attribution of misses and temporal streams — the
 * machinery behind the paper's Tables 3, 4 and 5.
 *
 * Each miss record carries the FnId of the function that issued it;
 * the category registry (trace/categories.hh) maps functions to the
 * paper's Table 2 code modules (bulk copies, scheduler, STREAMS, DB2
 * index/page/tuple, perl, ...). This profile folds the per-miss
 * stream labels from stream_analysis.hh per category, yielding the
 * tables' two columns: the category's share of all misses and its
 * in-stream misses as a share of all misses (so the in-stream column
 * sums to the "Overall % in streams" row).
 */

#ifndef TSTREAM_CORE_MODULE_PROFILE_HH
#define TSTREAM_CORE_MODULE_PROFILE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/stream_analysis.hh"
#include "trace/categories.hh"
#include "trace/record.hh"

namespace tstream
{

/** Per-category miss and in-stream shares for one (workload, context). */
struct ModuleProfile
{
    /** Misses attributed to each category. */
    std::array<std::uint64_t, kNumCategories> misses{};
    /** Of those, misses that are part of a temporal stream. */
    std::array<std::uint64_t, kNumCategories> inStream{};
    std::uint64_t total = 0;

    /** Category share of all misses (percent), as in the tables. */
    double
    pctMisses(Category c) const
    {
        return total == 0 ? 0.0
                          : 100.0 *
                                misses[static_cast<std::size_t>(c)] /
                                static_cast<double>(total);
    }

    /**
     * Category's in-stream misses as a percentage of *all* misses
     * (the tables' "% in streams" column; the columns sum to the
     * "Overall % in streams" row).
     */
    double
    pctInStreams(Category c) const
    {
        return total == 0 ? 0.0
                          : 100.0 *
                                inStream[static_cast<std::size_t>(c)] /
                                static_cast<double>(total);
    }

    /** The tables' bottom row. */
    double
    overallPctInStreams() const
    {
        std::uint64_t s = 0;
        for (auto v : inStream)
            s += v;
        return total == 0 ? 0.0 : 100.0 * s / static_cast<double>(total);
    }
};

/**
 * Attribute each miss of @p trace to its category via @p reg and fold
 * in the per-miss stream labels from @p stats.
 */
ModuleProfile profileModules(const MissTrace &trace,
                             const StreamStats &stats,
                             const FunctionRegistry &reg);

/**
 * The categories of a Table 3/4/5-style block, in printed order:
 * Uncategorized, the cross-application rows, then the web, DB and/or
 * scenario (KV / MQ) rows.
 */
std::vector<Category> moduleTableCategories(bool web_rows, bool db_rows,
                                            bool scenario_rows = false);

/** One printed category line ("  <name>  x.x%  y.y%"), no newline. */
std::string renderModuleRow(const ModuleProfile &p, Category c);

/** The tables' bottom "Overall % in streams" line, no newline. */
std::string renderModuleOverallRow(const ModuleProfile &p);

/**
 * Render a Table 3/4/5-style block for one context: one line per
 * category (restricted to cross-application plus web, DB and/or
 * scenario rows) with "% misses" and "% in streams" columns. Composed
 * from renderModuleRow()/renderModuleOverallRow(), so per-row
 * consumers (the bench -o reports) stay bit-identical to this
 * block.
 */
std::string renderModuleTable(const ModuleProfile &p, bool web_rows,
                              bool db_rows, bool scenario_rows = false);

} // namespace tstream

#endif // TSTREAM_CORE_MODULE_PROFILE_HH
