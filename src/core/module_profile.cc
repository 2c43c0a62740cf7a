#include "core/module_profile.hh"

#include <cstdio>

#include "obs/telemetry.hh"
#include "util/logging.hh"

namespace tstream
{

ModuleProfile
profileModules(const MissTrace &trace, const std::vector<RepLabel> &labels,
               const FunctionRegistry &reg)
{
    panicIf(labels.size() != trace.misses.size(),
            "profileModules: labels do not match trace");
    telemetry::Span span("analysis.modules", "analysis");
    ModuleProfile p;
    p.total = trace.misses.size();
    for (std::size_t i = 0; i < trace.misses.size(); ++i) {
        const auto cat =
            static_cast<std::size_t>(reg.category(trace.misses[i].fn));
        p.misses[cat]++;
        if (labels[i] != RepLabel::NonRepetitive)
            p.inStream[cat]++;
    }
    return p;
}

std::vector<Category>
moduleTableCategories(bool web_rows, bool db_rows, bool scenario_rows)
{
    std::vector<Category> cats = {
        Category::Uncategorized,    Category::BulkMemoryCopies,
        Category::SystemCalls,      Category::KernelScheduler,
        Category::KernelMmuTrap,    Category::KernelSync,
        Category::KernelOther,
    };
    if (web_rows) {
        for (Category c :
             {Category::KernelStreams, Category::KernelIpAssembly,
              Category::WebWorker, Category::CgiPerlInput,
              Category::CgiPerlEngine, Category::CgiPerlOther})
            cats.push_back(c);
    }
    if (db_rows) {
        for (Category c :
             {Category::KernelBlockDev, Category::DbIndexPageTuple,
              Category::DbRequestControl, Category::DbIpc,
              Category::DbRuntimeInterp, Category::DbOther})
            cats.push_back(c);
    }
    if (scenario_rows) {
        for (Category c :
             {Category::KvHashIndex, Category::KvSlabLru,
              Category::MqTopicLog, Category::MqCursorIndex})
            cats.push_back(c);
    }
    return cats;
}

std::string
renderModuleRow(const ModuleProfile &p, Category c)
{
    char line[160];
    std::snprintf(line, sizeof(line), "  %-38s %7.1f%% %10.1f%%",
                  std::string(categoryName(c)).c_str(), p.pctMisses(c),
                  p.pctInStreams(c));
    return line;
}

std::string
renderModuleOverallRow(const ModuleProfile &p)
{
    char line[160];
    std::snprintf(line, sizeof(line), "  %-38s %8s %10.1f%%",
                  "Overall % in streams", "", p.overallPctInStreams());
    return line;
}

std::string
renderModuleTable(const ModuleProfile &p, bool web_rows, bool db_rows,
                  bool scenario_rows)
{
    std::string out;
    char line[160];

    std::snprintf(line, sizeof(line), "  %-38s %8s %11s\n", "Category",
                  "% misses", "% in streams");
    out += line;

    for (Category c :
         moduleTableCategories(web_rows, db_rows, scenario_rows)) {
        if (c == Category::BulkMemoryCopies)
            out += "  -- Cross-application categories --\n";
        else if (c == Category::KernelStreams)
            out += "  -- Web-specific categories --\n";
        else if (c == Category::KernelBlockDev)
            out += "  -- DB2-specific categories --\n";
        else if (c == Category::KvHashIndex)
            out += "  -- Scenario categories (KV / MQ) --\n";
        out += renderModuleRow(p, c) + "\n";
    }
    out += renderModuleOverallRow(p) + "\n";
    return out;
}

} // namespace tstream
