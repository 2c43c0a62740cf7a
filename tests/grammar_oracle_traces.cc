/**
 * @file
 * grammar_oracle_traces DIR: run the grammar oracle (grammar_oracle.hh)
 * over every recorded trace in a trace-cache directory — each
 * `*.off.tst` and `*.l1.tst` file, as `tstream-bench run` writes them.
 * For each trace it builds the per-CPU SEQUITUR input, checks the
 * grammar properties, and compares the naive relabel with
 * analyzeStreams(). Prints one line per trace; exits 1 on the first
 * failing check, or if DIR holds no trace (an empty directory must not
 * pass).
 *
 *   grammar_oracle_traces build/tools/bench_e2e/trace-cache
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "grammar_oracle.hh"
#include "trace/trace_io.hh"

namespace
{

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tstream;
    if (argc != 2) {
        std::fprintf(stderr, "usage: grammar_oracle_traces DIR\n");
        return 2;
    }
    std::vector<std::string> paths;
    std::error_code ec;
    for (const auto &e : std::filesystem::directory_iterator(argv[1], ec)) {
        const std::string p = e.path().string();
        if (endsWith(p, ".off.tst") || endsWith(p, ".l1.tst"))
            paths.push_back(p);
    }
    if (ec) {
        std::fprintf(stderr, "%s: %s\n", argv[1], ec.message().c_str());
        return 1;
    }
    if (paths.empty()) {
        std::fprintf(stderr, "%s: no *.off.tst or *.l1.tst traces\n",
                     argv[1]);
        return 1;
    }
    std::sort(paths.begin(), paths.end());

    for (const std::string &p : paths) {
        auto trace = loadTrace(p);
        if (!trace) {
            std::fprintf(stderr, "%s: %s\n", p.c_str(),
                         trace.error().c_str());
            return 1;
        }
        const oracle::StreamInput in = oracle::streamInput(*trace);
        Sequitur g;
        g.appendAll(in.symbols);
        std::string err = oracle::checkGrammar(g, in.symbols, in.sentinels);
        if (err.empty())
            err = oracle::compareWithAnalysis(
                oracle::naiveRelabel(*trace, in, g), *trace);
        if (!err.empty()) {
            std::fprintf(stderr, "FAIL %s: %s\n", p.c_str(), err.c_str());
            return 1;
        }
        std::printf("ok %s: %zu misses, %zu rules\n", p.c_str(),
                    trace->misses.size(), g.ruleCount());
    }
    std::printf("%zu traces pass the grammar oracle\n", paths.size());
    return 0;
}
