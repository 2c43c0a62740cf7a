/**
 * @file
 * main() of every figure/table bench binary: an alias of
 * `tstream-bench run TSTREAM_VIEW` with the caller's flags.
 * bench/CMakeLists.txt compiles this file once per view, with
 * TSTREAM_VIEW set to the view's binary name; the views live in
 * src/bench/.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/run.hh"

int
main(int argc, char **argv)
{
    std::vector<const char *> args(argv + 1, argv + argc);
    args.push_back(TSTREAM_VIEW);
    tstream::bench::BenchOptions opts;
    std::string err = tstream::bench::parseRunArgs(
        static_cast<int>(args.size()), args.data(), opts);
    if (err.empty() && opts.views.size() != 1)
        err = "takes no bench names";
    if (err.empty() && opts.fleet > 0)
        err = "--fleet is a `tstream-bench run` flag";
    if (err.empty() && !opts.help)
        return tstream::bench::runBench(opts);

    std::FILE *to = err.empty() ? stdout : stderr;
    if (!err.empty())
        std::fprintf(to, "%s: %s\n\n", TSTREAM_VIEW, err.c_str());
    std::fprintf(to,
                 "usage: %s [FLAGS]\n"
                 "(an alias of `tstream-bench run [FLAGS] %s`)\n\n"
                 "flags:\n",
                 TSTREAM_VIEW, TSTREAM_VIEW);
    std::fputs(tstream::bench::kRunFlagsHelp, to);
    return err.empty() ? 0 : 2;
}
