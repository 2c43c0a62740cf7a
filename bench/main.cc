/**
 * @file
 * main() of every figure/table bench binary. bench/CMakeLists.txt
 * compiles this file once per view, with TSTREAM_VIEW set to the
 * view's binary name; the views live in src/bench/.
 */

#include "bench/views.hh"

int
main(int argc, char **argv)
{
    return tstream::bench::viewMain(TSTREAM_VIEW, argc, argv);
}
