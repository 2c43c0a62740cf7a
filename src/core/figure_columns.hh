/**
 * @file
 * The columns of the paper's Figures 1-4, one function per figure: the
 * text of a figure row after its app/context prefix (leading separator
 * included) plus the row's named metrics. The figure views, the offline
 * `tstream-trace analyze` and the `streams` query aggregate all print
 * these, so an offline analysis reproduces the bench row bit-for-bit.
 */

#ifndef TSTREAM_CORE_FIGURE_COLUMNS_HH
#define TSTREAM_CORE_FIGURE_COLUMNS_HH

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/stream_analysis.hh"

namespace tstream
{

/** A figure row's text after its app/context prefix, and its metrics. */
struct FigureColumns
{
    std::string text;
    std::vector<std::pair<std::string, double>> metrics;
};

/** The stream lengths at which Figure 4 (left) reads its CDF. */
inline constexpr std::uint64_t kStreamLengthPoints[] = {
    1, 2, 4, 8, 16, 32, 64, 128, 512, 1024, 4096};

/** The reuse-distance decades of Figure 4 (right): 1e0-1e1 .. 1e6-1e7. */
inline constexpr int kReuseDecades = 7;

/** Figure 1: MPKI over @p instructions and each class's share; with
 *  @p intraChip the classes are IntraClass (right panel) and the row
 *  adds the coherence share of on-chip-satisfied traffic. */
FigureColumns
missClassColumns(const std::array<std::uint64_t, kNumMissClasses> &classMisses,
                 std::uint64_t instructions, bool intraChip);

/** Figure 2: non-repetitive / new / recurring / in-stream shares. */
FigureColumns streamColumns(const StreamStats &s);

/** Figure 3: the strided x repetitive joint breakdown. */
FigureColumns strideColumns(const StreamStats &s);

/** Figure 4 (left): the weighted stream-length CDF and the median. */
FigureColumns lengthCdfColumns(const StreamStats &s);

/** Figure 4 (right): the reuse-distance share of each decade. */
FigureColumns reuseColumns(const StreamStats &s);

} // namespace tstream

#endif // TSTREAM_CORE_FIGURE_COLUMNS_HH
