/**
 * @file
 * Strict command-line number parsing shared by the tools: the whole
 * argument must be the number (no trailing junk, no sign where none
 * is allowed, no silent wrap into a narrower field), and a rejection
 * comes back as a diagnostic naming the flag instead of a default
 * value the run would quietly use.
 */

#ifndef TSTREAM_UTIL_PARSE_NUMBER_HH
#define TSTREAM_UTIL_PARSE_NUMBER_HH

#include <charconv>
#include <cmath>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

namespace tstream
{

/**
 * Parse all of @p text into @p out when it is an integer in [@p lo,
 * @p hi]; a value that overflows @p out's type fails like any other
 * out-of-range one. Returns "" or the diagnostic for @p flag.
 */
template <typename T>
std::string
parseInt(std::string_view flag, std::string_view text, T &out,
         std::common_type_t<T> lo,
         std::common_type_t<T> hi = std::numeric_limits<T>::max())
{
    T v{};
    const char *end = text.data() + text.size();
    const auto [p, ec] = std::from_chars(text.data(), end, v);
    if (ec == std::errc() && p == end && v >= lo && v <= hi) {
        out = v;
        return {};
    }
    return std::string(flag) + " wants a " +
           (lo == 0 ? "non-negative" : "positive") +
           " integer no larger than " + std::to_string(hi);
}

/**
 * Parse all of @p text into @p out when it is a finite number greater
 * than zero. Returns "" or the diagnostic for @p flag.
 */
inline std::string
parsePositiveReal(std::string_view flag, std::string_view text,
                  double &out)
{
    double v = 0.0;
    const char *end = text.data() + text.size();
    const auto [p, ec] = std::from_chars(text.data(), end, v);
    if (ec == std::errc() && p == end && std::isfinite(v) && v > 0.0) {
        out = v;
        return {};
    }
    return std::string(flag) + " wants a finite positive number";
}

} // namespace tstream

#endif // TSTREAM_UTIL_PARSE_NUMBER_HH
