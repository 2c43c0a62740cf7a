/**
 * @file
 * printf into a std::string: the one formatting helper behind report
 * rows, query rows and figure columns.
 */

#ifndef TSTREAM_UTIL_STRPRINTF_HH
#define TSTREAM_UTIL_STRPRINTF_HH

#include <cstdarg>
#include <cstdio>
#include <string>

namespace tstream
{

/** printf @p fmt into a std::string (at most 511 characters). */
inline std::string
strprintf(const char *fmt, ...)
{
    char buf[512];
    std::va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    return buf;
}

} // namespace tstream

#endif // TSTREAM_UTIL_STRPRINTF_HH
