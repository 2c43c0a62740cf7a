/**
 * @file
 * Internal helpers shared by the trace file (trace_io.cc) and archive
 * (query.cc) formats: little-endian scalar encode/decode and an
 * owning stdio handle. Not part of the public trace API.
 */

#ifndef TSTREAM_TRACE_BYTE_IO_HH
#define TSTREAM_TRACE_BYTE_IO_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

namespace tstream::byte_io
{

using FilePtr = std::unique_ptr<std::FILE, int (*)(std::FILE *)>;

inline void
putU16(std::vector<unsigned char> &out, std::uint16_t v)
{
    out.push_back(static_cast<unsigned char>(v & 0xFF));
    out.push_back(static_cast<unsigned char>(v >> 8));
}

inline void
putU32(std::vector<unsigned char> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<unsigned char>(v >> (8 * i)));
}

inline void
putU64(std::vector<unsigned char> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<unsigned char>(v >> (8 * i)));
}

inline std::uint16_t
getU16(const unsigned char *p)
{
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

inline std::uint32_t
getU32(const unsigned char *p)
{
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

inline std::uint64_t
getU64(const unsigned char *p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

} // namespace tstream::byte_io

#endif // TSTREAM_TRACE_BYTE_IO_HH
