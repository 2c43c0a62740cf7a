/**
 * @file
 * A counting global allocator for allocation-budget tests: every
 * `operator new` in the test binary bumps gAllocs, so a test reads the
 * count before and after the code it checks.
 *
 * The replacement operators are ordinary (non-inline) definitions, so
 * include this header from exactly one source file of a test binary.
 */

#ifndef TSTREAM_TESTS_COUNTING_NEW_HH
#define TSTREAM_TESTS_COUNTING_NEW_HH

#include <atomic>
#include <cstdlib>
#include <new>

namespace
{
std::atomic<std::size_t> gAllocs{0};
} // namespace

void *
operator new(std::size_t size)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#endif // TSTREAM_TESTS_COUNTING_NEW_HH
