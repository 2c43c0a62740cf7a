/**
 * @file
 * Error-reporting and leveled logging.
 *
 * Two layers live here. The gem5-style terminators — panic() for
 * internal invariant violations, fatal() for user/configuration
 * errors — are unchanged and unconditional. On top of them sits a
 * leveled logger for everything that used to be an ad-hoc stderr
 * print: `logDebug/logInfo/logWarn/logError` (and the printf-style
 * `logf`) emit one timestamped, thread-tagged line to stderr when the
 * message's level clears the threshold.
 *
 * The threshold comes from `TSTREAM_LOG=debug|info|warn|error|off`
 * (default `info`) and can be overridden programmatically with
 * setLogThreshold(). Line shape (UTC wall clock, level letter, small
 * per-thread ordinal):
 *
 *     12:34:56.789 W t03 claim 17-9f3a: owner changed ...
 *
 * Formatting is split out as formatLogLine(), a pure function of
 * (level, message, thread id, wall-clock ms), so tests pin the exact
 * line shape without capturing stderr.
 */

#ifndef TSTREAM_UTIL_LOGGING_HH
#define TSTREAM_UTIL_LOGGING_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

namespace tstream
{

/**
 * Abort the process because an internal invariant was violated.
 * Use for conditions that indicate a bug in tstream itself.
 */
[[noreturn]] inline void
panic(const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

/**
 * Exit the process because of a user-caused error (bad configuration,
 * invalid arguments). Not a tstream bug.
 */
[[noreturn]] inline void
fatal(const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

/**
 * panic() when @p cond is true.
 *
 * The message is a string literal (or another pointer that is already
 * built), so a check that passes costs one test and branch: nothing is
 * allocated or formatted. A message composed at run time goes inside
 * the branch instead, `if (cond) panic("..." + detail);`, so it is
 * built only on the way to abort. There is deliberately no
 * std::string overload: it would build its argument before the test.
 */
inline void
panicIf(bool cond, const char *msg)
{
    if (cond)
        panic(msg);
}

// ---------------------------------------------------------------------------
// Leveled logging
// ---------------------------------------------------------------------------

enum class LogLevel
{
    Debug = 0,
    Info = 1,
    Warn = 2,
    Error = 3,
    Off = 4, ///< threshold only — no message carries this level
};

/** Parse a TSTREAM_LOG-style name; unknown strings map to Info. */
LogLevel logLevelFromName(std::string_view name);

/** Current threshold (first use reads TSTREAM_LOG). */
LogLevel logThreshold();

/** Override the threshold (tests, CLI flags). */
void setLogThreshold(LogLevel level);

/** Re-read TSTREAM_LOG (tests that setenv mid-process). */
void logRefreshFromEnv();

/** True when a message at @p level would be emitted. */
inline bool
logEnabled(LogLevel level)
{
    return static_cast<int>(level) >=
           static_cast<int>(logThreshold());
}

/**
 * Small dense per-thread ordinal (0, 1, 2, ... in first-use order) —
 * stable for the thread's lifetime, shared by log lines and telemetry
 * trace events so both views name threads identically.
 */
int logThreadId();

/** The formatted line, sans trailing newline: pure, for tests. */
std::string formatLogLine(LogLevel level, std::string_view msg,
                          int tid, std::int64_t wallMs);

/** Emit unconditionally (level check is the caller's job). */
void logMessage(LogLevel level, std::string_view msg);

inline void
logDebug(std::string_view msg)
{
    if (logEnabled(LogLevel::Debug))
        logMessage(LogLevel::Debug, msg);
}

inline void
logInfo(std::string_view msg)
{
    if (logEnabled(LogLevel::Info))
        logMessage(LogLevel::Info, msg);
}

inline void
logWarn(std::string_view msg)
{
    if (logEnabled(LogLevel::Warn))
        logMessage(LogLevel::Warn, msg);
}

inline void
logError(std::string_view msg)
{
    if (logEnabled(LogLevel::Error))
        logMessage(LogLevel::Error, msg);
}

/** printf-style convenience for the levels above. */
#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 2, 3)))
#endif
void logf(LogLevel level, const char *fmt, ...);

} // namespace tstream

#endif // TSTREAM_UTIL_LOGGING_HH
