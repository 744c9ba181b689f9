/**
 * @file
 * Logging and error-reporting helpers shared by every SpAtten subsystem.
 *
 * Follows the gem5 convention: fatal() terminates on user error (bad
 * configuration, invalid arguments), panic() aborts on internal invariant
 * violations.
 */
#ifndef SPATTEN_COMMON_LOGGING_HPP
#define SPATTEN_COMMON_LOGGING_HPP

#include <cstdarg>
#include <string>

namespace spatten {

/**
 * Terminate the process because of a user-caused error (bad config,
 * invalid arguments). Exits with status 1.
 */
[[noreturn]] void fatal(const char* fmt, ...);

/**
 * Abort because of an internal invariant violation (a bug in SpAtten
 * itself). Calls std::abort().
 */
[[noreturn]] void panic(const char* fmt, ...);

/** printf-style formatting into a std::string. */
std::string strfmt(const char* fmt, ...);

namespace detail {
std::string vstrfmt(const char* fmt, std::va_list args);
} // namespace detail

} // namespace spatten

/**
 * Assert that holds in all build types. Use for invariants whose failure
 * indicates a SpAtten bug; message is printf-formatted.
 */
#define SPATTEN_ASSERT(cond, ...)                                            \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ::spatten::panic("assertion '%s' failed at %s:%d: %s", #cond,    \
                             __FILE__, __LINE__,                             \
                             ::spatten::strfmt(__VA_ARGS__).c_str());        \
        }                                                                    \
    } while (0)

#endif // SPATTEN_COMMON_LOGGING_HPP
