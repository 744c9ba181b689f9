#include "common/logging.hpp"

#include <cstdio>
#include <cstdlib>
#include <vector>

namespace spatten {

namespace detail {

std::string
vstrfmt(const char* fmt, std::va_list args)
{
    std::va_list args_copy;
    va_copy(args_copy, args);
    const int n = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (n <= 0)
        return {};
    std::vector<char> buf(static_cast<size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<size_t>(n));
}

} // namespace detail

std::string
strfmt(const char* fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string s = detail::vstrfmt(fmt, args);
    va_end(args);
    return s;
}

[[noreturn]] void
fatal(const char* fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string s = detail::vstrfmt(fmt, args);
    va_end(args);
    std::fprintf(stderr, "fatal: %s\n", s.c_str());
    std::exit(1);
}

[[noreturn]] void
panic(const char* fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string s = detail::vstrfmt(fmt, args);
    va_end(args);
    std::fprintf(stderr, "panic: %s\n", s.c_str());
    std::abort();
}

} // namespace spatten
