#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>

namespace vdnn
{

namespace
{
bool quietFlag = false;
} // namespace

std::string
vstrFormat(const char *fmt, va_list args)
{
    // Format straight into the string's inline buffer; only output
    // that does not fit is formatted a second time, at its exact size.
    std::string out;
    out.resize(out.capacity());
    va_list args_copy;
    va_copy(args_copy, args);
    int needed = std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
    va_end(args_copy);
    if (needed < 0)
        return std::string(fmt);
    if (std::size_t(needed) > out.size()) {
        out.resize(std::size_t(needed));
        std::vsnprintf(out.data(), out.size() + 1, fmt, args);
    } else {
        out.resize(std::size_t(needed));
    }
    return out;
}

std::string
strFormat(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string s = vstrFormat(fmt, args);
    va_end(args);
    return s;
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vstrFormat(fmt, args);
    va_end(args);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vstrFormat(fmt, args);
    va_end(args);
    throw FatalError(msg);
}

void
warn(const char *fmt, ...)
{
    if (quietFlag)
        return;
    va_list args;
    va_start(args, fmt);
    std::string msg = vstrFormat(fmt, args);
    va_end(args);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
inform(const char *fmt, ...)
{
    if (quietFlag)
        return;
    va_list args;
    va_start(args, fmt);
    std::string msg = vstrFormat(fmt, args);
    va_end(args);
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

void
setQuiet(bool quiet)
{
    quietFlag = quiet;
}

bool
isQuiet()
{
    return quietFlag;
}

} // namespace vdnn
