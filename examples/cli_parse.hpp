// Checked numeric flag parsing for the example programs. atoi/atof silently
// map junk ("abc", "12x") to a number that range validation may then
// accept, strtod reads "nan", which no comparison-based range check
// rejects, and strtoull wraps "-1" to 2^64-1 — these reject anything that is
// not entirely a number of the wanted kind (the cert-err34-c rule) through
// the program's own usage error.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

namespace gossipc::cli {

/// A program's usage error: prints `error` and the usage text, then exits.
/// It must not return.
using UsageFn = void (*)(const char* argv0, const char* error);

inline double parse_num(UsageFn usage, const char* argv0, const std::string& flag,
                        const char* s) {
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || errno == ERANGE || !std::isfinite(v)) {
        usage(argv0, (flag + " expects a finite number, got '" + s + "'").c_str());
    }
    return v;
}

inline long long parse_int(UsageFn usage, const char* argv0, const std::string& flag,
                           const char* s) {
    char* end = nullptr;
    errno = 0;
    const long long v = std::strtoll(s, &end, 10);
    if (end == s || *end != '\0' || errno == ERANGE) {
        usage(argv0, (flag + " expects an integer, got '" + s + "'").c_str());
    }
    return v;
}

inline unsigned long long parse_u64(UsageFn usage, const char* argv0, const std::string& flag,
                                    const char* s) {
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0' || errno == ERANGE || std::strchr(s, '-') != nullptr) {
        usage(argv0, (flag + " expects an unsigned integer, got '" + s + "'").c_str());
    }
    return v;
}

}  // namespace gossipc::cli
