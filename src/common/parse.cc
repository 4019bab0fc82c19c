#include "common/parse.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace seesaw {

std::optional<std::uint64_t>
parseWholeCount(const std::string &token)
{
    if (token.empty() ||
        !std::isdigit(static_cast<unsigned char>(token.front())))
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    const std::uint64_t value = std::strtoull(token.c_str(), &end, 10);
    if (*end != '\0' || errno == ERANGE)
        return std::nullopt;
    return value;
}

std::optional<double>
parseWholeReal(const std::string &token)
{
    if (token.empty() ||
        std::isspace(static_cast<unsigned char>(token.front())))
        return std::nullopt;
    char *end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (*end != '\0' || !std::isfinite(value))
        return std::nullopt;
    return value;
}

std::uint64_t
envCount(const char *name, std::uint64_t fallback, std::uint64_t min,
         std::uint64_t max)
{
    const char *value = std::getenv(name);
    if (!value || !*value)
        return fallback;
    const auto parsed = parseWholeCount(value);
    if (!parsed || *parsed < min || *parsed > max) {
        std::fprintf(stderr, "bad %s value %s\n", name, value);
        std::exit(1);
    }
    return *parsed;
}

} // namespace seesaw
