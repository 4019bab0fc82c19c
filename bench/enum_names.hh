/**
 * @file
 * The flag toolkit every driver parses its command line with
 * (seesaw_cli, scaling_study, the campaign grid and the figure
 * benches): the one name table per configuration enum, which also
 * labels cells, plus the whole-token number and list parsers. An
 * unknown name or a malformed value is fatal (exit 1).
 */

#ifndef SEESAW_BENCH_ENUM_NAMES_HH
#define SEESAW_BENCH_ENUM_NAMES_HH

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/parse.hh"
#include "sim/config.hh"

namespace seesaw::bench {

/** One spelling of one enum value. */
template <typename E>
struct EnumName
{
    const char *name;
    E value;
};

inline constexpr EnumName<L1Kind> kDesignNames[] = {
    {"vipt", L1Kind::ViptBaseline},
    {"pipt", L1Kind::Pipt},
    {"sipt", L1Kind::Sipt},
    {"seesaw", L1Kind::Seesaw},
    {"wp", L1Kind::ViptWayPredicted},
    {"wpseesaw", L1Kind::SeesawWayPredicted},
};

inline constexpr EnumName<CoreKind> kCoreNames[] = {
    {"ooo", CoreKind::OutOfOrder},
    {"inorder", CoreKind::InOrder},
};

inline constexpr EnumName<CoherenceKind> kFabricNames[] = {
    {"directory", CoherenceKind::Directory},
    {"snoopy", CoherenceKind::Snoopy},
    {"none", CoherenceKind::None},
};

inline constexpr EnumName<InsertionPolicy> kPolicyNames[] = {
    {"4way", InsertionPolicy::FourWay},
    {"4way8way", InsertionPolicy::FourWayEightWay},
};

inline constexpr EnumName<ReplacementKind> kReplacementNames[] = {
    {"lru", ReplacementKind::Lru},
    {"fifo", ReplacementKind::Fifo},
    {"random", ReplacementKind::Random},
    {"srrip", ReplacementKind::Srrip},
};

inline constexpr EnumName<PrefetchKind> kPrefetchNames[] = {
    {"none", PrefetchKind::None},
    {"nextline", PrefetchKind::NextLine},
    {"stride", PrefetchKind::Stride},
};

/** @return The name of @p value in @p table. */
template <typename E, std::size_t N>
const char *
nameOf(const EnumName<E> (&table)[N], E value)
{
    for (const EnumName<E> &entry : table) {
        if (entry.value == value)
            return entry.name;
    }
    return "?";
}

/** @return The value @p name spells in @p table; otherwise print
 *  "unknown <what> <name> (use a|b|...)" and exit 1. */
template <typename E, std::size_t N>
E
parseName(const EnumName<E> (&table)[N], const char *what,
          const std::string &name)
{
    std::string choices;
    for (const EnumName<E> &entry : table) {
        if (name == entry.name)
            return entry.value;
        choices += choices.empty() ? "" : "|";
        choices += entry.name;
    }
    std::fprintf(stderr, "unknown %s %s (use %s)\n", what, name.c_str(),
                 choices.c_str());
    std::exit(1);
}

/** The value of the flag at argv[@p i], advancing @p i past it;
 *  "missing value for <flag>" and exit 1 when argv ends first. */
inline const char *
takeValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        std::exit(1);
    }
    return argv[++i];
}

/** The non-empty items of the comma-separated list @p arg. */
inline std::vector<std::string>
splitList(const std::string &arg)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= arg.size()) {
        const auto comma = arg.find(',', start);
        const auto end =
            comma == std::string::npos ? arg.size() : comma;
        if (end > start)
            out.push_back(arg.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

/** Reject @p token as the value of @p flag: "bad <flag> value
 *  <token>" and exit 1. */
[[noreturn]] inline void
badValue(const char *flag, const std::string &token)
{
    std::fprintf(stderr, "bad %s value %s\n", flag, token.c_str());
    std::exit(1);
}

/** @p token as a whole unsigned decimal number in [@p min, @p max],
 *  else badValue(). */
inline std::uint64_t
parseCount(const char *flag, const std::string &token,
           std::uint64_t min = 0,
           std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    const auto value = parseWholeCount(token);
    if (!value || *value < min || *value > max)
        badValue(flag, token);
    return *value;
}

/** @p token as a whole finite real number in [@p min, @p max], else
 *  badValue(). */
inline double
parseReal(const char *flag, const std::string &token,
          double min = std::numeric_limits<double>::lowest(),
          double max = std::numeric_limits<double>::max())
{
    const auto value = parseWholeReal(token);
    if (!value || *value < min || *value > max)
        badValue(flag, token);
    return *value;
}

} // namespace seesaw::bench

#endif // SEESAW_BENCH_ENUM_NAMES_HH
