/**
 * @file
 * The one name table per configuration enum that every driver parses
 * flags with and labels cells with (seesaw_cli, scaling_study, the
 * campaign grid and the figure benches). An unknown name is fatal.
 */

#ifndef SEESAW_BENCH_ENUM_NAMES_HH
#define SEESAW_BENCH_ENUM_NAMES_HH

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <string>

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

} // namespace seesaw::bench

#endif // SEESAW_BENCH_ENUM_NAMES_HH
