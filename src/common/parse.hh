/**
 * @file
 * Whole-token number parsing for command-line flags and environment
 * knobs. strtoull alone skips blanks, negates a '-' and stops at the
 * first non-digit, so "2e4" would read as 2; these helpers accept a
 * value only when the whole token is a number.
 */

#ifndef SEESAW_COMMON_PARSE_HH
#define SEESAW_COMMON_PARSE_HH

#include <cstdint>
#include <limits>
#include <optional>
#include <string>

namespace seesaw {

/** @p token as a whole unsigned decimal number; nullopt when it is
 *  empty, signed, blank-padded, has trailing characters or overflows. */
std::optional<std::uint64_t> parseWholeCount(const std::string &token);

/** @p token as a whole finite real number (strtod syntax); nullopt
 *  when it is empty, blank-padded, has trailing characters, or reads
 *  as an infinity, a NaN or an overflow. */
std::optional<double> parseWholeReal(const std::string &token);

/**
 * Environment variable @p name as a whole number in [@p min, @p max],
 * or @p fallback when it is unset or empty. Any other value prints
 * "bad <name> value <token>" to stderr and exits 1.
 */
std::uint64_t
envCount(const char *name, std::uint64_t fallback, std::uint64_t min = 1,
         std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

} // namespace seesaw

#endif // SEESAW_COMMON_PARSE_HH
