/**
 * @file
 * A minimal gem5-flavoured statistics package.
 *
 * Components register named statistics in a StatGroup; experiments pull
 * values by name or dump the whole group. Statistics are plain counters,
 * cheap enough to update on every simulated access.
 */

#ifndef SEESAW_COMMON_STATS_HH
#define SEESAW_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace seesaw {

/** A scalar counter (also usable as an accumulator of doubles). */
class StatScalar
{
  public:
    StatScalar() = default;

    StatScalar &operator+=(double v) { value_ += v; return *this; }
    StatScalar &operator++() { value_ += 1.0; return *this; }
    void set(double v) { value_ = v; }
    void reset() { value_ = 0.0; }

    double value() const { return value_; }
    std::uint64_t count() const
    {
        return static_cast<std::uint64_t>(value_);
    }

  private:
    double value_ = 0.0;
};

/**
 * A named collection of statistics. Components own a StatGroup and
 * register their stats once at construction.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name);

    /** Register (or fetch) a scalar statistic named @p name. */
    StatScalar &scalar(const std::string &name);

    /** @return The scalar's value, or 0 when absent. */
    double get(const std::string &name) const;

    /** Reset every statistic in the group. */
    void resetAll();

    /** Render "group.stat value" lines for every statistic. */
    std::string dump() const;

    const std::string &name() const { return name_; }

    const std::map<std::string, StatScalar> &scalars() const
    {
        return scalars_;
    }

  private:
    std::string name_;
    std::map<std::string, StatScalar> scalars_;
};

} // namespace seesaw

#endif // SEESAW_COMMON_STATS_HH
