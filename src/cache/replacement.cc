#include "cache/replacement.hh"

#include "common/logging.hh"

namespace seesaw {

ReplacementPolicy::ReplacementPolicy(const ReplacementParams &params,
                                     unsigned num_sets, unsigned assoc)
    : kind_(params.kind), singleWay_(assoc == 1), numSets_(num_sets),
      assoc_(assoc),
      maxRrpv_((std::uint64_t{1} << params.rripBits) - 1),
      state_(static_cast<std::size_t>(num_sets) * assoc, 0),
      rng_(params.seed)
{
    SEESAW_ASSERT(num_sets > 0 && assoc > 0, "empty policy geometry");
    if (kind_ == ReplacementKind::Srrip) {
        SEESAW_ASSERT(params.rripBits >= 1 && params.rripBits <= 8,
                      "rripBits out of range");
    }
}

unsigned
ReplacementPolicy::victimSlow(std::size_t slot0, unsigned begin,
                              unsigned end)
{
    switch (kind_) {
      case ReplacementKind::Random:
        return begin +
               static_cast<unsigned>(rng_.nextBounded(end - begin));
      case ReplacementKind::Srrip:
        for (;;) {
            for (unsigned way = begin; way < end; ++way) {
                if (state_[slot0 + way] >= maxRrpv_)
                    return way;
            }
            for (unsigned way = begin; way < end; ++way)
                ++state_[slot0 + way];
        }
      default:
        break;
    }
    SEESAW_FATAL("unknown replacement kind");
}

void
ReplacementPolicy::auditSet(unsigned set, const WayValid &valid,
                            const AuditFail &fail) const
{
    switch (kind_) {
      case ReplacementKind::Lru:
      case ReplacementKind::Fifo: {
        const char *what =
            kind_ == ReplacementKind::Lru ? "LRU" : "FIFO";
        for (unsigned way = 0; way < assoc_; ++way) {
            if (!valid(way))
                continue;
            const std::uint64_t stamp = state_[slot(set, way)];
            if (stamp > clock_) {
                fail(way, std::string(what) + " timestamp " +
                              std::to_string(stamp) +
                              " exceeds use clock " +
                              std::to_string(clock_));
            }
            for (unsigned other = way + 1; other < assoc_; ++other) {
                if (valid(other) &&
                    state_[slot(set, other)] == stamp) {
                    fail(way, std::string("duplicate ") + what +
                                  " timestamp " +
                                  std::to_string(stamp) +
                                  " shared with way " +
                                  std::to_string(other));
                }
            }
        }
        return;
      }
      case ReplacementKind::Random:
        // Stateless: no invariant of its own.
        return;
      case ReplacementKind::Srrip:
        for (unsigned way = 0; way < assoc_; ++way) {
            if (valid(way) && state_[slot(set, way)] > maxRrpv_) {
                fail(way,
                     "RRPV " +
                         std::to_string(state_[slot(set, way)]) +
                         " out of range (max " +
                         std::to_string(maxRrpv_) + ")");
            }
        }
        return;
    }
}

} // namespace seesaw
