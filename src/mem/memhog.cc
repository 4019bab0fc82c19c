#include "mem/memhog.hh"

#include <algorithm>
#include <bit>
#include <vector>

#include "common/logging.hh"

namespace seesaw {

Memhog::Memhog(OsMemoryManager &os, MemhogParams params)
    : os_(os), params_(params), rng_(params.seed)
{
}

void
Memhog::consume(double fraction)
{
    SEESAW_ASSERT(!consumed_, "Memhog::consume called twice");
    consumed_ = true;
    if (fraction <= 0.0)
        return;
    fraction = std::min(fraction, 0.95);

    const std::uint64_t total = os_.buddy().totalFrames();
    const auto keep = static_cast<std::uint64_t>(total * fraction);
    const auto overshoot =
        static_cast<std::uint64_t>(keep * (1.0 + params_.churn));

    // Phase 1: grab frames greedily (buddy hands them out compactly).
    const std::vector<std::uint64_t> grabbed =
        os_.allocateRawFrames(overshoot, /*movable=*/true);

    // Phase 2: pick run-structured random stretches to free until only
    // `keep` frames remain, scattering holes across page-blocks, then
    // free them in one step. Bit i of `freed` marks grabbed[i]; the
    // bits past the last frame start set, so no run reaches them.
    const std::uint64_t grabbed_count = grabbed.size();
    held_ = grabbed_count;
    std::vector<std::uint64_t> freed((grabbed_count + 63) / 64, 0);
    if (const unsigned tail = grabbed_count % 64; tail != 0)
        freed.back() = ~std::uint64_t{0} << tail;
    std::vector<std::uint64_t> released;
    released.reserve(grabbed_count - std::min(grabbed_count, keep));
    while (held_ > keep) {
        const std::uint64_t start = rng_.nextBounded(grabbed_count);
        std::uint64_t run = std::min(
            held_ - keep, 1 + rng_.nextGeometric(params_.meanFreeRunLength));
        std::uint64_t from = ~std::uint64_t{0} << (start % 64);
        for (std::size_t w = start / 64; w < freed.size() && run > 0; ++w) {
            std::uint64_t taken = 0;
            for (std::uint64_t open = ~freed[w] & from; open != 0 && run > 0;
                 open &= open - 1, --run, --held_) {
                taken |= open & -open;
                released.push_back(grabbed[w * 64 + std::countr_zero(open)]);
            }
            freed[w] |= taken;
            from = ~std::uint64_t{0};
        }
    }
    os_.freeRawFrames(released);

    // Phase 3: retain the rest; pin a small random fraction in place.
    for (std::size_t w = 0; w < freed.size(); ++w) {
        for (std::uint64_t kept = ~freed[w]; kept != 0; kept &= kept - 1) {
            if (rng_.chance(params_.pinnedProbability))
                os_.pinRawFrame(grabbed[w * 64 + std::countr_zero(kept)]);
        }
    }
}

} // namespace seesaw
