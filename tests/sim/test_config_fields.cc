/**
 * @file
 * The SystemConfig field registry (sim/config_fields.hh): every leaf
 * has exactly one role and moves the cell hash, except the
 * observe-only audit fields, which move nothing.
 */

#include <array>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "config_leaves.hh"
#include "harness/campaign.hh"

namespace seesaw {
namespace {

using test::forEachLeaf;
using test::perturb;
using test::roleBytes;

TEST(ConfigFields, EveryLeafHasExactlyOneRole)
{
    SystemConfig config;
    const std::array<std::string, 2> base = roleBytes(config);
    const std::uint64_t base_hash = harness::configHash(config);
    // The only leaves no role writes. Audits never change results
    // (seesaw-tidy's audit-side-effect check), so they key neither
    // one-pass groups nor stored cells.
    const std::set<const void *> observe_only = {
        &config.audit.mode, &config.audit.periodEvents};

    std::size_t index = 0;
    const std::size_t leaves = forEachLeaf(config, [&](auto &leaf) {
        const auto saved = leaf;
        perturb(leaf);
        const std::array<std::string, 2> roles = roleBytes(config);
        const bool hashed = harness::configHash(config) != base_hash;
        leaf = saved;

        unsigned changed = 0;
        for (std::size_t r = 0; r < roles.size(); ++r)
            changed += roles[r] != base[r];
        const bool observe = observe_only.count(&leaf) != 0;
        EXPECT_EQ(changed, observe ? 0u : 1u)
            << "leaf " << index << " (in declaration order)";
        EXPECT_EQ(hashed, !observe) << "leaf " << index;
        ++index;
    });
    EXPECT_EQ(leaves, 56u);

    // Reordering a role list re-keys every stored cell; pin the default
    // so that fails here, not only against the nightly goldens.
    EXPECT_EQ(harness::configHash(SystemConfig{}), 0x271611de838bf575ULL);
}

} // namespace
} // namespace seesaw
