/** @file MOESI protocol truth-table tests. */

#include <gtest/gtest.h>

#include "cache/moesi.hh"

namespace seesaw {
namespace {

using S = CoherenceState;

TEST(Moesi, LocalReadFill)
{
    EXPECT_EQ(MoesiProtocol::onLocalReadFill(false), S::Exclusive);
    EXPECT_EQ(MoesiProtocol::onLocalReadFill(true), S::Shared);
}

TEST(Moesi, LocalReadHitPreservesState)
{
    for (S s : {S::Shared, S::Exclusive, S::Owned, S::Modified})
        EXPECT_EQ(MoesiProtocol::onLocalReadHit(s), s);
}

TEST(Moesi, LocalWriteAlwaysModified)
{
    for (S s : {S::Invalid, S::Shared, S::Exclusive, S::Owned,
                S::Modified})
        EXPECT_EQ(MoesiProtocol::onLocalWrite(s), S::Modified);
}

TEST(Moesi, LocalFillByAccessType)
{
    // The L1 sees no remote sharers: loads fill E (the fabric
    // downgrades to S), stores fill M.
    EXPECT_EQ(MoesiProtocol::onLocalFill(AccessType::Read), S::Exclusive);
    EXPECT_EQ(MoesiProtocol::onLocalFill(AccessType::Write), S::Modified);
}

TEST(Moesi, WriteUpgradeNeededOnlyWhenRemoteCopiesMayExist)
{
    EXPECT_TRUE(MoesiProtocol::writeNeedsUpgrade(S::Shared));
    EXPECT_TRUE(MoesiProtocol::writeNeedsUpgrade(S::Owned));
    EXPECT_FALSE(MoesiProtocol::writeNeedsUpgrade(S::Exclusive));
    EXPECT_FALSE(MoesiProtocol::writeNeedsUpgrade(S::Modified));
    EXPECT_FALSE(MoesiProtocol::writeNeedsUpgrade(S::Invalid));
}

TEST(Moesi, RemoteReadKeepsOwnershipOfDirtyData)
{
    EXPECT_EQ(MoesiProtocol::onRemoteRead(S::Modified), S::Owned);
    EXPECT_EQ(MoesiProtocol::onRemoteRead(S::Owned), S::Owned);
}

TEST(Moesi, RemoteReadDowngradesCleanStates)
{
    EXPECT_EQ(MoesiProtocol::onRemoteRead(S::Exclusive), S::Shared);
    EXPECT_EQ(MoesiProtocol::onRemoteRead(S::Shared), S::Shared);
    EXPECT_EQ(MoesiProtocol::onRemoteRead(S::Invalid), S::Invalid);
}

TEST(Moesi, DirtyStatesSupplyData)
{
    EXPECT_TRUE(MoesiProtocol::suppliesData(S::Modified));
    EXPECT_TRUE(MoesiProtocol::suppliesData(S::Owned));
    EXPECT_FALSE(MoesiProtocol::suppliesData(S::Exclusive));
    EXPECT_FALSE(MoesiProtocol::suppliesData(S::Shared));
}

TEST(Moesi, RemoteWriteInvalidates)
{
    for (S s : {S::Shared, S::Exclusive, S::Owned, S::Modified})
        EXPECT_EQ(MoesiProtocol::onRemoteWrite(s), S::Invalid);
}

TEST(Moesi, DroppedLinesEndInvalid)
{
    for (S s : {S::Shared, S::Exclusive, S::Owned, S::Modified})
        EXPECT_EQ(MoesiProtocol::onDrop(s), S::Invalid);
}

TEST(Moesi, CleanEvictionRule)
{
    EXPECT_TRUE(MoesiProtocol::cleanEviction(S::Shared));
    EXPECT_TRUE(MoesiProtocol::cleanEviction(S::Exclusive));
    EXPECT_FALSE(MoesiProtocol::cleanEviction(S::Modified));
    EXPECT_FALSE(MoesiProtocol::cleanEviction(S::Owned));
}

TEST(Moesi, StateMachineSequence)
{
    // E -> (local write) M -> (remote read) O -> (remote write) I.
    S s = MoesiProtocol::onLocalReadFill(false);
    EXPECT_EQ(s, S::Exclusive);
    s = MoesiProtocol::onLocalWrite(s);
    EXPECT_EQ(s, S::Modified);
    s = MoesiProtocol::onRemoteRead(s);
    EXPECT_EQ(s, S::Owned);
    EXPECT_TRUE(MoesiProtocol::suppliesData(s));
    s = MoesiProtocol::onRemoteWrite(s);
    EXPECT_EQ(s, S::Invalid);
}

} // namespace
} // namespace seesaw
