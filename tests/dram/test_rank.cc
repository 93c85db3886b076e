/**
 * @file
 * Rank-level constraint tests: tRRD, tFAW, the rank-wide write-to-read
 * turnaround, and refresh preconditions.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "dram/memory_system.hh"

using namespace bsim;
using namespace bsim::dram;

namespace
{
const Timing kT = Timing::ddr2_800();

/** First tick both rank-level activate windows (tRRD, tFAW) are open. */
Tick
actWindowsOpenAt(const Rank &r, const Timing &t)
{
    return std::max(r.rrdAllowedAt(t), r.fawAllowedAt(t));
}

/** One channel, one rank of @p banks banks, no periodic refresh. */
DramConfig
oneRank(std::uint32_t banks)
{
    DramConfig cfg;
    cfg.channels = 1;
    cfg.ranksPerChannel = 1;
    cfg.banksPerRank = banks;
    cfg.rowsPerBank = 64;
    cfg.blocksPerRow = 32;
    cfg.timing = kT;
    cfg.timing.tREFI = 0;
    return cfg;
}

const Command kRefresh{CmdType::RefreshAll, Coords{}, 0};
const Coords kBank0{0, 0, 0, 1, 0};
} // namespace

TEST(Rank, TrrdSpacesActivates)
{
    Rank r(4);
    EXPECT_LE(actWindowsOpenAt(r, kT), 0u);
    r.noteActivate(10, kT);
    EXPECT_GT(actWindowsOpenAt(r, kT), 10 + kT.tRRD - 1);
    EXPECT_LE(actWindowsOpenAt(r, kT), 10 + kT.tRRD);
}

TEST(Rank, FawLimitsFourActivates)
{
    Rank r(8);
    // Four activates spaced exactly tRRD apart.
    Tick t = 100;
    for (int i = 0; i < 4; ++i) {
        ASSERT_LE(actWindowsOpenAt(r, kT), t);
        r.noteActivate(t, kT);
        t += kT.tRRD;
    }
    // The fifth must wait until tFAW past the first.
    EXPECT_GT(actWindowsOpenAt(r, kT), t);
    EXPECT_LE(actWindowsOpenAt(r, kT), 100 + kT.tFAW);
}

TEST(Rank, FawDisabledWhenZero)
{
    Timing t = kT;
    t.tFAW = 0;
    t.tRRD = 0;
    Rank r(8);
    Tick now = 50;
    for (int i = 0; i < 6; ++i) {
        ASSERT_LE(actWindowsOpenAt(r, t), now);
        r.noteActivate(now, t);
        now += 1;
    }
}

TEST(Rank, WriteToReadTurnaround)
{
    Rank r(4);
    EXPECT_LE(r.readAllowedAt(), 0u);
    const Tick data_end = 40;
    r.noteWrite(data_end, kT);
    EXPECT_GT(r.readAllowedAt(), data_end + kT.tWTR - 1);
    EXPECT_LE(r.readAllowedAt(), data_end + kT.tWTR);
}

TEST(Rank, RefreshRequiresAllBanksClosed)
{
    MemorySystem mem(oneRank(2));
    const Rank &r = mem.rank(kBank0);
    mem.issue({CmdType::Activate, kBank0, 1}, 0);
    EXPECT_FALSE(r.allBanksClosed());
    EXPECT_FALSE(mem.canIssue(kRefresh, 1000));
    mem.issue({CmdType::Precharge, kBank0, 1}, kT.tRAS);
    EXPECT_TRUE(r.allBanksClosed());
    EXPECT_TRUE(mem.canIssue(kRefresh, 1000));
}

TEST(Rank, RefreshWaitsForPrechargeSettle)
{
    MemorySystem mem(oneRank(1));
    mem.issue({CmdType::Activate, kBank0, 1}, 0);
    mem.issue({CmdType::Precharge, kBank0, 1}, kT.tRAS);
    // Precharge completes at tRAS + tRP.
    EXPECT_FALSE(mem.canIssue(kRefresh, kT.tRAS + kT.tRP - 1));
    EXPECT_TRUE(mem.canIssue(kRefresh, kT.tRAS + kT.tRP));
}

TEST(Rank, RefreshBlocksAllBanksForTrfc)
{
    Rank r(4);
    r.refresh(200, kT);
    for (std::uint32_t b = 0; b < 4; ++b) {
        EXPECT_GT(r.bank(b).actAllowedAt(), 200 + kT.tRFC - 1);
        EXPECT_LE(r.bank(b).actAllowedAt(), 200 + kT.tRFC);
    }
}

TEST(Rank, ActivateAtTickZeroCounted)
{
    Rank r(4);
    r.noteActivate(0, kT);
    EXPECT_GT(actWindowsOpenAt(r, kT), 1u);
}
