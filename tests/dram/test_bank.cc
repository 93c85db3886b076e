/**
 * @file
 * Bank state machine tests: one test per timing constraint the bank
 * enforces, plus row-outcome classification and close-page behaviour.
 */

#include <gtest/gtest.h>

#include "dram/bank.hh"

using namespace bsim;
using namespace bsim::dram;

namespace
{
const Timing kT = Timing::ddr2_800();
}

TEST(Bank, StartsClosed)
{
    Bank b;
    EXPECT_FALSE(b.isOpen());
    // Activate allowed at 0; precharge and column accesses need an
    // open row.
    EXPECT_LE(b.actAllowedAt(), 0u);
    EXPECT_EQ(b.classify(0), RowOutcome::Empty);
    EXPECT_NE(b.classify(0), RowOutcome::Hit);
}

TEST(Bank, ClassifyEmptyHitConflict)
{
    Bank b;
    EXPECT_EQ(b.classify(3), RowOutcome::Empty);
    b.activate(3, 0, kT);
    EXPECT_EQ(b.classify(3), RowOutcome::Hit);
    EXPECT_EQ(b.classify(4), RowOutcome::Conflict);
}

TEST(Bank, ActivateOpensRow)
{
    Bank b;
    b.activate(7, 0, kT);
    EXPECT_TRUE(b.isOpen());
    EXPECT_EQ(b.openRow(), 7u);
}

TEST(Bank, TrcdGatesColumnAccess)
{
    Bank b;
    b.activate(1, 10, kT);
    EXPECT_EQ(b.classify(1), RowOutcome::Hit);
    EXPECT_GT(b.rdAllowedAt(), 10 + kT.tRCD - 1);
    EXPECT_LE(b.rdAllowedAt(), 10 + kT.tRCD);
    EXPECT_GT(b.wrAllowedAt(), 10 + kT.tRCD - 1);
    EXPECT_LE(b.wrAllowedAt(), 10 + kT.tRCD);
}

TEST(Bank, ReadRequiresMatchingRow)
{
    Bank b;
    b.activate(1, 0, kT);
    EXPECT_EQ(b.classify(2), RowOutcome::Conflict);
    EXPECT_EQ(b.classify(1), RowOutcome::Hit);
    EXPECT_LE(b.rdAllowedAt(), 100u);
}

TEST(Bank, TrasGatesPrecharge)
{
    Bank b;
    b.activate(1, 0, kT);
    EXPECT_TRUE(b.isOpen());
    EXPECT_GT(b.preAllowedAt(), kT.tRAS - 1);
    EXPECT_LE(b.preAllowedAt(), kT.tRAS);
}

TEST(Bank, TrpGatesActivateAfterPrecharge)
{
    Bank b;
    b.activate(1, 0, kT);
    b.precharge(kT.tRAS, kT);
    EXPECT_FALSE(b.isOpen());
    EXPECT_GT(b.actAllowedAt(), kT.tRAS + kT.tRP - 1);
    EXPECT_LE(b.actAllowedAt(), kT.tRAS + kT.tRP);
}

TEST(Bank, TrcGatesBackToBackActivates)
{
    Bank b;
    b.activate(1, 0, kT);
    // Even closing early cannot beat tRC.
    b.precharge(kT.tRAS, kT);
    const Tick after_trp = kT.tRAS + kT.tRP;
    if (after_trp < kT.tRC) {
        EXPECT_GT(b.actAllowedAt(), kT.tRC - 1);
    }
    EXPECT_LE(b.actAllowedAt(), kT.tRC);
}

TEST(Bank, ReadToPrechargeDelay)
{
    Bank b;
    b.activate(1, 0, kT);
    const Tick rd_at = kT.tRAS + 10; // past tRAS so only tRTP binds
    b.read(rd_at, kT, false);
    const Tick rtp_done =
        rd_at + std::max<Tick>(1, Tick(kT.dataCycles()) + kT.tRTP - 2);
    EXPECT_TRUE(b.isOpen());
    EXPECT_GT(b.preAllowedAt(), rtp_done - 1);
    EXPECT_LE(b.preAllowedAt(), rtp_done);
}

TEST(Bank, WriteRecoveryGatesPrecharge)
{
    Bank b;
    b.activate(1, 0, kT);
    const Tick wr_at = kT.tRAS + 10;
    b.write(wr_at, kT, false);
    const Tick wr_done = wr_at + kT.tWL + kT.dataCycles() + kT.tWR;
    EXPECT_TRUE(b.isOpen());
    EXPECT_GT(b.preAllowedAt(), wr_done - 1);
    EXPECT_LE(b.preAllowedAt(), wr_done);
}

TEST(Bank, AutoPrechargeClosesAfterRead)
{
    Bank b;
    b.activate(1, 0, kT);
    b.read(kT.tRAS + 10, kT, true);
    EXPECT_FALSE(b.isOpen());
    // The bank may not activate again until the implicit precharge
    // completes.
    EXPECT_GT(b.actAllowedAt(), kT.tRAS + 10 + 1);
}

TEST(Bank, AutoPrechargeClosesAfterWrite)
{
    Bank b;
    b.activate(1, 0, kT);
    b.write(kT.tRAS + 10, kT, true);
    EXPECT_FALSE(b.isOpen());
}

TEST(Bank, RefreshBlocksActivate)
{
    Bank b;
    b.refreshUntil(100);
    EXPECT_GT(b.actAllowedAt(), 99u);
    EXPECT_LE(b.actAllowedAt(), 100u);
}

TEST(BankDeath, ActivateOnOpenBankPanics)
{
    Bank b;
    b.activate(1, 0, kT);
    EXPECT_DEATH(b.activate(2, 100, kT), "activate on open bank");
}

TEST(BankDeath, PrechargeOnClosedBankPanics)
{
    Bank b;
    EXPECT_DEATH(b.precharge(0, kT), "precharge on closed bank");
}

TEST(BankDeath, EarlyActivatePanics)
{
    Bank b;
    b.activate(1, 0, kT);
    b.precharge(kT.tRAS, kT);
    EXPECT_DEATH(b.activate(1, kT.tRAS + 1, kT), "violates");
}

TEST(BankDeath, IllegalReadPanics)
{
    Bank b;
    EXPECT_DEATH(b.read(0, kT, false), "illegal read");
}
