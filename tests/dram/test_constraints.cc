/**
 * @file
 * Property test of the four DDR2 legality queries (canIssue, whyBlocked,
 * blockedUntil, readyAt). Random legal command sequences run over
 * DDR2-800 and DDR-266 under open-page and close-page-autoprecharge
 * policies, with random refresh-drain toggles; at every probe the
 * queries must agree with tick-by-tick stepping of whyBlocked():
 *
 *  - canIssue(t) == (whyBlocked(t) == None);
 *  - readyAt(t) is the first tick at which stepping whyBlocked reaches
 *    None, or kTickMax when a state gate (WrongState, RefreshDrain)
 *    blocks;
 *  - blockedUntil(t) never passes the first change of the reported
 *    cause, and equals it for every command type but RefreshAll (whose
 *    per-bank entries may repeat a cause, so the cause can hold across
 *    the binding entry's deadline).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "dram/memory_system.hh"

using namespace bsim;
using namespace bsim::dram;

namespace
{

constexpr std::uint32_t kChannels = 2;
constexpr std::uint32_t kRanks = 2;
constexpr std::uint32_t kBanks = 8;
constexpr std::uint32_t kRows = 3;
/** Far beyond any DDR2 window: stepping this long means a hang. */
constexpr Tick kStepLimit = 100000;

bool
isStateGate(StallCause c)
{
    return c == StallCause::WrongState || c == StallCause::RefreshDrain;
}

struct Coverage
{
    std::uint64_t probes = 0;
    std::uint64_t blocked = 0;
    std::uint64_t gated = 0;
    std::uint64_t causes[kNumStallCauses] = {};
};

/** Check the four queries for @p cmd at @p t against stepping. */
void
checkQueries(const MemorySystem &mem, const Command &cmd, Tick t,
             Coverage &stats)
{
    const StallCause why = mem.whyBlocked(cmd, t);
    ASSERT_EQ(mem.canIssue(cmd, t), why == StallCause::None)
        << cmdName(cmd.type) << " at " << t;
    stats.probes += 1;
    stats.causes[std::size_t(why)] += 1;

    // Step until the command may issue or a state gate shows up.
    Tick ready = t;
    bool gated = false;
    for (StallCause c = why; c != StallCause::None;
         c = mem.whyBlocked(cmd, ++ready)) {
        if (isStateGate(c)) {
            gated = true;
            break;
        }
        ASSERT_LT(ready - t, kStepLimit) << cmdName(cmd.type);
    }
    EXPECT_EQ(mem.readyAt(cmd, t), gated ? kTickMax : ready)
        << cmdName(cmd.type) << " at " << t
        << " blocked by " << stallCauseName(why);

    const Tick until = mem.blockedUntil(cmd, t);
    if (why == StallCause::None) {
        EXPECT_EQ(until, t) << cmdName(cmd.type);
        return;
    }
    stats.blocked += 1;
    if (isStateGate(why)) {
        // A state gate never changes by waiting.
        stats.gated += 1;
        EXPECT_EQ(until, kTickMax) << cmdName(cmd.type);
        return;
    }
    // First tick after t at which the reported cause changes.
    Tick flip = t + 1;
    while (mem.whyBlocked(cmd, flip) == why) {
        ++flip;
        ASSERT_LT(flip - t, kStepLimit) << cmdName(cmd.type);
    }
    EXPECT_GT(until, t) << cmdName(cmd.type);
    EXPECT_LE(until, flip) << cmdName(cmd.type) << " at " << t
                           << " blocked by " << stallCauseName(why);
    if (cmd.type != CmdType::RefreshAll) {
        EXPECT_EQ(until, flip) << cmdName(cmd.type) << " at " << t
                               << " blocked by " << stallCauseName(why);
    }
}

/** A random command, biased toward ones the bank state admits. */
Command
randomCommand(const MemorySystem &mem, Rng &rng)
{
    Command cmd;
    cmd.at.channel = std::uint32_t(rng.below(kChannels));
    cmd.at.rank = std::uint32_t(rng.below(kRanks));
    cmd.at.bank = std::uint32_t(rng.below(kBanks));
    cmd.at.row = std::uint32_t(rng.below(kRows));
    cmd.accessId = 1 + rng.below(1000);
    const Bank &b = mem.bank(cmd.at);
    const std::uint64_t pick = rng.below(10);
    if (pick == 0) {
        cmd.type = CmdType::RefreshAll;
    } else if (pick == 1) {
        // Anything, state permitting or not.
        cmd.type = CmdType(rng.below(5));
    } else if (b.isOpen()) {
        if (pick < 8 && rng.chance(0.9))
            cmd.at.row = b.openRow();
        cmd.type = pick < 5   ? CmdType::Read
                   : pick < 8 ? CmdType::Write
                              : CmdType::Precharge;
    } else {
        cmd.type = CmdType::Activate;
    }
    return cmd;
}

/**
 * Activate every closed bank of one rank as early as allowed, probing
 * each activate on the way: the only pattern that makes tRRD and tFAW
 * bind back to back.
 */
void
activateStorm(MemorySystem &mem, Rng &rng, Tick &now, Coverage &stats)
{
    Command act;
    act.type = CmdType::Activate;
    act.at.channel = std::uint32_t(rng.below(kChannels));
    act.at.rank = std::uint32_t(rng.below(kRanks));
    for (std::uint32_t b = 0; b < kBanks; ++b) {
        act.at.bank = b;
        act.at.row = std::uint32_t(rng.below(kRows));
        const Tick ready = mem.readyAt(act, now);
        if (ready == kTickMax)
            continue;
        for (Tick t = now; t <= ready; ++t) {
            checkQueries(mem, act, t, stats);
            if (::testing::Test::HasFailure())
                return;
        }
        mem.issue(act, ready);
        now = ready;
    }
}

void
runSequence(const Timing &timing, PagePolicy policy, std::uint64_t seed,
            int steps)
{
    DramConfig cfg;
    cfg.channels = kChannels;
    cfg.ranksPerChannel = kRanks;
    cfg.banksPerRank = kBanks;
    cfg.rowsPerBank = 64;
    cfg.blocksPerRow = 32;
    cfg.timing = timing;
    cfg.pagePolicy = policy;
    MemorySystem mem(cfg);
    Rng rng(seed);

    Coverage stats;
    std::uint64_t issued[5] = {};
    Tick now = 0;
    for (int step = 0; step < steps; ++step) {
        if (rng.chance(0.05)) {
            const auto ch = std::uint32_t(rng.below(kChannels));
            const auto rank = std::uint32_t(rng.below(kRanks));
            mem.setRefreshDrain(ch, rank, rng.chance(0.15));
        }

        if (rng.chance(0.02)) {
            activateStorm(mem, rng, now, stats);
            if (::testing::Test::HasFailure())
                return;
        }

        for (int i = 0; i < 4; ++i) {
            const Command probe = randomCommand(mem, rng);
            checkQueries(mem, probe, now + rng.below(40), stats);
            if (::testing::Test::HasFailure())
                return;
        }

        // Issue one command the state admits, at (or just after) its
        // ready tick; readyAt is monotone-legal from there on.
        for (int attempt = 0; attempt < 32; ++attempt) {
            const Command cmd = randomCommand(mem, rng);
            const Tick ready = mem.readyAt(cmd, now);
            if (ready == kTickMax)
                continue;
            const Tick at = ready + rng.below(3);
            ASSERT_TRUE(mem.canIssue(cmd, at)) << cmdName(cmd.type);
            mem.issue(cmd, at);
            issued[std::size_t(cmd.type)] += 1;
            now = at;
            break;
        }
        now += rng.below(2);
    }

    // The walk must reach every command type and both kinds of stall.
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_GT(issued[i], 0u) << cmdName(CmdType(i));
    EXPECT_GT(stats.blocked, stats.probes / 10);
    EXPECT_GT(stats.gated, 0u);
    for (StallCause c : {StallCause::TimingCmdBus, StallCause::TimingTWTR,
                         StallCause::TimingDataBus,
                         StallCause::TimingTurnaround,
                         StallCause::TimingTRFC})
        EXPECT_GT(stats.causes[std::size_t(c)], 0u) << stallCauseName(c);
    if (timing.tFAW) {
        EXPECT_GT(stats.causes[std::size_t(StallCause::TimingTFAW)], 0u);
    }
}

} // namespace

TEST(Constraints, QueriesAgreeDdr2_800OpenPage)
{
    runSequence(Timing::ddr2_800(), PagePolicy::OpenPage, 1, 20000);
}

TEST(Constraints, QueriesAgreeDdr2_800ClosePageAuto)
{
    runSequence(Timing::ddr2_800(), PagePolicy::ClosePageAuto, 2, 20000);
}

TEST(Constraints, QueriesAgreeDdr266OpenPage)
{
    runSequence(Timing::ddr_266(), PagePolicy::OpenPage, 3, 20000);
}

TEST(Constraints, QueriesAgreeDdr266ClosePageAuto)
{
    runSequence(Timing::ddr_266(), PagePolicy::ClosePageAuto, 4, 20000);
}

TEST(Constraints, RefreshAllCauseCanOutliveBindingDeadline)
{
    // Two banks closed by precharges one tick apart: both block
    // RefreshAll with tRP. blockedUntil reports the first bank's
    // deadline even though the cause (tRP, now from the second bank)
    // holds one tick longer.
    DramConfig cfg;
    cfg.channels = 1;
    cfg.ranksPerChannel = 1;
    cfg.banksPerRank = 2;
    cfg.rowsPerBank = 64;
    cfg.blocksPerRow = 32;
    cfg.timing = Timing::ddr2_800();
    MemorySystem mem(cfg);
    const Timing &t = cfg.timing;
    Coords b0{0, 0, 0, 1, 0};
    Coords b1{0, 0, 1, 1, 0};
    mem.issue({CmdType::Activate, b0, 1}, 0);
    mem.issue({CmdType::Activate, b1, 2}, t.tRRD);
    const Tick pre0 = t.tRRD + t.tRAS;
    mem.issue({CmdType::Precharge, b0, 1}, pre0);
    mem.issue({CmdType::Precharge, b1, 2}, pre0 + 1);

    const Command ref{CmdType::RefreshAll, Coords{}, 0};
    const Tick probe = pre0 + 2;
    EXPECT_EQ(mem.whyBlocked(ref, probe), StallCause::TimingTRP);
    EXPECT_EQ(mem.blockedUntil(ref, probe), pre0 + t.tRP);
    EXPECT_EQ(mem.whyBlocked(ref, pre0 + t.tRP), StallCause::TimingTRP);
    EXPECT_EQ(mem.readyAt(ref, probe), pre0 + 1 + t.tRP);
}
