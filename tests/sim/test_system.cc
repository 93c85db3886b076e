/**
 * @file
 * Full-system tests: wiring, clock domains, completion and determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "obs/engine_introspect.hh"
#include "sim/system.hh"
#include "trace/spec_profiles.hh"
#include "trace/trace_gen.hh"

using namespace bsim;
using namespace bsim::sim;

namespace
{

trace::WorkloadProfile
lightProfile()
{
    trace::WorkloadProfile p;
    p.name = "light";
    p.memFraction = 0.3;
    p.writeFraction = 0.3;
    p.hotFraction = 0.5;
    p.seqFraction = 0.6;
    p.footprintBytes = 32ULL << 20;
    return p;
}

} // namespace

TEST(System, RunsWorkloadToCompletion)
{
    trace::SyntheticGenerator gen(lightProfile(), 5000, 1);
    System sys(SystemConfig::baseline(), gen);
    sys.run(2'000'000);
    EXPECT_TRUE(sys.done());
    EXPECT_EQ(sys.core().retired(), 5000u);
    EXPECT_GT(sys.execCpuCycles(), 0u);
    EXPECT_LE(sys.execCpuCycles(), sys.cpuCycles());
}

TEST(System, ClockDomainRatioHolds)
{
    trace::SyntheticGenerator gen(lightProfile(), 2000, 1);
    System sys(SystemConfig::baseline(), gen);
    sys.run(1'000'000);
    ASSERT_TRUE(sys.done());
    // 10 CPU cycles per memory cycle (4 GHz / 400 MHz).
    EXPECT_NEAR(double(sys.cpuCycles()) / double(sys.memCycles()), 10.0,
                0.1);
}

TEST(System, DeterministicAcrossRuns)
{
    trace::SyntheticGenerator g1(lightProfile(), 3000, 7);
    trace::SyntheticGenerator g2(lightProfile(), 3000, 7);
    System a(SystemConfig::baseline(), g1);
    System b(SystemConfig::baseline(), g2);
    a.run(2'000'000);
    b.run(2'000'000);
    EXPECT_EQ(a.execCpuCycles(), b.execCpuCycles());
    EXPECT_EQ(a.controller().stats().reads, b.controller().stats().reads);
    EXPECT_EQ(a.controller().stats().writes,
              b.controller().stats().writes);
    EXPECT_DOUBLE_EQ(a.controller().stats().readLatency.mean(),
                     b.controller().stats().readLatency.mean());
}

TEST(System, MechanismChangesTimingNotTraffic)
{
    // Different schedulers must serve exactly the same miss stream (the
    // CPU side is timing-dependent, so allow small variation in counts
    // but require identical retired instructions).
    trace::SyntheticGenerator g1(lightProfile(), 3000, 7);
    trace::SyntheticGenerator g2(lightProfile(), 3000, 7);
    SystemConfig c1 = SystemConfig::baseline();
    SystemConfig c2 = SystemConfig::baseline();
    c2.ctrl.mechanism = ctrl::Mechanism::BurstTH;
    System a(c1, g1);
    System b(c2, g2);
    a.run(2'000'000);
    b.run(2'000'000);
    EXPECT_EQ(a.core().retired(), b.core().retired());
}

TEST(System, MemPortRespectsQueueCap)
{
    trace::SyntheticGenerator gen(lightProfile(), 1000, 1);
    SystemConfig cfg = SystemConfig::baseline();
    cfg.memQueueCap = 2;
    System sys(cfg, gen);
    EXPECT_TRUE(sys.canSend(2));
    sys.sendRead(0);
    EXPECT_TRUE(sys.canSend(1));
    EXPECT_FALSE(sys.canSend(2));
    sys.sendWrite(64);
    EXPECT_FALSE(sys.canSend(1));
}

TEST(System, BaselineMatchesTable3)
{
    const SystemConfig cfg = SystemConfig::baseline();
    EXPECT_EQ(cfg.core.issueWidth, 8u);
    EXPECT_EQ(cfg.core.robSize, 196u);
    EXPECT_EQ(cfg.core.lsqSize, 32u);
    EXPECT_EQ(cfg.caches.l1d.sizeBytes, 128u * 1024);
    EXPECT_EQ(cfg.caches.l1d.assoc, 2u);
    EXPECT_EQ(cfg.caches.l2.sizeBytes, 2u * 1024 * 1024);
    EXPECT_EQ(cfg.caches.l2.assoc, 16u);
    EXPECT_EQ(cfg.dram.channels, 2u);
    EXPECT_EQ(cfg.dram.ranksPerChannel, 4u);
    EXPECT_EQ(cfg.dram.banksPerRank, 4u);
    EXPECT_EQ(cfg.dram.totalBanks(), 32u);
    EXPECT_EQ(cfg.ctrl.poolCap, 256u);
    EXPECT_EQ(cfg.ctrl.writeCap, 64u);
    EXPECT_EQ(cfg.dram.pagePolicy, dram::PagePolicy::OpenPage);
    EXPECT_EQ(cfg.dram.addressMap, dram::AddressMapKind::PageInterleave);
    EXPECT_EQ(cfg.cpuCyclesPerMemCycle, 10u);
}

TEST(System, RunCapStopsEarly)
{
    trace::SyntheticGenerator gen(lightProfile(), 100000, 1);
    System sys(SystemConfig::baseline(), gen);
    const Tick ran = sys.run(100);
    EXPECT_EQ(ran, 100u);
    EXPECT_FALSE(sys.done());
}

TEST(SkipHorizon, BoundedControllerScanIsExact)
{
    // System::skipHorizon hands the controller the horizon a core wake
    // or a response already set; at or below now the controller then
    // skips its scheduler horizons and metrics epoch, which never
    // return below now. Pending reads and the refresh mirror are still
    // scanned because they can: on a refresh-heavy device a rank whose
    // deadline passed while another rank refreshed reports that past
    // deadline. At every tick, a scan bounded at now must win the
    // caller's strict-< compare exactly when the full scan would, with
    // the same horizon and wake source.
    bool past_deadline = false;
    for (ctrl::Mechanism m :
         {ctrl::Mechanism::BkInOrder, ctrl::Mechanism::RowHit,
          ctrl::Mechanism::IntelRP, ctrl::Mechanism::BurstTH}) {
        SystemConfig cfg = SystemConfig::baseline();
        cfg.ctrl.mechanism = m;
        dram::Timing &t = cfg.dram.timing;
        t.tREFI = 2 * t.tRFC; // rank deadlines fall inside refreshes
        trace::SyntheticGenerator gen(trace::profileByName("swim"), 4000, 1);
        System sys(cfg, gen);
        while (!sys.done() && sys.memCycles() < 100'000) {
            sys.run(1); // one tick, then a horizon capped at that tick
            const Tick now = sys.memCycles();
            ctrl::MemoryController &mc = sys.controller();
            obs::WakeSource full_src, src;
            const Tick full = mc.nextEventTick(now, &full_src);
            const Tick got = mc.nextEventTick(now, &src, now);
            past_deadline = past_deadline || full < now;
            ASSERT_EQ(got < now, full < now)
                << ctrl::mechanismName(m) << " at " << now;
            if (full < now) {
                EXPECT_EQ(got, full);
                EXPECT_EQ(src.reason, full_src.reason);
                EXPECT_EQ(src.channel, full_src.channel);
            }
        }
        EXPECT_TRUE(sys.done()) << ctrl::mechanismName(m);
    }
    EXPECT_TRUE(past_deadline);
}
