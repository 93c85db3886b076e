/**
 * @file
 * Out-of-order core model tests: issue/retire, ROB and LSQ capacity,
 * memory blocking, dependence chains and store back-pressure.
 */

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "cpu/core.hh"
#include "trace/instr.hh"

using namespace bsim;
using namespace bsim::cpu;
using trace::TraceInstr;

namespace
{

struct FakePort : MemPort
{
    bool
    canSend(unsigned n) const override
    {
        return blocked ? false : pending.size() + n <= 64;
    }
    void sendRead(Addr a, bool) override { pending.push_back(a); }
    void sendWrite(Addr a) override { writes.push_back(a); }

    std::deque<Addr> pending;
    std::vector<Addr> writes;
    bool blocked = false;
};

struct ListTrace : trace::TraceSource
{
    bool
    next(TraceInstr &out) override
    {
        if (pos >= instrs.size())
            return false;
        out = instrs[pos++];
        return true;
    }
    std::vector<TraceInstr> instrs;
    std::size_t pos = 0;
};

TraceInstr
compute()
{
    return {TraceInstr::Op::Compute, 0, false, 0};
}

TraceInstr
load(Addr a, bool chain = false, std::uint8_t chain_id = 0)
{
    return {TraceInstr::Op::Load, a, chain, chain_id};
}

TraceInstr
store(Addr a)
{
    return {TraceInstr::Op::Store, a, false, 0};
}

struct Fixture
{
    explicit Fixture(std::uint32_t mshrs = 8)
    {
        HierarchyConfig hcfg;
        hcfg.l1d = {512, 2, 64};
        hcfg.l2 = {2048, 2, 64};
        hcfg.mshrs = mshrs;
        hier = std::make_unique<CacheHierarchy>(hcfg, port);
    }

    /** Unblock the port and report it, as the MemPort contract asks. */
    void
    unblock()
    {
        port.blocked = false;
        hier->capacityFreed();
    }

    void
    makeCore(std::vector<TraceInstr> instrs, CoreConfig cfg = {})
    {
        tracesrc.instrs = std::move(instrs);
        core = std::make_unique<Core>(cfg, *hier, tracesrc);
    }

    struct Resp
    {
        std::uint64_t at;
        Addr addr;
    };

    /** Run CPU cycles, answering memory after @p mem_latency cycles. */
    void
    run(std::uint64_t max_cycles, std::uint64_t mem_latency = 50)
    {
        for (; now < max_cycles && !core->done(); ++now) {
            while (!due.empty() && due.front().at <= now) {
                core->onMemResponse(due.front().addr, now);
                due.pop_front();
            }
            while (!port.pending.empty()) {
                due.push_back({now + mem_latency, port.pending.front()});
                port.pending.pop_front();
            }
            core->cpuCycle(now);
        }
    }

    FakePort port;
    std::unique_ptr<CacheHierarchy> hier;
    ListTrace tracesrc;
    std::unique_ptr<Core> core;
    std::uint64_t now = 0;
    std::deque<Resp> due;
};

} // namespace

TEST(Core, ComputeOnlyTraceRetiresAtIssueWidth)
{
    Fixture f;
    std::vector<TraceInstr> t(800, compute());
    f.makeCore(t);
    f.run(100000);
    EXPECT_TRUE(f.core->done());
    EXPECT_EQ(f.core->retired(), 800u);
    // 8-wide with a 196 ROB: must take roughly 800/8 cycles, far fewer
    // than a serial machine would.
    EXPECT_LE(f.now, 800 / 8 + 220u);
}

TEST(Core, LoadMissBlocksRetirementUntilResponse)
{
    Fixture f;
    f.makeCore({load(0x10000), compute()});
    f.run(10, /*latency*/ 1000);
    EXPECT_FALSE(f.core->done());
    EXPECT_EQ(f.core->retired(), 0u) << "in-order retire must wait";
    f.run(5000, 100);
    EXPECT_TRUE(f.core->done());
    EXPECT_EQ(f.core->retired(), 2u);
}

TEST(Core, IndependentMissesOverlap)
{
    Fixture f;
    // 8 independent loads to distinct blocks: all must be outstanding
    // together (memory-level parallelism through the ROB window).
    std::vector<TraceInstr> t;
    for (int i = 0; i < 8; ++i)
        t.push_back(load(Addr(0x10000 + 64 * i)));
    f.makeCore(t);
    // Issue only; do not respond yet.
    for (int c = 0; c < 5; ++c)
        f.core->cpuCycle(f.now++);
    EXPECT_EQ(f.port.pending.size(), 8u);
}

TEST(Core, DepChainSerializesLoads)
{
    Fixture f;
    std::vector<TraceInstr> t;
    for (int i = 0; i < 4; ++i)
        t.push_back(load(Addr(0x20000 + 4096 * i), /*chain*/ true, 0));
    f.makeCore(t);
    for (int c = 0; c < 5; ++c)
        f.core->cpuCycle(f.now++);
    // Only the head of the chain may access memory.
    EXPECT_EQ(f.port.pending.size(), 1u);
    f.run(100000, 40);
    EXPECT_TRUE(f.core->done());
    // Serialized: total time at least 4 x 40 CPU cycles.
    EXPECT_GE(f.now, 160u);
}

TEST(Core, IndependentChainsOverlap)
{
    Fixture f;
    std::vector<TraceInstr> t;
    for (int i = 0; i < 4; ++i)
        t.push_back(load(Addr(0x20000 + 4096 * i), true,
                         std::uint8_t(i % 2)));
    f.makeCore(t);
    for (int c = 0; c < 5; ++c)
        f.core->cpuCycle(f.now++);
    EXPECT_EQ(f.port.pending.size(), 2u) << "one access per chain";
}

TEST(Core, RobCapacityLimitsIssue)
{
    Fixture f;
    CoreConfig cfg;
    cfg.robSize = 16;
    cfg.lsqSize = 16;
    std::vector<TraceInstr> t(100, compute());
    t.insert(t.begin(), load(0x30000)); // blocks retirement
    f.makeCore(t, cfg);
    for (int c = 0; c < 50; ++c)
        f.core->cpuCycle(f.now++);
    EXPECT_EQ(f.core->robOccupancy(), 16u);
    EXPECT_EQ(f.core->retired(), 0u);
}

TEST(Core, LsqCapacityLimitsMemOps)
{
    Fixture f;
    CoreConfig cfg;
    cfg.lsqSize = 4;
    std::vector<TraceInstr> t;
    t.push_back(load(0x40000)); // miss blocks retire
    for (int i = 0; i < 20; ++i)
        t.push_back(load(Addr(0x40000 + 64 * i)));
    f.makeCore(t, cfg);
    for (int c = 0; c < 50; ++c)
        f.core->cpuCycle(f.now++);
    EXPECT_LE(f.hier->mshrsInUse(), 4u);
    EXPECT_LE(f.port.pending.size(), 4u);
}

TEST(Core, StorePerformsAtRetire)
{
    Fixture f;
    f.makeCore({store(0x50000)});
    f.run(10000, 20);
    EXPECT_TRUE(f.core->done());
    EXPECT_EQ(f.core->stores(), 1u);
    // Write-allocate: the store miss fetched its block.
    EXPECT_GE(f.hier->memReads(), 1u);
}

TEST(Core, BlockedMemoryStallsStoreRetirement)
{
    Fixture f;
    f.port.blocked = true;
    f.makeCore({store(0x50000), compute()});
    for (int c = 0; c < 100; ++c)
        f.core->cpuCycle(f.now++);
    EXPECT_EQ(f.core->retired(), 0u);
    EXPECT_GT(f.core->storeStallCycles(), 0u);
    f.unblock();
    f.run(10000, 20);
    EXPECT_TRUE(f.core->done());
}

TEST(Core, ParkedStoreHeadWaitsForFreedCapacity)
{
    Fixture f;
    f.port.blocked = true;
    f.makeCore({store(0x50000), compute()});
    for (int c = 0; c < 10; ++c)
        f.core->cpuCycle(f.now++);
    // Cycle 0 issues; the store is ready and refused from cycle 1 on.
    EXPECT_EQ(f.core->storeStallCycles(), 9u);
    EXPECT_EQ(f.core->retryCycles(RetryCause::FsbFull), 9u);
    EXPECT_EQ(f.core->retryCycles(RetryCause::MshrFull), 0u);
    // The refusal counted nothing and the parked head is not re-probed.
    EXPECT_EQ(f.hier->l1d().misses(), 0u);
    EXPECT_EQ(f.hier->counters().accesses, 0u);
    // Parked behind the port, the core is quiescent with no local wakeup.
    EXPECT_TRUE(f.core->parked());
    EXPECT_TRUE(f.core->quiescentAt(f.now));
    EXPECT_EQ(f.core->nextLocalEventCpu(f.now), kTickMax);
    // Bulk-skipped cycles count exactly as stepped ones would.
    f.core->skipStallCycles(5);
    EXPECT_EQ(f.core->storeStallCycles(), 14u);
    EXPECT_EQ(f.core->retryCycles(RetryCause::FsbFull), 14u);

    f.unblock();
    EXPECT_FALSE(f.core->quiescentAt(f.now));
    f.core->cpuCycle(f.now++);
    EXPECT_EQ(f.core->stores(), 1u);
    EXPECT_FALSE(f.core->parked());
    EXPECT_EQ(f.hier->memReads(), 1u);
    EXPECT_EQ(f.core->storeStallCycles(), 14u);
}

TEST(Core, ParkedLoadsWakeInSeqOrder)
{
    Fixture f(/*mshrs*/ 2);
    f.port.blocked = true;
    f.makeCore({load(0x10000), load(0x20000), load(0x30000), compute()});
    for (int c = 0; c < 5; ++c)
        f.core->cpuCycle(f.now++);
    EXPECT_TRUE(f.port.pending.empty());
    EXPECT_EQ(f.core->retryCycles(RetryCause::FsbFull), 5u);

    // Capacity for two fills: the two oldest loads take it, in order.
    f.unblock();
    f.core->cpuCycle(f.now++);
    ASSERT_EQ(f.port.pending.size(), 2u);
    EXPECT_EQ(f.port.pending[0], 0x10000u);
    EXPECT_EQ(f.port.pending[1], 0x20000u);
    EXPECT_TRUE(f.core->parked());
    EXPECT_EQ(f.core->retryCycles(RetryCause::MshrFull), 1u);

    // Still parked while the MSHRs stay full, however many cycles pass.
    for (int c = 0; c < 5; ++c)
        f.core->cpuCycle(f.now++);
    EXPECT_EQ(f.port.pending.size(), 2u);
    EXPECT_EQ(f.core->retryCycles(RetryCause::MshrFull), 6u);

    // An MSHR release wakes the last one.
    f.core->onMemResponse(0x10000, f.now);
    f.core->cpuCycle(f.now++);
    ASSERT_EQ(f.port.pending.size(), 3u);
    EXPECT_EQ(f.port.pending[2], 0x30000u);
    EXPECT_FALSE(f.core->parked());
}

TEST(Core, WokenLoadMergesIntoBlockAnEarlierWokenLoadFetched)
{
    Fixture f(/*mshrs*/ 1);
    f.port.blocked = true;
    // X, Y, then X again (same block, other word).
    f.makeCore({load(0x10000), load(0x20000), load(0x10008)});
    for (int c = 0; c < 3; ++c)
        f.core->cpuCycle(f.now++);
    f.unblock();
    f.core->cpuCycle(f.now++);
    // The first X takes the only MSHR, Y is refused again, and the
    // second X still merges in the same cycle.
    ASSERT_EQ(f.port.pending.size(), 1u);
    EXPECT_EQ(f.port.pending[0], 0x10000u);
    EXPECT_EQ(f.hier->mshrMerges(), 1u);
    EXPECT_EQ(f.hier->onMemResponse(0x10000).size(), 2u);
}

TEST(Core, CacheHitLoadsRetireQuickly)
{
    Fixture f;
    f.hier->prefill(0x60000, false, /*l1*/ true);
    f.makeCore({load(0x60000), compute()});
    f.run(100, 1000);
    EXPECT_TRUE(f.core->done());
    EXPECT_EQ(f.core->loads(), 1u);
}

TEST(Core, DoneOnlyAfterRobDrains)
{
    Fixture f;
    f.makeCore({load(0x70000)});
    f.run(3, 1000000);
    EXPECT_FALSE(f.core->done());
    EXPECT_EQ(f.core->robOccupancy(), 1u);
}

TEST(Core, HeadStallsCounted)
{
    Fixture f;
    f.makeCore({load(0x80000), compute()});
    f.run(30, 10000);
    EXPECT_GT(f.core->headStallCycles(), 0u);
}

TEST(Core, ChainAcrossRetiredProducerStartsImmediately)
{
    Fixture f;
    std::vector<TraceInstr> t;
    t.push_back(load(0x90000, true, 0));
    for (int i = 0; i < 300; ++i)
        t.push_back(compute());
    t.push_back(load(0x94000, true, 0)); // producer long retired
    f.makeCore(t);
    f.run(100000, 30);
    EXPECT_TRUE(f.core->done());
    EXPECT_EQ(f.core->retired(), 302u);
}
