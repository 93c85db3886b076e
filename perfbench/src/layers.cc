#include "layers.hh"

#include <algorithm>
#include <deque>

#include "common/rng.hh"
#include "cpu/cache_hierarchy.hh"
#include "dram/memory_system.hh"
#include "sim/system.hh"

namespace perfbench
{

namespace b = bsim;

double
clockPairNs()
{
    static const double cost = [] {
        std::vector<std::uint64_t> samples;
        for (int rep = 0; rep < 21; ++rep) {
            constexpr int kPairs = 2000;
            const auto t0 = Clock::now();
            std::uint64_t sink = 0;
            for (int i = 0; i < kPairs; ++i)
                sink += nsSince(Clock::now());
            const std::uint64_t total = nsSince(t0);
            samples.push_back(total / kPairs + (sink & 0));
        }
        std::sort(samples.begin(), samples.end());
        return double(samples[samples.size() / 2]);
    }();
    return cost;
}

TimedScheduler::TimedScheduler(const b::ctrl::SchedulerContext &ctx,
                               std::unique_ptr<b::ctrl::Scheduler> inner,
                               SchedTimes &times)
    : Scheduler(ctx), inner_(std::move(inner)), times_(times)
{
}

b::ctrl::Scheduler::Issued
TimedScheduler::tick(b::Tick now)
{
    const auto t0 = Clock::now();
    const Issued issued = inner_->tick(now);
    times_.tickNs += nsSince(t0);
    times_.tickCalls += 1;
    return issued;
}

b::Tick
TimedScheduler::nextEventTick(b::Tick now) const
{
    const auto t0 = Clock::now();
    const b::Tick t = inner_->nextEventTick(now);
    times_.horizonNs += nsSince(t0);
    times_.horizonCalls += 1;
    pin_ = inner_->lastHorizonPin();
    return t;
}

b::dram::StallCause
TimedScheduler::stallScan(b::Tick now, b::obs::StallAttribution &sink) const
{
    const auto t0 = Clock::now();
    const b::dram::StallCause c = inner_->stallScan(now, sink);
    times_.scanNs += nsSince(t0);
    times_.scanCalls += 1;
    return c;
}

std::uint64_t
generate(const b::trace::WorkloadProfile &prof, std::uint64_t seed,
         std::uint64_t length, std::vector<MemOp> *ops)
{
    b::trace::SyntheticGenerator gen(prof, length, seed);
    b::trace::TraceInstr in;
    std::uint64_t n = 0;
    while (gen.next(in)) {
        ++n;
        if (ops && in.op != b::trace::TraceInstr::Op::Compute)
            ops->push_back({in.addr, in.op == b::trace::TraceInstr::Op::Store});
    }
    return n;
}

namespace
{

/** Memory port that accepts everything and queues fills in order. */
class ReplayPort : public b::cpu::MemPort
{
  public:
    bool canSend(unsigned) const override { return true; }
    void sendRead(b::Addr block, bool) override { fills.push_back(block); }
    void sendWrite(b::Addr) override {}

    std::deque<b::Addr> fills;
};

/** Accesses a fill stays in flight (well under the 32 MSHRs). */
constexpr std::size_t kFillDelay = 16;

/**
 * runExperiment's cache prewarm (prewarmCaches in sim/experiment.cc,
 * which the library does not export): the profile's hot set resident,
 * its hottest prefix in L1, and the rest of L2 filled with alternating
 * dirty write-stream and clean read-stream blocks.
 */
void
prewarm(b::cpu::CacheHierarchy &h, const b::trace::SyntheticGenerator &gen,
        std::uint64_t seed)
{
    const b::trace::WorkloadProfile &p = gen.profile();
    const std::uint64_t blk = h.l1d().config().blockBytes;
    b::Rng rng(seed ^ 0x5eedcafe);
    const std::uint64_t l1Blocks = h.l1d().config().sizeBytes / blk;
    const std::uint64_t hotBlocks = p.hotBytes / blk;
    for (std::uint64_t i = 0; i < hotBlocks; ++i)
        h.prefill(p.regionBase + i * blk, rng.chance(p.writeFraction),
                  i < l1Blocks);
    const std::uint64_t l2Blocks = h.l2().config().sizeBytes / blk;
    const std::uint64_t budget = l2Blocks > hotBlocks ? l2Blocks - hotBlocks
                                                      : 0;
    std::uint32_t ws = 0, rs = 0;
    std::uint64_t woff = 0, roff = 0;
    for (std::uint64_t i = 0; i < budget; ++i) {
        if (i % 2 == 0) {
            h.prefill(gen.writeStreamBase(ws) + woff, true);
            ws = (ws + 1) % p.numWriteStreams;
            woff += ws == 0 ? blk : 0;
        } else {
            h.prefill(gen.readStreamBase(rs) + roff, false);
            rs = (rs + 1) % p.numStreams;
            roff += rs == 0 ? blk : 0;
        }
    }
}

} // namespace

CacheReplay
replayCaches(const b::trace::WorkloadProfile &prof, std::uint64_t seed,
             std::uint64_t length, const std::vector<MemOp> &ops)
{
    ReplayPort port;
    b::cpu::CacheHierarchy h(b::sim::SystemConfig::baseline().caches, port);
    prewarm(h, b::trace::SyntheticGenerator(prof, length, seed), seed);
    CacheReplay out;
    const auto t0 = Clock::now();
    std::uint64_t id = 0;
    for (const MemOp &op : ops) {
        const std::uint64_t waiter = op.write ? b::cpu::kNoWaiter : id;
        while (h.access(op.addr, op.write, waiter).outcome ==
                   b::cpu::CacheOutcome::Retry &&
               !port.fills.empty()) {
            h.onMemResponse(port.fills.front());
            port.fills.pop_front();
        }
        ++id;
        while (port.fills.size() > kFillDelay) {
            h.onMemResponse(port.fills.front());
            port.fills.pop_front();
        }
    }
    for (b::Addr block : port.fills)
        h.onMemResponse(block);
    out.ns = nsSince(t0);
    out.accesses = ops.size();
    out.merges = h.mshrMerges();
    return out;
}

namespace
{

/** Replay @p cmds; with @p query, ask the four legality questions
 *  before each issue. Returns host ns. */
std::uint64_t
replayOnce(const std::vector<b::dram::CommandRecord> &cmds, bool query,
           bool &legal)
{
    b::dram::MemorySystem mem(b::sim::SystemConfig::baseline().dram);
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    for (const b::dram::CommandRecord &rec : cmds) {
        const b::dram::Command cmd{rec.type, rec.coords, rec.accessId};
        if (query) {
            legal &= mem.canIssue(cmd, rec.at);
            sink += mem.readyAt(cmd, rec.at);
            sink += std::uint64_t(mem.whyBlocked(cmd, rec.at));
            sink += mem.blockedUntil(cmd, rec.at);
            if (!legal)
                break; // issuing an illegal command would abort
        }
        mem.issue(cmd, rec.at);
    }
    const std::uint64_t ns = nsSince(t0);
    volatile std::uint64_t keep = sink;
    (void)keep;
    return ns;
}

} // namespace

DramReplay
replayDram(const std::vector<b::dram::CommandRecord> &cmds)
{
    DramReplay out;
    out.commands = cmds.size();
    const std::uint64_t with = replayOnce(cmds, true, out.legal);
    if (!out.legal)
        return out;
    bool unused = true;
    const std::uint64_t without = replayOnce(cmds, false, unused);
    out.queryNs = with > without ? with - without : 0;
    return out;
}

} // namespace perfbench
