/**
 * @file
 * Per-layer host-cost probes for the traced run.
 *
 *  - TimedScheduler: a ctrl::Scheduler decorator, installed through
 *    ExperimentConfig::schedulerFactory, that times every call of the
 *    scheduler's hot entry points and otherwise forwards verbatim.
 *  - Replays for the layers a run offers no seam into: trace generation
 *    (SyntheticGenerator::next), the cache hierarchy
 *    (CacheHierarchy::access / onMemResponse) over the memory ops of a
 *    point's input, and the DRAM legality queries (canIssue, readyAt,
 *    whyBlocked, blockedUntil) over the command stream a run recorded.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "ctrl/scheduler.hh"
#include "dram/command_log.hh"
#include "trace/trace_gen.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline std::uint64_t
nsSince(Clock::time_point t0)
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
}

/** Host cost of one clock read pair, measured at start-up (ns). */
double clockPairNs();

/** Scheduler call counts and summed host time of one point. */
struct SchedTimes
{
    std::uint64_t tickCalls = 0;
    std::uint64_t tickNs = 0;
    std::uint64_t horizonCalls = 0; //!< nextEventTick (bankBound inside)
    std::uint64_t horizonNs = 0;
    std::uint64_t scanCalls = 0; //!< stallScan (attribution runs only)
    std::uint64_t scanNs = 0;

    std::uint64_t calls() const { return tickCalls + horizonCalls + scanCalls; }
    std::uint64_t spanNs() const { return tickNs + horizonNs + scanNs; }
};

/** Times tick / nextEventTick / stallScan of the wrapped policy. */
class TimedScheduler : public bsim::ctrl::Scheduler
{
  public:
    TimedScheduler(const bsim::ctrl::SchedulerContext &ctx,
                   std::unique_ptr<bsim::ctrl::Scheduler> inner,
                   SchedTimes &times);

    Issued tick(bsim::Tick now) override;
    bsim::Tick nextEventTick(bsim::Tick now) const override;
    bsim::dram::StallCause
    stallScan(bsim::Tick now, bsim::obs::StallAttribution &sink) const override;

    void enqueue(bsim::ctrl::MemAccess *a) override { inner_->enqueue(a); }
    std::size_t readCount() const override { return inner_->readCount(); }
    std::size_t writeCount() const override { return inner_->writeCount(); }
    bool hasWork() const override { return inner_->hasWork(); }
    bsim::ctrl::MemAccess *findWrite(bsim::Addr block) const override
    {
        return inner_->findWrite(block);
    }
    std::map<std::string, double> extraStats() const override
    {
        return inner_->extraStats();
    }
    const bsim::ctrl::MemAccess *lastStallVictim() const override
    {
        return inner_->lastStallVictim();
    }
    void setEventDriven(bool on) override
    {
        Scheduler::setEventDriven(on);
        inner_->setEventDriven(on);
    }
    void onExternalCommand() override { inner_->onExternalCommand(); }
    void setHorizonMemo(bool on) override
    {
        Scheduler::setHorizonMemo(on);
        inner_->setHorizonMemo(on);
    }
    void setExactBounds(bool on) override
    {
        Scheduler::setExactBounds(on);
        inner_->setExactBounds(on);
    }
    std::uint64_t globalSignature() const override
    {
        return inner_->globalSignature();
    }
    bool globallySensitive() const override
    {
        return inner_->globallySensitive();
    }
    void onIdleSpan(bsim::Tick from, bsim::Tick span) override
    {
        inner_->onIdleSpan(from, span);
    }
    void setAuditor(bsim::obs::ProtocolAuditor *auditor) override
    {
        Scheduler::setAuditor(auditor);
        inner_->setAuditor(auditor);
    }
    void setIntrospect(bsim::obs::EngineIntrospect *intro) override
    {
        Scheduler::setIntrospect(intro);
        inner_->setIntrospect(intro);
    }
    void queueOccupancy(std::vector<std::uint32_t> &reads,
                        std::vector<std::uint32_t> &writes) const override
    {
        inner_->queueOccupancy(reads, writes);
    }

  private:
    std::unique_ptr<bsim::ctrl::Scheduler> inner_;
    SchedTimes &times_;
};

/** One load or store of an input trace. */
struct MemOp
{
    bsim::Addr addr = 0;
    bool write = false;
};

/** Generate the whole input; returns its instruction count, and when
 *  @p ops is non-null records its memory ops. */
std::uint64_t generate(const bsim::trace::WorkloadProfile &prof,
                       std::uint64_t seed, std::uint64_t length,
                       std::vector<MemOp> *ops);

/** Result of replaying memory ops through a cache hierarchy. */
struct CacheReplay
{
    std::uint64_t accesses = 0;
    std::uint64_t ns = 0;
    std::uint64_t merges = 0; //!< accesses merged into in-flight fills
};

/**
 * Replay @p ops, the memory ops of input (@p prof, @p seed, @p length),
 * through a Table-3 CacheHierarchy prewarmed as runExperiment prewarms
 * it for that input. Memory fills return after a fixed number of
 * further accesses, so in-flight blocks merge as they do in a run but
 * no access ever has to retry.
 */
CacheReplay replayCaches(const bsim::trace::WorkloadProfile &prof,
                         std::uint64_t seed, std::uint64_t length,
                         const std::vector<MemOp> &ops);

/** Result of replaying a recorded command stream. */
struct DramReplay
{
    std::uint64_t commands = 0;
    std::uint64_t queryNs = 0; //!< the four queries, all commands
    bool legal = true;         //!< every recorded command was issuable
};

/**
 * Replay @p cmds on a fresh baseline MemorySystem: before each issue,
 * ask canIssue, readyAt, whyBlocked and blockedUntil about it. The
 * query cost is the replay's time minus an issue-only replay's.
 */
DramReplay replayDram(const std::vector<bsim::dram::CommandRecord> &cmds);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
