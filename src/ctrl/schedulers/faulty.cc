#include "ctrl/schedulers/faulty.hh"

namespace bsim::ctrl
{

FaultyScheduler::FaultyScheduler(const SchedulerContext &ctx,
                                 std::unique_ptr<Scheduler> inner,
                                 std::uint64_t freezeAfter)
    : SchedulerDecorator(ctx, std::move(inner)), freezeAfter_(freezeAfter)
{
}

Scheduler::Issued
FaultyScheduler::tick(Tick now)
{
    if (frozen())
        return {};
    Issued issued = SchedulerDecorator::tick(now);
    if (issued.columnAccess)
        issued_ += 1;
    return issued;
}

std::map<std::string, double>
FaultyScheduler::extraStats() const
{
    auto stats = SchedulerDecorator::extraStats();
    stats["faultFrozen"] = frozen() ? 1.0 : 0.0;
    stats["faultIssued"] = double(issued_);
    return stats;
}

dram::StallCause
FaultyScheduler::stallScan(Tick now, obs::StallAttribution &sink) const
{
    if (frozen()) {
        stallVictim_ = nullptr; // frozen: nothing is being served
        return hasWork() ? dram::StallCause::ArbLoss
                         : dram::StallCause::NoWork;
    }
    return SchedulerDecorator::stallScan(now, sink);
}

Tick
FaultyScheduler::nextEventTick(Tick now) const
{
    if (frozen()) {
        pin_ = hasWork() ? HorizonPin::Conservative : HorizonPin::None;
        return hasWork() ? now : kTickMax;
    }
    return SchedulerDecorator::nextEventTick(now);
}

} // namespace bsim::ctrl
