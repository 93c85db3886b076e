#include "ctrl/scheduler.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/engine_introspect.hh"
#include "obs/stall_attribution.hh"

namespace bsim::ctrl
{

dram::StallCause
Scheduler::stallScan(Tick now, obs::StallAttribution &sink) const
{
    (void)now;
    (void)sink;
    stallVictim_ = nullptr; // coarse split: no specific access visible
    return hasWork() ? dram::StallCause::ArbLoss
                     : dram::StallCause::NoWork;
}

void
Scheduler::noteBoundHit() const
{
    intro_->noteFrontHorizonHit();
}

void
Scheduler::recomputeBound(std::uint32_t b, const MemAccess *a) const
{
    if (cacheOn()) {
        boundEpoch_[b] = cmdEpoch_;
        if (intro_)
            intro_->noteFrontHorizonMiss();
    }
    obs::prof::Scope prof(obs::prof::Phase::TimingCheck);
    bounds_[b] = ctx_.mem->constraints({nextCmd(a), a->coords, a->id});
    boundMax_[b] = bounds_[b].latest();
}

Scheduler::Issued
Scheduler::issueFor(MemAccess *a, Tick now)
{
    // Any command on this channel can move other banks' deadlines
    // (command bus, tRRD/tFAW, tWTR, data-bus occupancy).
    invalidateBounds();
    const dram::CmdType type = nextCmd(a);
    if (a->firstCmdAt == kTickMax) {
        a->firstCmdAt = now;
        if (a->pickedAt == kTickMax)
            a->pickedAt = now; // no explicit arbitration step
        a->outcome = ctx_.mem->classify(a->coords);
        a->outcomeValid = true;
    }

    dram::Command cmd{type, a->coords, a->id};
    const dram::IssueResult res = ctx_.mem->issue(cmd, now);

    Issued out;
    out.access = a;
    out.cmd = type;
    if (dram::isColumnAccess(type)) {
        out.columnAccess = true;
        out.dataStart = res.dataStart;
        out.dataEnd = res.dataEnd;
        a->colIssuedAt = now;
        a->dataStart = res.dataStart;
        a->dataEnd = res.dataEnd;
        if (a->isWrite())
            noteWriteIssued(a);
    }
    return out;
}

} // namespace bsim::ctrl
