#include "ctrl/schedulers/bk_in_order.hh"

#include <algorithm>

#include "obs/engine_introspect.hh"
#include "obs/stall_attribution.hh"

namespace bsim::ctrl
{

BkInOrderScheduler::BkInOrderScheduler(const SchedulerContext &ctx)
    : Scheduler(ctx), queues_(numBanks())
{
}

void
BkInOrderScheduler::enqueue(MemAccess *a)
{
    const std::uint32_t b = bankIndex(a->coords);
    if (queues_[b].empty())
        clearBound(b); // a new front: cached bound describes nothing
    queues_[b].push_back(a);
    occupied_.set(b);
    if (a->isWrite()) {
        writes_ += 1;
        noteWriteEnqueued(a);
    } else {
        reads_ += 1;
    }
}

Scheduler::Issued
BkInOrderScheduler::tick(Tick now)
{
    // Round robin over the non-empty FIFOs (occupied); there is no
    // arbiter, so a dirty bank only widens the scan to an empty one.
    Issued out;
    BankMask::anyFrom(occupied_, dirty_, (rr_ + 1) % numBanks(),
                      [&](std::uint32_t b) {
        auto &q = queues_[b];
        if (q.empty())
            return false;
        MemAccess *a = q.front();
        if (bankBound(b, a, now) > now)
            return false;
        out = issueFor(a, now);
        if (out.columnAccess) {
            q.pop_front();
            if (q.empty())
                occupied_.reset(b);
            if (a->isWrite())
                writes_ -= 1;
            else
                reads_ -= 1;
            rr_ = b; // round robin advances on completed service
        }
        return true;
    });
    dirty_.clear();
    return out;
}

bool
BkInOrderScheduler::hasWork() const
{
    return reads_ + writes_ > 0;
}

dram::StallCause
BkInOrderScheduler::stallScan(Tick now, obs::StallAttribution &sink) const
{
    // Every non-empty bank FIFO has exactly one candidate: its front.
    // The channel-level cause is whatever blocks the oldest of them.
    dram::StallCause channel_cause = dram::StallCause::NoWork;
    Tick oldest = kTickMax;
    stallVictim_ = nullptr;
    for (std::uint32_t b = 0; b < std::uint32_t(queues_.size()); ++b) {
        const auto &q = queues_[b];
        if (q.empty())
            continue;
        const MemAccess *a = q.front();
        dram::StallCause c = blockOf(b, a, now);
        if (c == dram::StallCause::None)
            c = dram::StallCause::ArbLoss; // issuable, but not picked
        sink.noteBankStall(ctx_.channel, b, c);
        if (a->arrival < oldest) {
            oldest = a->arrival;
            channel_cause = c;
            stallVictim_ = a;
        }
    }
    return channel_cause;
}

Tick
BkInOrderScheduler::nextEventTick(Tick now) const
{
    // An idle tick changes nothing (rr_ moves only on issue), so the
    // horizon is simply when the first bank front's issue bound lands.
    // Bank fronts are the only candidates this policy ever considers;
    // tick()'s failed probes already filled the bound cache, so this
    // scan is mostly compares.
    obs::prof::Scope prof(obs::prof::Phase::SchedHorizon);
    pin_ = HorizonPin::Timing;
    Tick horizon = kTickMax;
    if (occupied_.anyOf([&](std::uint32_t b) {
            horizon = std::min(horizon, bankBound(b, queues_[b].front(), now));
            return horizon <= now;
        }))
        return now;
    if (horizon == kTickMax)
        pin_ = HorizonPin::None;
    return horizon;
}

void
BkInOrderScheduler::queueOccupancy(std::vector<std::uint32_t> &reads,
                                   std::vector<std::uint32_t> &writes) const
{
    for (const auto &q : queues_) {
        std::uint32_t r = 0, w = 0;
        for (const MemAccess *a : q)
            (a->isWrite() ? w : r) += 1;
        reads.push_back(r);
        writes.push_back(w);
    }
}

} // namespace bsim::ctrl
