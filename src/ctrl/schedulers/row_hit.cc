#include "ctrl/schedulers/row_hit.hh"

#include <algorithm>

#include "obs/stall_attribution.hh"

namespace bsim::ctrl
{

RowHitScheduler::RowHitScheduler(const SchedulerContext &ctx)
    : Scheduler(ctx), queues_(numBanks()), ongoing_(numBanks(), nullptr)
{
}

void
RowHitScheduler::enqueue(MemAccess *a)
{
    const std::uint32_t b = bankIndex(a->coords);
    queues_[b].push_back(a);
    dirty_.set(b);
    if (a->isWrite()) {
        writes_ += 1;
        noteWriteEnqueued(a);
    } else {
        reads_ += 1;
    }
}

void
RowHitScheduler::arbitrate(std::uint32_t b)
{
    auto &q = queues_[b];
    if (ongoing_[b] || q.empty())
        return;

    // Row hit first: the oldest access directed to the open row; when the
    // bank is closed or no queued access matches, fall back to the oldest.
    auto pick = q.begin();
    const dram::Bank &bank = ctx_.mem->bank(q.front()->coords);
    if (bank.isOpen()) {
        auto hit = std::find_if(q.begin(), q.end(), [&](MemAccess *a) {
            return a->coords.row == bank.openRow();
        });
        if (hit != q.end())
            pick = hit;
    }
    ongoing_[b] = *pick;
    occupied_.set(b);
    q.erase(pick);
    clearBound(b); // new probe candidate for this bank
}

Scheduler::Issued
RowHitScheduler::tick(Tick now)
{
    // Round robin over the banks holding an ongoing access or needing
    // arbitration (dirty: backlog and no ongoing access). A bank is
    // arbitrated when the scan reaches it, so the row-hit pick sees the
    // open row of that moment; the other banks would be no-ops.
    Issued out;
    BankMask::anyFrom(occupied_, dirty_, (rr_ + 1) % numBanks(),
                      [&](std::uint32_t b) {
        if (dirty_.test(b)) {
            dirty_.reset(b);
            arbitrate(b);
        }
        MemAccess *a = ongoing_[b];
        if (!a || bankBound(b, a, now) > now)
            return false;
        out = issueFor(a, now);
        if (out.columnAccess) {
            ongoing_[b] = nullptr;
            occupied_.reset(b);
            if (!queues_[b].empty())
                dirty_.set(b);
            if (a->isWrite())
                writes_ -= 1;
            else
                reads_ -= 1;
            rr_ = b;
        }
        return true;
    });
    return out;
}

bool
RowHitScheduler::hasWork() const
{
    return reads_ + writes_ > 0;
}

dram::StallCause
RowHitScheduler::stallScan(Tick now, obs::StallAttribution &sink) const
{
    // tick() already arbitrated every bank this cycle (it only returns
    // empty-handed after the full loop), so ongoing_ holds each bank's
    // chosen access and the queues hold pure backlog.
    dram::StallCause channel_cause = dram::StallCause::NoWork;
    Tick oldest = kTickMax;
    stallVictim_ = nullptr;
    for (std::uint32_t b = 0; b < std::uint32_t(ongoing_.size()); ++b) {
        const MemAccess *a = ongoing_[b];
        if (!a)
            continue;
        dram::StallCause c = blockOf(b, a, now);
        if (c == dram::StallCause::None)
            c = dram::StallCause::ArbLoss;
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
RowHitScheduler::nextEventTick(Tick now) const
{
    // A tick can still pull backlog into an empty ongoing slot, which is
    // a real arbitration state change — no skipping until every slot
    // with backlog is filled.
    obs::prof::Scope prof(obs::prof::Phase::SchedHorizon);
    if (dirty_.anyOf([&](std::uint32_t b) {
            return !ongoing_[b] && !queues_[b].empty();
        })) {
        pin_ = HorizonPin::ArbFill;
        return now;
    }
    pin_ = HorizonPin::Timing;
    Tick horizon = kTickMax;
    if (occupied_.anyOf([&](std::uint32_t b) {
            horizon = std::min(horizon, bankBound(b, ongoing_[b], now));
            return horizon <= now;
        }))
        return now;
    if (horizon == kTickMax)
        pin_ = HorizonPin::None;
    return horizon;
}

void
RowHitScheduler::queueOccupancy(std::vector<std::uint32_t> &reads,
                                std::vector<std::uint32_t> &writes) const
{
    for (std::uint32_t b = 0; b < queues_.size(); ++b) {
        std::uint32_t r = 0, w = 0;
        for (const MemAccess *a : queues_[b])
            (a->isWrite() ? w : r) += 1;
        if (const MemAccess *a = ongoing_[b])
            (a->isWrite() ? w : r) += 1;
        reads.push_back(r);
        writes.push_back(w);
    }
}

} // namespace bsim::ctrl
