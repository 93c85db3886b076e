#include "ctrl/schedulers/burst.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/protocol_audit.hh"
#include "obs/stall_attribution.hh"

namespace bsim::ctrl
{

BurstScheduler::BurstScheduler(const SchedulerContext &ctx)
    : Scheduler(ctx), banks_(numBanks()), cands_(numBanks())
{
}

void
BurstScheduler::enqueue(MemAccess *a)
{
    const std::uint32_t b = bankIndex(a->coords);
    BankState &bs = banks_[b];
    dirty_.set(b);
    if (a->isWrite()) {
        // Figure 4: all writes enter the write queue in order and are
        // complete from the view of the CPU.
        bs.writeQ.push_back(a);
        writes_ += 1;
        writeArrivals_ = writeArrivals_ * 0.999 + 1.0;
        noteWriteEnqueued(a);
        return;
    }

    reads_ += 1;
    readArrivals_ = readArrivals_ * 0.999 + 1.0;
    // Figure 4: join an existing burst for this row (bursts can grow even
    // while being scheduled), otherwise open a new single-access burst at
    // the tail of the read queue.
    for (auto &burst : bs.bursts) {
        if (burst.row == a->coords.row) {
            if (ctx_.params.criticalFirst && a->critical) {
                // Section 7: critical reads go ahead of the queued
                // non-critical reads of their burst (stable among
                // criticals; the in-service access is unaffected).
                auto pos = burst.reads.begin();
                while (pos != burst.reads.end() && (*pos)->critical)
                    ++pos;
                burst.reads.insert(pos, a);
            } else {
                burst.reads.push_back(a);
            }
            burstJoinCount_ += 1;
            return;
        }
    }
    Burst nb;
    nb.row = a->coords.row;
    nb.firstArrival = a->arrival;
    nb.reads.push_back(a);
    bs.bursts.push_back(std::move(nb));
    burstsFormed_ += 1;
}

std::size_t
BurstScheduler::effectiveThreshold() const
{
    if (!ctx_.params.dynamicThreshold)
        return ctx_.params.threshold;
    // Section 7 future work: adapt the preemption/piggyback switch point
    // to the workload's read/write mix. A write-heavy phase needs early
    // piggybacking (low threshold) to avoid saturation; a read-heavy
    // phase can afford aggressive preemption (high threshold).
    const double write_share =
        writeArrivals_ / (readArrivals_ + writeArrivals_);
    const double cap = double(ctx_.params.writeCap);
    const double th = cap * (1.0 - 1.25 * write_share);
    if (th < cap * 0.125)
        return std::size_t(cap * 0.125);
    if (th > cap - 4.0)
        return std::size_t(cap - 4.0);
    return std::size_t(th);
}

FlatQueue<MemAccess *>::iterator
BurstScheduler::findPiggybackWrite(std::uint32_t b)
{
    BankState &bs = banks_[b];
    const MemAccess *probe =
        !bs.writeQ.empty()
            ? bs.writeQ.front()
            : (bs.ongoing ? bs.ongoing : nullptr);
    if (!probe)
        return bs.writeQ.end();
    const dram::Bank &bank = ctx_.mem->bank(probe->coords);
    if (!bank.isOpen())
        return bs.writeQ.end();
    // Oldest write directed to the same row as the just-finished burst so
    // the continuous row hits are not disturbed (Section 3.2).
    return std::find_if(bs.writeQ.begin(), bs.writeQ.end(),
                        [&](MemAccess *w) {
                            return w->coords.row == bank.openRow();
                        });
}

bool
BurstScheduler::preemptDue(const BankState &bs) const
{
    // Figure 5 lines 9-11: while the write queue occupancy is below the
    // threshold, a read may interrupt an ongoing write.
    return ctx_.params.readPreemption && bs.ongoing &&
           bs.ongoing->isWrite() && !bs.bursts.empty() &&
           ctx_.global->writesOutstanding < effectiveThreshold();
}

void
BurstScheduler::maybePreempt(std::uint32_t b, Tick now)
{
    // The write returns to the head of the write queue and restarts
    // later.
    BankState &bs = banks_[b];
    MemAccess *a = bs.ongoing;
    if (!preemptDue(bs))
        return;
    if (auditor_)
        auditor_->notePreemption(now, ctx_.global->writesOutstanding,
                                 effectiveThreshold());
    bs.writeQ.push_front(a);
    bs.ongoing = nullptr;
    bs.ongoingFromBurst = false;
    clearBound(b);
    preemptions_ += 1;
    // Figure 5 line 11: the first read of the next burst starts now.
    arbitrate(b, now);
}

void
BurstScheduler::arbitrate(std::uint32_t b, Tick now)
{
    BankState &bs = banks_[b];
    if (bs.ongoing)
        return;

    const std::size_t global_writes = ctx_.global->writesOutstanding;
    const bool write_q_full = global_writes >= ctx_.params.writeCap;

    auto take_write = [&](FlatQueue<MemAccess *>::iterator it) {
        bs.ongoing = *it;
        bs.ongoingFromBurst = false;
        bs.writeQ.erase(it);
        clearBound(b);
    };

    // Figure 5, lines 1-8.
    if (write_q_full && !bs.writeQ.empty()) {
        take_write(bs.writeQ.begin()); // oldest write
        return;
    }
    if (ctx_.params.writePiggyback &&
        global_writes > effectiveThreshold() && bs.endOfBurst &&
        !bs.writeQ.empty()) {
        auto it = findPiggybackWrite(b);
        if (it != bs.writeQ.end()) {
            if (auditor_)
                auditor_->notePiggyback(now, global_writes,
                                        effectiveThreshold());
            take_write(it);
            piggybacks_ += 1;
            return;
        }
        // No qualified write: the next burst starts (fall through).
    }
    // Figure 5 line 6: writes are serviced only when no reads are
    // outstanding. Burst scheduling is more aggressive in prioritizing
    // reads over writes than Intel's scheduler (Section 5.1): the
    // condition is channel-wide, not per bank, so a single pending read
    // anywhere keeps every bank's writes postponed.
    if (!bs.writeQ.empty() && reads_ == 0) {
        take_write(bs.writeQ.begin());
        return;
    }
    if (!bs.bursts.empty()) {
        // Section 7 future work (sortBurstsBySize): start the largest
        // waiting burst instead of the oldest. A partially-served front
        // burst is never displaced (that would break its row hits);
        // starvation of small bursts is the documented tradeoff.
        if (ctx_.params.sortBurstsBySize && bs.bursts.size() > 1 &&
            !bs.frontStarted) {
            auto largest = bs.bursts.begin();
            for (auto it = bs.bursts.begin(); it != bs.bursts.end(); ++it)
                if (it->reads.size() > largest->reads.size())
                    largest = it;
            if (largest != bs.bursts.begin())
                std::swap(*largest, bs.bursts.front());
        }
        Burst &front = bs.bursts.front();
        if (front.reads.empty())
            panic("empty burst left in read queue");
        bs.ongoing = front.reads.front();
        front.reads.pop_front();
        clearBound(b);
        bs.ongoingFromBurst = true;
        bs.ongoingFirstOfBurst = !bs.frontStarted;
        bs.frontStarted = true;
        bs.endOfBurst = false;
    }
}

int
BurstScheduler::priorityOf(const Candidate &c, std::uint32_t b) const
{
    const bool read = c.read;
    if (dram::isColumnAccess(c.cmd)) {
        if (!lastValid_) {
            // Before any column access, rank locality is vacuous; treat as
            // same-rank so bursts can start.
            return read ? 2 : 4;
        }
        const bool rank_aware = ctx_.params.rankAware;
        const bool same_rank = !rank_aware || c.rank == lastRank_;
        const bool same_bank = c.rank == lastRank_ && b == lastBank_;
        if (same_rank) {
            if (read)
                return same_bank ? 1 : 2;
            return same_bank ? 3 : 4;
        }
        return read ? 7 : 8;
    }
    // Precharge and row activate do not require data bus resources and
    // overlap with column accesses.
    return read ? 5 : 6;
}

Scheduler::Issued
BurstScheduler::tick(Tick now)
{
    // Bank arbiters (Figure 5) including preemption checks. They run on
    // dirty banks only: a clean bank's inputs have not changed since
    // its arbiter last ran, so running it again would change nothing.
    syncSignature();
    dirty_.forEach([&](std::uint32_t b) {
        maybePreempt(b, now);
        arbitrate(b, now);
        BankState &bs = banks_[b];
        if (MemAccess *a = bs.ongoing) {
            // A preempted write keeps its original pick time.
            if (a->pickedAt == kTickMax)
                a->pickedAt = now;
            cands_[b] = {a, a->arrival, nextCmd(a), a->coords.rank,
                         a->isRead()};
            occupied_.set(b);
        } else {
            occupied_.reset(b);
        }
        if (!preemptDue(bs)) // a due preemption fires again next tick
            dirty_.reset(b);
    });

    // Transaction scheduler (Figure 6 with the Table 2 priorities):
    // among all banks' ongoing accesses pick the unblocked transaction
    // with the best priority; oldest first breaks ties.
    std::int32_t best = -1;
    int best_prio = 9;
    std::int32_t oldest = -1;
    occupied_.forEach([&](std::uint32_t b) {
        const Candidate &c = cands_[b];
        if (oldest < 0 || c.arrival < cands_[oldest].arrival)
            oldest = std::int32_t(b);
        const int prio = priorityOf(c, b);
        if (prio > best_prio ||
            (prio == best_prio && best >= 0 &&
             c.arrival >= cands_[best].arrival))
            return;
        if (bankBound(b, c.access, now) > now)
            return;
        best = std::int32_t(b);
        best_prio = prio;
    });
    oldest_ = oldest;

    if (best < 0) {
        // Figure 6 lines 14-15: with nothing unblocked, switch to the bank
        // holding the oldest access so it gains priority next cycle.
        pointAtOldest();
        return {};
    }

    const std::uint32_t best_bank = std::uint32_t(best);
    MemAccess *a = cands_[best_bank].access;
    Issued out = issueFor(a, now);
    dirty_.set(best_bank); // its open row, and maybe its ongoing, moved
    if (out.columnAccess) {
        BankState &bs = banks_[best_bank];
        if (auditor_ && bs.ongoingFromBurst)
            auditor_->noteBurstRead(now, a->coords, bs.ongoingFirstOfBurst,
                                    a->outcome);
        if (a->isWrite()) {
            writes_ -= 1;
        } else if (--reads_ == 0) {
            // Figure 5 line 6: the last outstanding read releases the
            // postponed writes of every bank that holds some.
            for (std::uint32_t w = 0; w < banks_.size(); ++w)
                if (!banks_[w].writeQ.empty())
                    dirty_.set(w);
        }
        if (bs.ongoingFromBurst) {
            // Retire the front burst once drained; this bank is now at an
            // end of burst, the write piggybacking opportunity.
            if (bs.bursts.empty())
                panic("ongoing read without a front burst");
            if (bs.bursts.front().reads.empty()) {
                bs.bursts.pop_front();
                bs.endOfBurst = true;
                bs.frontStarted = false;
            }
        }
        bs.ongoing = nullptr;
        bs.ongoingFromBurst = false;
        occupied_.reset(best_bank);
        oldest_ = -1;
        lastBank_ = best_bank;
        lastRank_ = a->coords.rank;
        lastValid_ = true;
    }
    return out;
}

void
BurstScheduler::pointAtOldest()
{
    if (oldest_ < 0)
        occupied_.forEach([&](std::uint32_t b) {
            if (oldest_ < 0 || cands_[b].arrival < cands_[oldest_].arrival)
                oldest_ = std::int32_t(b);
        });
    if (oldest_ >= 0) {
        lastBank_ = std::uint32_t(oldest_);
        lastRank_ = cands_[oldest_].rank;
        lastValid_ = true;
    }
}

bool
BurstScheduler::hasWork() const
{
    return reads_ + writes_ > 0;
}

dram::StallCause
BurstScheduler::stallScan(Tick now, obs::StallAttribution &sink) const
{
    // tick() brought every bank arbiter up to date before coming up
    // empty, so ongoing reflects this cycle's Figure 5 decisions. Banks
    // whose writes were postponed (reads outstanding channel-wide, or
    // the piggyback gate closed) hold queued writes but no ongoing
    // access.
    dram::StallCause channel_cause = dram::StallCause::NoWork;
    Tick oldest = kTickMax;
    const MemAccess *gated_front = nullptr;
    stallVictim_ = nullptr;
    for (std::uint32_t b = 0; b < std::uint32_t(banks_.size()); ++b) {
        const BankState &bs = banks_[b];
        const MemAccess *a = bs.ongoing;
        if (!a) {
            if (bs.bursts.empty() && !bs.writeQ.empty()) {
                sink.noteBankStall(ctx_.channel, b,
                                   dram::StallCause::ThresholdGated);
                if (!gated_front)
                    gated_front = bs.writeQ.front();
            }
            continue;
        }
        dram::StallCause c = blockOf(b, a, now);
        if (c == dram::StallCause::None)
            c = dram::StallCause::ArbLoss; // lost the Table 2 pick
        sink.noteBankStall(ctx_.channel, b, c);
        if (a->arrival < oldest) {
            oldest = a->arrival;
            channel_cause = c;
            stallVictim_ = a;
        }
    }
    if (channel_cause == dram::StallCause::NoWork && gated_front) {
        channel_cause = dram::StallCause::ThresholdGated;
        stallVictim_ = gated_front;
    }
    return channel_cause;
}

HorizonPin
BurstScheduler::moveOf(const BankState &bs) const
{
    if (bs.ongoing) // maybePreempt() would fire
        return preemptDue(bs) ? HorizonPin::Preempt : HorizonPin::None;
    if (!bs.bursts.empty())
        return HorizonPin::ArbFill; // arbitrate() would start a burst read
    if (bs.writeQ.empty())
        return HorizonPin::None;
    const std::size_t global_writes = ctx_.global->writesOutstanding;
    if (global_writes >= ctx_.params.writeCap || reads_ == 0)
        return HorizonPin::WriteDrain; // it would take the oldest write
    if (!ctx_.params.writePiggyback ||
        global_writes <= effectiveThreshold() || !bs.endOfBurst)
        return HorizonPin::None;
    // Const replay of findPiggybackWrite(): any queued write to the
    // bank's open row qualifies.
    const dram::Bank &bank = ctx_.mem->bank(bs.writeQ.front()->coords);
    if (bank.isOpen())
        for (const MemAccess *w : bs.writeQ)
            if (w->coords.row == bank.openRow())
                return HorizonPin::Piggyback;
    return HorizonPin::None;
}

Tick
BurstScheduler::nextEventTick(Tick now) const
{
    // The Figure 5 bank arbiters run every tick, so skipping is legal
    // only when no arbiter can make a move: no preemption, no idle bank
    // that could pick up a write or start a burst. Each possible move
    // forces one real tick ("return now"). Only a dirty bank's arbiter
    // can move, unless the band signature moved since the last tick.
    obs::prof::Scope prof(obs::prof::Phase::SchedHorizon);
    if (anyMovable(signatureMoved(), [&](std::uint32_t b) {
            pin_ = moveOf(banks_[b]);
            return pin_ != HorizonPin::None;
        }))
        return now;

    pin_ = HorizonPin::Timing;
    Tick horizon = kTickMax;
    if (occupied_.anyOf([&](std::uint32_t b) {
            horizon = std::min(horizon, bankBound(b, cands_[b].access, now));
            return horizon <= now;
        }))
        return now;
    if (horizon == kTickMax)
        pin_ = HorizonPin::None;
    return horizon;
}

void
BurstScheduler::onIdleSpan(Tick from, Tick span)
{
    (void)from;
    (void)span;
    // Figure 6 lines 14-15 run on every idle tick. The ongoing set is
    // frozen across a dead span, so the per-tick update is idempotent —
    // replay it once.
    pointAtOldest();
}

std::map<std::string, double>
BurstScheduler::extraStats() const
{
    return {
        {"preemptions", double(preemptions_)},
        {"piggybacks", double(piggybacks_)},
        {"bursts_formed", double(burstsFormed_)},
        {"burst_joins", double(burstJoinCount_)},
    };
}

void
BurstScheduler::queueOccupancy(std::vector<std::uint32_t> &reads,
                               std::vector<std::uint32_t> &writes) const
{
    for (const BankState &bs : banks_) {
        std::uint32_t r = 0;
        for (const Burst &burst : bs.bursts)
            r += std::uint32_t(burst.reads.size());
        std::uint32_t w = std::uint32_t(bs.writeQ.size());
        if (bs.ongoing)
            (bs.ongoing->isWrite() ? w : r) += 1;
        reads.push_back(r);
        writes.push_back(w);
    }
}

} // namespace bsim::ctrl
