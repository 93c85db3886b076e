#include "ctrl/schedulers/intel.hh"

#include <algorithm>

#include "obs/stall_attribution.hh"

namespace bsim::ctrl
{

IntelScheduler::IntelScheduler(const SchedulerContext &ctx)
    : Scheduler(ctx),
      readQ_(numBanks()),
      ongoing_(numBanks(), nullptr),
      startSeq_(numBanks(), 0)
{
}

void
IntelScheduler::enqueue(MemAccess *a)
{
    dirty_.set(bankIndex(a->coords));
    if (a->isWrite()) {
        writeQ_.push_back(a);
        writes_ += 1;
        noteWriteEnqueued(a);
    } else {
        readQ_[bankIndex(a->coords)].push_back(a);
        reads_ += 1;
    }
}

bool
IntelScheduler::preemptDue(std::uint32_t b) const
{
    // Read preemption (Intel_RP): a read may interrupt an ongoing write
    // unless the write queue has saturated or a flush is in progress
    // (preempting during a flush would just thrash the flush).
    const MemAccess *a = ongoing_[b];
    return ctx_.params.readPreemption &&
           ctx_.global->writesOutstanding < ctx_.params.writeCap &&
           !drainMode_ && a && a->isWrite() && !readQ_[b].empty();
}

void
IntelScheduler::occupy(std::uint32_t b, MemAccess *a)
{
    ongoing_[b] = a;
    startSeq_[b] = ++seq_;
    occupied_.set(b);
    clearBound(b);
}

void
IntelScheduler::vacate(std::uint32_t b)
{
    if (occupied_.count() >= kMaxOngoing)
        markAllDirty();
    ongoing_[b] = nullptr;
    occupied_.reset(b);
    dirty_.set(b);
}

void
IntelScheduler::arbitrate()
{
    // Only dirty banks are visited: a clean bank's inputs have not
    // changed since it was last arbitrated, so it would not move.
    const std::size_t global_writes = ctx_.global->writesOutstanding;
    const bool write_q_full = global_writes >= ctx_.params.writeCap;

    dirty_.forEach([&](std::uint32_t b) {
        if (!preemptDue(b))
            return;
        writeQ_.push_front(ongoing_[b]); // it was the oldest write
        vacate(b);
        clearBound(b);
        preemptions_ += 1;
    });

    // Write-queue flush (the patent's bursty drain): a full write queue
    // triggers a flush that keeps priority on writes until the queue is
    // half empty; otherwise writes wait until no reads are outstanding.
    const bool drain =
        write_q_full ||
        (drainMode_ && global_writes > ctx_.params.writeCap / 2);
    if (drain != drainMode_) {
        drainMode_ = drain;
        markAllDirty();
    }
    const bool service_writes =
        !writeQ_.empty() && (drainMode_ || reads_ == 0);
    const auto idle = [&](std::uint32_t b) { return !ongoing_[b]; };

    if (service_writes && dirty_.anyOf(idle)) {
        // Drain oldest-first into any idle bank.
        for (auto it = writeQ_.begin();
             it != writeQ_.end() && occupied_.count() < kMaxOngoing;) {
            const std::uint32_t b = bankIndex((*it)->coords);
            if (!ongoing_[b] && dirty_.test(b)) {
                occupy(b, *it);
                it = writeQ_.erase(it);
            } else {
                ++it;
            }
        }
    }

    // Fill remaining idle banks with reads: best-effort row-hit-first —
    // the patent examines only a small window at the head of each bank
    // queue for page hits, so grouping is partial (the paper's critique
    // of both RowHit and Intel in Section 4.2).
    constexpr std::size_t kReorderWindow = 4;
    dirty_.anyOf([&](std::uint32_t b) {
        if (occupied_.count() >= kMaxOngoing)
            return true;
        if (ongoing_[b] || readQ_[b].empty())
            return false;
        auto &q = readQ_[b];
        auto pick = q.begin();
        const dram::Bank &bank = ctx_.mem->bank(q.front()->coords);
        if (bank.isOpen()) {
            const auto window_end =
                q.size() > kReorderWindow ? q.begin() + kReorderWindow
                                          : q.end();
            auto hit =
                std::find_if(q.begin(), window_end, [&](MemAccess *r) {
                    return r->coords.row == bank.openRow();
                });
            if (hit != window_end)
                pick = hit;
        }
        occupy(b, *pick);
        q.erase(pick);
        return false;
    });

    // A bank left idle behind the cap is woken by vacate(); only a due
    // preemption (a drain that just ended) needs another pass.
    dirty_.forEach([&](std::uint32_t b) {
        if (!preemptDue(b))
            dirty_.reset(b);
    });
}

Scheduler::Issued
IntelScheduler::tick(Tick now)
{
    syncSignature();
    if (dirty_.any())
        arbitrate();

    // Once started, an access has the highest priority so that it can
    // finish as quickly as possible, reducing the degree of reordering
    // (the patent's wording): service ongoing accesses strictly in start
    // order, issuing the first unblocked transaction. Unlike burst
    // scheduling's Table 2 there is no same-rank clustering of data
    // transfers, so rank-to-rank turnaround bubbles go unmitigated.
    std::int32_t best = -1;
    std::uint64_t best_seq = ~std::uint64_t{0};
    occupied_.forEach([&](std::uint32_t b) {
        if (startSeq_[b] < best_seq && bankBound(b, ongoing_[b], now) <= now) {
            best = std::int32_t(b);
            best_seq = startSeq_[b];
        }
    });
    if (best < 0)
        return {};

    MemAccess *a = ongoing_[best];
    Issued out = issueFor(a, now);
    if (out.columnAccess) {
        vacate(std::uint32_t(best));
        if (a->isWrite()) {
            writes_ -= 1;
        } else if (--reads_ == 0) {
            markAllDirty(); // no reads left: writes may now be serviced
        }
    }
    return out;
}

bool
IntelScheduler::hasWork() const
{
    return reads_ + writes_ > 0;
}

dram::StallCause
IntelScheduler::stallScan(Tick now, obs::StallAttribution &sink) const
{
    // tick() arbitrated before coming up empty, so ongoing_ is current.
    dram::StallCause channel_cause = dram::StallCause::NoWork;
    std::uint64_t oldest_seq = ~std::uint64_t{0};
    bool any_ongoing = false;
    stallVictim_ = nullptr;
    for (std::uint32_t b = 0; b < std::uint32_t(ongoing_.size()); ++b) {
        const MemAccess *a = ongoing_[b];
        if (!a) {
            // Backlog behind the kMaxOngoing reordering cap (or a write
            // held in the shared queue) is an arbitration loss, not a
            // device stall.
            if (!readQ_[b].empty())
                sink.noteBankStall(ctx_.channel, b,
                                   dram::StallCause::ArbLoss);
            continue;
        }
        any_ongoing = true;
        dram::StallCause c = blockOf(b, a, now);
        if (c == dram::StallCause::None)
            c = dram::StallCause::ArbLoss;
        sink.noteBankStall(ctx_.channel, b, c);
        if (startSeq_[b] < oldest_seq) {
            oldest_seq = startSeq_[b];
            channel_cause = c;
            stallVictim_ = a;
        }
    }
    if (any_ongoing)
        return channel_cause;
    if (reads_ > 0) {
        // Reads queued behind the reordering cap: nominate the first
        // bank's backlog head so the tracer has an access to blame.
        for (const auto &q : readQ_)
            if (!q.empty()) {
                stallVictim_ = q.front();
                break;
            }
        return dram::StallCause::ArbLoss;
    }
    if (writes_ > 0) {
        stallVictim_ = writeQ_.empty() ? nullptr : writeQ_.front();
        return dram::StallCause::ThresholdGated; // waiting for drain mode
    }
    return dram::StallCause::NoWork;
}

Tick
IntelScheduler::nextEventTick(Tick now) const
{
    // arbitrate() mutates state even on idle ticks (preemption, drain
    // flips, filling ongoing slots), so skipping is legal only when the
    // next arbitration pass is provably a no-op. Each possible move
    // below forces "return now" — one real tick — instead. Only a dirty
    // bank can move, unless the band signature moved since the last
    // tick.
    obs::prof::Scope prof(obs::prof::Phase::SchedHorizon);
    const std::size_t global_writes = ctx_.global->writesOutstanding;
    const bool write_q_full = global_writes >= ctx_.params.writeCap;
    const bool all = signatureMoved();

    if (anyMovable(all, [&](std::uint32_t b) { return preemptDue(b); })) {
        pin_ = HorizonPin::Preempt;
        return now;
    }

    // A pending drain-mode flip is itself a state change the next
    // arbitration pass applies.
    const bool drain_next =
        write_q_full
            ? true
            : (global_writes <= ctx_.params.writeCap / 2 ? false
                                                         : drainMode_);
    if (drain_next != drainMode_) {
        pin_ = HorizonPin::DrainFlip;
        return now;
    }

    const bool headroom = occupied_.count() < kMaxOngoing;
    const bool service_writes =
        !writeQ_.empty() && (drainMode_ || reads_ == 0);
    const auto idle = [&](std::uint32_t b) { return !ongoing_[b]; };
    if (service_writes && headroom && anyMovable(all, idle))
        for (const MemAccess *w : writeQ_) {
            const std::uint32_t b = bankIndex(w->coords);
            if (!ongoing_[b] && (all || dirty_.test(b))) {
                pin_ = HorizonPin::WriteDrain;
                return now;
            }
        }

    if (headroom && anyMovable(all, [&](std::uint32_t b) { // read fill
            return !ongoing_[b] && !readQ_[b].empty();
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

std::map<std::string, double>
IntelScheduler::extraStats() const
{
    return {{"preemptions", double(preemptions_)}};
}

void
IntelScheduler::queueOccupancy(std::vector<std::uint32_t> &reads,
                               std::vector<std::uint32_t> &writes) const
{
    const std::size_t base = reads.size();
    for (std::uint32_t b = 0; b < readQ_.size(); ++b) {
        std::uint32_t r = std::uint32_t(readQ_[b].size());
        std::uint32_t w = 0;
        if (const MemAccess *a = ongoing_[b])
            (a->isWrite() ? w : r) += 1;
        reads.push_back(r);
        writes.push_back(w);
    }
    // The single write queue serves all banks; attribute entries to the
    // bank they target.
    for (const MemAccess *a : writeQ_)
        writes[base + bankIndex(a->coords)] += 1;
}

} // namespace bsim::ctrl
