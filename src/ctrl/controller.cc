#include "ctrl/controller.hh"

#include "common/error.hh"
#include "common/log.hh"
#include "ctrl/schedulers/factory.hh"
#include "obs/observability.hh"
#include "obs/selfprof.hh"

namespace bsim::ctrl
{

namespace
{

/** Map a scheduler's horizon pin onto the wake-reason taxonomy. */
obs::WakeReason
reasonOf(HorizonPin pin)
{
    switch (pin) {
      case HorizonPin::ArbFill: return obs::WakeReason::SchedArbFill;
      case HorizonPin::Preempt: return obs::WakeReason::SchedPreempt;
      case HorizonPin::DrainFlip: return obs::WakeReason::SchedDrainFlip;
      case HorizonPin::Piggyback: return obs::WakeReason::SchedPiggyback;
      case HorizonPin::WriteDrain:
        return obs::WakeReason::SchedWriteDrain;
      case HorizonPin::Timing: return obs::WakeReason::SchedBound;
      case HorizonPin::Epoch: return obs::WakeReason::SchedEpoch;
      case HorizonPin::Conservative:
        return obs::WakeReason::SchedConservative;
      case HorizonPin::None: break;
    }
    return obs::WakeReason::SchedBound;
}

} // namespace

SchedulerParams
ControllerConfig::schedulerParams() const
{
    SchedulerParams p;
    p.writeCap = writeCap;
    p.dynamicThreshold = dynamicThreshold;
    p.sortBurstsBySize = sortBurstsBySize;
    p.criticalFirst = criticalFirst;
    p.rankAware = rankAware;
    switch (mechanism) {
      case Mechanism::BkInOrder:
      case Mechanism::RowHit:
      case Mechanism::Intel:
      case Mechanism::Burst:
      case Mechanism::AdaptiveHistory:
        p.readPreemption = false;
        p.writePiggyback = false;
        p.threshold = writeCap; // unused
        break;
      case Mechanism::IntelRP:
        p.readPreemption = true;
        p.writePiggyback = false;
        p.threshold = writeCap; // preempt whenever not saturated
        break;
      case Mechanism::BurstRP:
        // Equivalent to Burst_TH with threshold == writeCap (Section 5.4).
        p.readPreemption = true;
        p.writePiggyback = false;
        p.threshold = writeCap;
        break;
      case Mechanism::BurstWP:
        // Equivalent to Burst_TH with threshold == 0.
        p.readPreemption = false;
        p.writePiggyback = true;
        p.threshold = 0;
        break;
      case Mechanism::BurstTH:
        p.readPreemption = true;
        p.writePiggyback = true;
        p.threshold = threshold;
        break;
      case Mechanism::FrFcfs:
      case Mechanism::Parbs:
      case Mechanism::Atlas:
      case Mechanism::Bliss:
        p.readPreemption = false;
        p.writePiggyback = false;
        p.threshold = writeCap; // unused
        p.watermarkDrain = watermarkDrain;
        break;
    }
    return p;
}

double
ControllerStats::rowHitRate() const
{
    const double n = double(rowHits + rowEmpties + rowConflicts);
    return ratio(double(rowHits), n);
}

double
ControllerStats::rowConflictRate() const
{
    const double n = double(rowHits + rowEmpties + rowConflicts);
    return ratio(double(rowConflicts), n);
}

double
ControllerStats::rowEmptyRate() const
{
    const double n = double(rowHits + rowEmpties + rowConflicts);
    return ratio(double(rowEmpties), n);
}

double
ControllerStats::writeSaturationRate() const
{
    return ratio(double(writeSatTicks), double(ticks));
}

MemoryController::MemoryController(dram::MemorySystem &mem,
                                   const ControllerConfig &cfg)
    : mem_(mem), cfg_(cfg)
{
    if (cfg_.writeCap > cfg_.poolCap)
        throwSimError(ErrorCategory::Config,
                      "controller: writeCap (%zu) exceeds poolCap (%zu)",
                      cfg_.writeCap, cfg_.poolCap);

    const auto &dcfg = mem_.config();
    stats_.bankRowHits.assign(std::size_t(dcfg.channels) *
                                  dcfg.ranksPerChannel * dcfg.banksPerRank,
                              0);
    stats_.bankRowAccesses.assign(stats_.bankRowHits.size(), 0);
    for (std::uint32_t ch = 0; ch < dcfg.channels; ++ch) {
        SchedulerContext ctx;
        ctx.mem = &mem_;
        ctx.channel = ch;
        ctx.global = &counts_;
        ctx.params = cfg_.schedulerParams();
        auto sched = cfg_.schedulerFactory
                         ? cfg_.schedulerFactory(cfg_.mechanism, ctx)
                         : makeScheduler(cfg_.mechanism, ctx);
        if (!sched)
            throwSimError(ErrorCategory::Config,
                          "controller: scheduler factory returned null "
                          "for channel %u",
                          ch);
        schedulers_.push_back(std::move(sched));
    }

    schedMemo_.resize(dcfg.channels);
    refreshWake_.assign(dcfg.channels, 0);
    chanVersion_.assign(dcfg.channels, 1);
    for (std::uint32_t ch = 0; ch < dcfg.channels; ++ch)
        schedMemo_[ch].global = schedulers_[ch]->globallySensitive();

    // Stagger per-rank refresh deadlines so refreshes do not align.
    const Tick trefi = dcfg.timing.tREFI;
    refresh_.resize(std::size_t(dcfg.channels) * dcfg.ranksPerChannel);
    if (trefi) {
        for (std::uint32_t ch = 0; ch < dcfg.channels; ++ch) {
            for (std::uint32_t r = 0; r < dcfg.ranksPerChannel; ++r) {
                auto &st = refresh_[ch * dcfg.ranksPerChannel + r];
                st.nextDue =
                    trefi + Tick(r) * (trefi / dcfg.ranksPerChannel);
            }
        }
    }
}

MemoryController::~MemoryController() = default;

bool
MemoryController::canAccept() const
{
    if (counts_.writesOutstanding >= cfg_.writeCap)
        return false; // saturated write queue blocks all admission
    if (inflightCount_ >= cfg_.poolCap)
        return false;
    return true;
}

MemAccess *
MemoryController::allocAccess()
{
    std::uint32_t slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        pool_[slot] = MemAccess{};
    } else {
        slot = std::uint32_t(pool_.size());
        pool_.emplace_back();
    }
    MemAccess *a = &pool_[slot];
    a->poolSlot = slot;
    inflightCount_ += 1;
    return a;
}

void
MemoryController::freeAccess(MemAccess *a)
{
    freeSlots_.push_back(a->poolSlot);
    inflightCount_ -= 1;
}

void
MemoryController::refreshEngineFlags()
{
    // Exact bounds (readyAt) only while per-cycle stall causes are not
    // attributed: blockedUntil's first-binding stop points are part of
    // the attribution contract, readyAt's are not.
    for (auto &s : schedulers_) {
        s->setEventDriven(eventDriven_);
        s->setHorizonMemo(cfg_.horizonMemo);
        s->setExactBounds(!stalls_);
    }
}

std::uint64_t
MemoryController::submit(AccessType type, Addr addr, Tick now,
                         const std::uint8_t *data, std::uint64_t tag,
                         bool critical)
{
    if (!canAccept())
        panic("submit() while controller cannot accept");

    if (intro_)
        intro_->noteMemoInvalidate();

    MemAccess *a = allocAccess();
    a->id = nextId_++;
    a->type = type;
    a->addr = mem_.addressMap().blockBase(addr);
    a->coords = mem_.addressMap().decode(a->addr);
    a->arrival = now;
    a->tag = tag;
    a->critical = critical && type == AccessType::Read;
    chanVersion_[a->coords.channel] += 1; // this channel's queue changes

    Scheduler &sched = *schedulers_[a->coords.channel];

    if (type == AccessType::Read) {
        counts_.readsOutstanding += 1;
        if (MemAccess *w = sched.findWrite(a->addr)) {
            // Write queue hit: forward the latest write's data; the read
            // completes without touching the SDRAM device (Figure 4).
            (void)w;
            a->forwarded = true;
            a->dataEnd = now + cfg_.forwardLatency;
            pendingReads_.emplace(a->dataEnd, a);
        } else {
            sched.enqueue(a);
        }
    } else {
        if (cfg_.coalesceWrites && sched.findWrite(a->addr)) {
            // Merge into the queued write: the backing store gets the
            // newer payload; the older queue entry carries it to DRAM.
            if (data)
                mem_.store().write(a->addr, data);
            stats_.coalescedWrites += 1;
            const std::uint64_t id = a->id;
            freeAccess(a);
            return id;
        }
        counts_.writesOutstanding += 1;
        if (data) {
            // Writes are complete from the CPU's perspective on admission;
            // commit the payload now (single-requestor ordering holds: the
            // cache hierarchy never issues a read that must bypass an
            // older in-flight write without hitting the write queue).
            mem_.store().write(a->addr, data);
        }
        sched.enqueue(a);
    }
    if (crit_)
        crit_->onAdmit(*a);
    if (perCore_) {
        touchCore(a->tag);
        if (type == AccessType::Read)
            coreReadQ_[a->tag] += 1;
        else
            coreWriteQ_[a->tag] += 1;
    }
    return a->id;
}

void
MemoryController::touchCore(std::uint64_t tag)
{
    if (tag < coreReadQ_.size())
        return;
    coreReadQ_.resize(tag + 1, 0);
    coreWriteQ_.resize(tag + 1, 0);
    coreRowHits_.resize(tag + 1, 0);
    coreRowAccesses_.resize(tag + 1, 0);
}

void
MemoryController::tick(Tick now)
{
    completeReads(now);
    sampleOccupancy();

    for (std::uint32_t ch = 0; ch < mem_.numChannels(); ++ch) {
        SchedMemo &memo = schedMemo_[ch];
        {
            obs::prof::Scope prof(obs::prof::Phase::RefreshEngine);
            if (refreshTick(ch, now)) {
                // Refresh engine used this channel's command slot (and
                // changed the channel's device state).
                memo.version = 0;
                if (intro_)
                    intro_->noteMemoInvalidate();
                schedulers_[ch]->onExternalCommand();
                if (stalls_)
                    stalls_->account(ch, now, true,
                                     dram::StallCause::None);
                continue;
            }
        }
        if (eventDriven_ && !stalls_ && memoValid(ch) &&
            now < memo.until) {
            // Horizon contract: nothing can issue and no arbitration
            // move is possible strictly before memo.until, so a full
            // scan would be a no-op apart from the idempotent idle-tick
            // effect — replay just that.
            if (intro_)
                intro_->noteMemoHit();
            schedulers_[ch]->onIdleSpan(now, 1);
            continue;
        }
        Scheduler::Issued issued;
        {
            obs::prof::Scope prof(obs::prof::Phase::SchedPick);
            issued = schedulers_[ch]->tick(now);
        }
        if (stalls_) {
            if (issued.access) {
                if (issued.columnAccess)
                    stalls_->noteBurst(ch, issued.dataStart,
                                       issued.dataEnd, issued.access->id);
                stalls_->account(ch, now, true, dram::StallCause::None);
                if (crit_)
                    crit_->noteIssue(*issued.access);
            } else {
                obs::prof::Scope prof(obs::prof::Phase::StallScan);
                const dram::StallCause cause =
                    schedulers_[ch]->stallScan(now, *stalls_);
                stalls_->account(ch, now, false, cause,
                                 schedulers_[ch]->lastStallVictim());
            }
        }
        if (issued.access) {
            memo.version = 0; // the issue changed channel state
            if (intro_)
                intro_->noteMemoInvalidate();
            handleIssued(issued);
        } else if (eventDriven_ && !stalls_) {
            memo.until = schedulers_[ch]->nextEventTick(now);
            stampMemo(ch);
            memo.pin = schedulers_[ch]->lastHorizonPin();
            if (intro_)
                intro_->noteMemoMiss();
        }
    }

    stats_.ticks += 1;

    if (sampler_ && sampler_->epochEnd(now))
        sampleMetrics(now);
}

Tick
MemoryController::nextEventTick(Tick now, obs::WakeSource *src,
                                Tick bound) const
{
    Tick horizon = kTickMax;
    // First minimum wins, in scan order — attribution must never move
    // the computed horizon, only label it.
    const auto consider = [&](Tick t, obs::WakeReason r,
                              std::int32_t ch = -1) {
        if (t < horizon) {
            horizon = t;
            if (src) {
                src->reason = r;
                src->channel = ch;
            }
        }
    };

    if (!pendingReads_.empty())
        consider(pendingReads_.begin()->first,
                 obs::WakeReason::PendingData);

    // Refresh engine mirror: walk ranks exactly as refreshTick() does.
    // Ranks before the first pending-blocked one flip pending at their
    // deadline; the first pending rank acts when RefreshAll or one of
    // its precharges unblocks; ranks after it are shadowed by the scan's
    // break, so their deadlines must not contribute.
    const auto &dcfg = mem_.config();
    if (dcfg.timing.tREFI) {
        for (std::uint32_t ch = 0;
             ch < mem_.numChannels() && horizon > now; ++ch) {
            if (eventDriven_ && refreshWake_[ch] > now) {
                // refreshTick()'s wake memo: no rank of this channel is
                // pending, and the earliest deadline is exactly wake
                // (the invariant is checked loudly there) — the full
                // rank walk below would produce the same minimum.
                consider(refreshWake_[ch], obs::WakeReason::Refresh,
                         std::int32_t(ch));
                continue;
            }
            for (std::uint32_t r = 0; r < dcfg.ranksPerChannel; ++r) {
                const auto &st =
                    refresh_[ch * dcfg.ranksPerChannel + r];
                if (!st.pending) {
                    consider(st.nextDue, obs::WakeReason::Refresh,
                             std::int32_t(ch));
                    continue;
                }
                dram::Coords c;
                c.channel = ch;
                c.rank = r;
                dram::Command ref{dram::CmdType::RefreshAll, c, 0};
                consider(mem_.blockedUntil(ref, now),
                         obs::WakeReason::Refresh, std::int32_t(ch));
                for (std::uint32_t b = 0; b < dcfg.banksPerRank; ++b) {
                    c.bank = b;
                    if (!mem_.bank(c).isOpen())
                        continue;
                    dram::Command pre{dram::CmdType::Precharge, c, 0};
                    consider(mem_.blockedUntil(pre, now),
                             obs::WakeReason::Refresh, std::int32_t(ch));
                }
                break;
            }
        }
    }

    const bool bound_open = bound > now;
    for (std::uint32_t ch = 0;
         ch < mem_.numChannels() && horizon > now && bound_open; ++ch) {
        // Horizon first: the wake reason is the pin of the memo that
        // schedHorizon() may recompute, and the evaluation order of one
        // call's arguments is unspecified.
        const Tick t = schedHorizon(ch, now);
        consider(t, reasonOf(schedMemo_[ch].pin), std::int32_t(ch));
    }

    if (sampler_ && horizon > now && bound_open) {
        // The epoch-boundary tick must run for real so its snapshot row
        // is emitted at the same tick as in the step engine.
        const Tick interval = sampler_->interval();
        consider(now + (interval - 1 - now % interval),
                 obs::WakeReason::MetricsEpoch);
    }
    return horizon;
}

Tick
MemoryController::schedHorizon(std::uint32_t channel, Tick now) const
{
    // The memo stays valid while nothing the scheduler's decision
    // depends on has changed: the version stamp covers queue contents,
    // the signature covers the global-count bands, and the channel's
    // own issues clear the memo directly. A bound that has expired
    // (until <= now) forces a recomputation.
    SchedMemo &memo = schedMemo_[channel];
    if (!memoValid(channel) || memo.until <= now) {
        memo.until = schedulers_[channel]->nextEventTick(now);
        stampMemo(channel);
        memo.pin = schedulers_[channel]->lastHorizonPin();
        if (intro_)
            intro_->noteMemoMiss();
    } else if (intro_) {
        intro_->noteMemoHit();
    }
    return memo.until;
}

void
MemoryController::tickSpan(Tick from, Tick span)
{
    stats_.outstandingReads.sample(counts_.readsOutstanding, span);
    stats_.outstandingWrites.sample(counts_.writesOutstanding, span);
    if (counts_.writesOutstanding >= cfg_.writeCap)
        stats_.writeSatTicks += span;

    for (std::uint32_t ch = 0; ch < mem_.numChannels(); ++ch) {
        schedulers_[ch]->onIdleSpan(from, span);
        if (stalls_) {
            // One scan classifies the whole span: every input to
            // stallScan is frozen across a dead span, so the per-cycle
            // result the step engine would compute is constant.
            stalls_->setBankStallWeight(span);
            const dram::StallCause cause =
                schedulers_[ch]->stallScan(from, *stalls_);
            stalls_->setBankStallWeight(1);
            stalls_->accountSpan(ch, from, span, cause,
                                 schedulers_[ch]->lastStallVictim());
        }
    }

    stats_.ticks += span;
}

void
MemoryController::completeReads(Tick now)
{
    while (!pendingReads_.empty() && pendingReads_.begin()->first <= now) {
        MemAccess *a = pendingReads_.begin()->second;
        pendingReads_.erase(pendingReads_.begin());

        stats_.reads += 1;
        stats_.readLatency.sample(double(a->dataEnd - a->arrival));
        if (a->forwarded) {
            stats_.forwardedReads += 1;
        } else {
            stats_.bytesTransferred += mem_.config().blockBytes;
        }
        counts_.readsOutstanding -= 1;

        if (perCore_) {
            touchCore(a->tag);
            coreReadQ_[a->tag] -= 1;
        }
        if (lat_)
            lat_->record(*a);
        if (crit_)
            crit_->onComplete(*a);
        if (readCb_)
            readCb_(*a, now);
        finishAccess(a);
    }
}

void
MemoryController::sampleOccupancy()
{
    stats_.outstandingReads.sample(counts_.readsOutstanding);
    stats_.outstandingWrites.sample(counts_.writesOutstanding);
    if (counts_.writesOutstanding >= cfg_.writeCap)
        stats_.writeSatTicks += 1;
}

bool
MemoryController::refreshTick(std::uint32_t channel, Tick now)
{
    const auto &dcfg = mem_.config();
    if (!dcfg.timing.tREFI)
        return false;
    if (eventDriven_ && now < refreshWake_[channel]) {
        // Memo invariant: a nonzero wake means no rank of this channel
        // is pending (every pending path below zeroes the memo first)
        // and the earliest deadline is >= wake (nextDue only grows).
        // If either ever breaks, a pending rank's refresh would be
        // deferred past its deadline silently — fail loudly instead.
        for (std::uint32_t r = 0; r < dcfg.ranksPerChannel; ++r) {
            const auto &st =
                refresh_[channel * dcfg.ranksPerChannel + r];
            if (st.pending || st.nextDue < refreshWake_[channel])
                throwSimError(
                    ErrorCategory::Internal,
                    "refresh wake memo stale: ch%u wake=%llu rank%u "
                    "pending=%d nextDue=%llu at tick %llu",
                    channel,
                    (unsigned long long)refreshWake_[channel], r,
                    int(st.pending), (unsigned long long)st.nextDue,
                    (unsigned long long)now);
        }
        return false; // no rank pending and none due before this tick
    }

    Tick wake = kTickMax;
    for (std::uint32_t r = 0; r < dcfg.ranksPerChannel; ++r) {
        auto &st = refresh_[channel * dcfg.ranksPerChannel + r];
        if (!st.pending) {
            if (now >= st.nextDue) {
                st.pending = true;
            } else {
                if (st.nextDue < wake)
                    wake = st.nextDue;
                continue;
            }
        }

        // Precharge any open bank; then refresh the rank. The drain
        // gate bars the scheduler from re-activating banks we close
        // here — without it a busy burst scheduler re-opens rows as
        // fast as we precharge them and the refresh starves forever
        // (watchdog livelock: ACT/PRE ping-pong, nothing retires).
        dram::Coords c;
        c.channel = channel;
        c.rank = r;

        refreshWake_[channel] = 0; // a rank is pending: run every tick
        mem_.setRefreshDrain(channel, r, true);
        if (!st.draining) {
            // Drain-gate transition: the gate turns this channel's
            // Activate bounds into state gates, so cached bounds (and
            // the channel horizon built on them) are no longer proofs.
            st.draining = true;
            schedMemo_[channel].version = 0;
            if (intro_)
                intro_->noteMemoInvalidate();
            schedulers_[channel]->onExternalCommand();
        }

        dram::Command ref{dram::CmdType::RefreshAll, c, 0};
        if (mem_.canIssue(ref, now)) {
            mem_.issue(ref, now);
            st.pending = false;
            st.draining = false;
            st.nextDue += dcfg.timing.tREFI;
            stats_.refreshes += 1;
            mem_.setRefreshDrain(channel, r, false);
            return true;
        }
        for (std::uint32_t b = 0; b < dcfg.banksPerRank; ++b) {
            c.bank = b;
            if (!mem_.bank(c).isOpen())
                continue;
            dram::Command pre{dram::CmdType::Precharge, c, 0};
            if (mem_.canIssue(pre, now)) {
                mem_.issue(pre, now);
                return true;
            }
        }
        // This rank's refresh is pending but blocked by timing; do not
        // let a lower-priority rank steal the slot for its refresh, but
        // do allow the scheduler to keep other ranks busy.
        return false;
    }
    refreshWake_[channel] = wake; // reached only with no rank pending
    return false;
}

void
MemoryController::handleIssued(const Scheduler::Issued &issued)
{
    MemAccess *a = issued.access;
    if (!issued.columnAccess)
        return;

    // The access's transactions are now fully scheduled: account for the
    // row outcome and route the completion.
    switch (a->outcome) {
      case dram::RowOutcome::Hit: stats_.rowHits += 1; break;
      case dram::RowOutcome::Empty: stats_.rowEmpties += 1; break;
      case dram::RowOutcome::Conflict: stats_.rowConflicts += 1; break;
    }
    const auto &dcfg = mem_.config();
    const std::size_t flat_bank =
        (std::size_t(a->coords.channel) * dcfg.ranksPerChannel +
         a->coords.rank) *
            dcfg.banksPerRank +
        a->coords.bank;
    stats_.bankRowAccesses[flat_bank] += 1;
    if (a->outcome == dram::RowOutcome::Hit)
        stats_.bankRowHits[flat_bank] += 1;
    if (perCore_) {
        touchCore(a->tag);
        coreRowAccesses_[a->tag] += 1;
        if (a->outcome == dram::RowOutcome::Hit)
            coreRowHits_[a->tag] += 1;
    }

    if (a->isRead()) {
        pendingReads_.emplace(a->dataEnd, a);
    } else {
        stats_.writes += 1;
        stats_.writeLatency.sample(double(a->dataEnd - a->arrival));
        stats_.bytesTransferred += mem_.config().blockBytes;
        counts_.writesOutstanding -= 1;
        if (perCore_)
            coreWriteQ_[a->tag] -= 1;
        if (lat_)
            lat_->record(*a);
        if (crit_)
            crit_->onComplete(*a);
        finishAccess(a);
    }
}

void
MemoryController::finishAccess(MemAccess *a)
{
    // Completions change only the global counts; the memo signatures
    // capture the band crossings global schedulers actually react to,
    // so no blanket invalidation is needed here.
    freeAccess(a);
}

bool
MemoryController::busy() const
{
    if (!pendingReads_.empty())
        return true;
    for (const auto &s : schedulers_)
        if (s->hasWork())
            return true;
    return false;
}

void
MemoryController::attachObservability(obs::Observability *o)
{
    for (auto &m : schedMemo_)
        m.version = 0;
    lat_ = o ? o->latency() : nullptr;
    sampler_ = o ? o->sampler() : nullptr;
    stalls_ = o ? o->stalls() : nullptr;
    audit_ = o ? o->auditor() : nullptr;
    intro_ = o ? o->introspect() : nullptr;
    crit_ = o ? o->critpath() : nullptr;
    perCore_ = o && o->config().perCoreMetrics;
    for (auto &s : schedulers_) {
        s->setAuditor(audit_);
        s->setIntrospect(intro_);
    }
    refreshEngineFlags();
}

void
MemoryController::sampleMetrics(Tick now)
{
    obs::prof::Scope prof(obs::prof::Phase::ObsExport);
    obs::MetricsSnapshot s;
    s.now = now;
    s.dataBusyCycles = mem_.dataBusyCycles();
    s.cmdBusyCycles = mem_.cmdBusyCycles();
    s.rowHits = stats_.rowHits;
    s.rowEmpties = stats_.rowEmpties;
    s.rowConflicts = stats_.rowConflicts;
    s.readsCompleted = stats_.reads;
    s.writesCompleted = stats_.writes;

    const auto sched = schedulerStats();
    if (auto it = sched.find("bursts_formed"); it != sched.end())
        s.burstsFormed = it->second;
    if (auto it = sched.find("burst_joins"); it != sched.end())
        s.burstJoins = it->second;

    s.channels = mem_.numChannels();
    s.readsOutstanding = counts_.readsOutstanding;
    s.writesOutstanding = counts_.writesOutstanding;
    const SchedulerParams params = cfg_.schedulerParams();
    s.rpActive = params.readPreemption &&
                 counts_.writesOutstanding < params.threshold;
    s.wpActive = params.writePiggyback &&
                 counts_.writesOutstanding > params.threshold;

    for (const auto &sc : schedulers_)
        sc->queueOccupancy(s.bankReadQ, s.bankWriteQ);

    s.bankRowHits = stats_.bankRowHits;
    s.bankRowAccesses = stats_.bankRowAccesses;
    if (stalls_) {
        const auto totals = stalls_->totals();
        s.stallCounts.assign(totals.begin(), totals.end());
    }
    if (intro_) {
        s.haveEngine = true;
        s.steppedCycles = intro_->steppedCycles();
        s.skippedCycles = intro_->skippedCycles();
    }
    if (perCore_) {
        s.coreReadQ = coreReadQ_;
        s.coreWriteQ = coreWriteQ_;
        s.coreRowHits = coreRowHits_;
        s.coreRowAccesses = coreRowAccesses_;
    }

    sampler_->sample(s);
}

void
MemoryController::flushMetrics(Tick end)
{
    if (crit_)
        crit_->flush(); // push buffered JSONL records to disk
    if (!sampler_ || end == 0)
        return;
    sampleMetrics(end - 1);
}

std::map<std::string, double>
MemoryController::schedulerStats() const
{
    std::map<std::string, double> merged;
    for (const auto &s : schedulers_)
        for (const auto &[k, v] : s->extraStats())
            merged[k] += v;
    return merged;
}

std::string
MemoryController::progressSnapshot(Tick now) const
{
    const auto &dcfg = mem_.config();
    char line[160];
    std::string out;
    std::snprintf(line, sizeof(line),
                  "controller @%llu: pool %zu/%zu (reads %zu, writes "
                  "%zu), pending data transfers %zu, completed r/w/fwd "
                  "%llu/%llu/%llu",
                  static_cast<unsigned long long>(now), inflightCount_,
                  cfg_.poolCap, counts_.readsOutstanding,
                  counts_.writesOutstanding, pendingReads_.size(),
                  static_cast<unsigned long long>(stats_.reads),
                  static_cast<unsigned long long>(stats_.writes),
                  static_cast<unsigned long long>(stats_.forwardedReads));
    out += line;
    if (!pendingReads_.empty()) {
        std::snprintf(line, sizeof(line),
                      "\n  next data completion @%llu",
                      static_cast<unsigned long long>(
                          pendingReads_.begin()->first));
        out += line;
    }
    for (std::uint32_t ch = 0; ch < schedulers_.size(); ++ch) {
        const Scheduler &s = *schedulers_[ch];
        const Tick ev = s.nextEventTick(now);
        std::snprintf(line, sizeof(line),
                      "\n  ch%u: queued reads %zu, writes %zu, "
                      "hasWork %d, nextEvent %s",
                      ch, s.readCount(), s.writeCount(),
                      int(s.hasWork()),
                      ev == kTickMax
                          ? "idle"
                          : std::to_string(
                                static_cast<unsigned long long>(ev))
                                .c_str());
        out += line;
        for (std::uint32_t r = 0; r < dcfg.ranksPerChannel; ++r) {
            const auto &rf = refresh_[ch * dcfg.ranksPerChannel + r];
            std::snprintf(line, sizeof(line),
                          "\n    rank%u: refresh %s, next due @%llu", r,
                          rf.pending ? "PENDING" : "idle",
                          static_cast<unsigned long long>(rf.nextDue));
            out += line;
            for (std::uint32_t b = 0; b < dcfg.banksPerRank; ++b) {
                const dram::Bank &bank =
                    mem_.bank({ch, r, b, 0, 0});
                if (!bank.isOpen())
                    continue;
                std::snprintf(line, sizeof(line),
                              "\n      bank%u: open row %u (act>=%llu "
                              "pre>=%llu rd>=%llu wr>=%llu)",
                              b, bank.openRow(),
                              static_cast<unsigned long long>(
                                  bank.actAllowedAt()),
                              static_cast<unsigned long long>(
                                  bank.preAllowedAt()),
                              static_cast<unsigned long long>(
                                  bank.rdAllowedAt()),
                              static_cast<unsigned long long>(
                                  bank.wrAllowedAt()));
                out += line;
            }
        }
    }
    return out;
}

} // namespace bsim::ctrl
