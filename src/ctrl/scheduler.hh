/**
 * @file
 * The access-scheduler policy interface.
 *
 * One Scheduler instance manages the queues of one memory channel. Every
 * memory cycle the controller offers the scheduler the channel's command
 * slot; the scheduler may issue at most one SDRAM transaction through the
 * shared timing engine. Policies therefore differ only in *ordering* —
 * the engine rejects anything that violates device timing.
 */

#ifndef BURSTSIM_CTRL_SCHEDULER_HH
#define BURSTSIM_CTRL_SCHEDULER_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "ctrl/access.hh"
#include "ctrl/bank_mask.hh"
#include "dram/memory_system.hh"
#include "obs/selfprof.hh"

namespace bsim::obs
{
class EngineIntrospect;
class ProtocolAuditor;
class StallAttribution;
} // namespace bsim::obs

namespace bsim::ctrl
{

/**
 * Why a scheduler's nextEventTick returned the bound it did — set as a
 * side effect of the most recent nextEventTick call and read back by
 * the controller for wake-reason attribution (engine introspection).
 * Purely observational: pins never influence the computed horizon.
 */
enum class HorizonPin : std::uint8_t
{
    None,         //!< no nextEventTick call yet / channel idle
    ArbFill,      //!< an idle bank slot could be filled right now
    Preempt,      //!< a read preemption decision is pending
    DrainFlip,    //!< the write drain mode is about to flip
    Piggyback,    //!< an end-of-burst piggyback window is open
    WriteDrain,   //!< a postponed write is about to be serviced
    Timing,       //!< bounded by a device-timing release
    Epoch,        //!< a policy epoch boundary (quantum / blacklist
                  //!< clearing / batch formation) binds the horizon
    Conservative, //!< the policy cannot bound itself (default impl)
};

/** Controller-wide occupancy shared with per-channel schedulers. */
struct GlobalCounts
{
    std::size_t readsOutstanding = 0;
    std::size_t writesOutstanding = 0; //!< writes still in write queues
};

/** Static knobs a scheduler may consult. */
struct SchedulerParams
{
    /** Write-queue capacity (paper: 64, shared across channels). */
    std::size_t writeCap = 64;
    /** Burst threshold: preempt while writes < threshold, piggyback
     *  while writes > threshold (paper Section 3.2; best value 52). */
    std::size_t threshold = 52;
    /** Enable read preemption (Burst_RP / Burst_TH / Intel_RP). */
    bool readPreemption = false;
    /** Enable write piggybacking (Burst_WP / Burst_TH). */
    bool writePiggyback = false;

    // --- extensions beyond the paper's evaluated design space ---

    /** Section 7 future work: compute the threshold on the fly from the
     *  observed read/write mix instead of using the static value. */
    bool dynamicThreshold = false;
    /** Section 7 future work: order bursts within a bank by size
     *  (largest first) instead of by first-access arrival time. */
    bool sortBurstsBySize = false;
    /** Section 7 future work: schedule critical reads (those a
     *  dependence chain is blocked on) first inside their burst.
     *  Changing intra-burst order does not affect the burst's total
     *  bandwidth, only which dependent instructions unblock sooner. */
    bool criticalFirst = false;
    /** Ablation: when false, the Table 2 priorities ignore rank locality
     *  (column accesses to other ranks are no longer demoted). */
    bool rankAware = true;

    // --- contention-aware scheduler zoo (ROADMAP item 1) ---

    /** Watermark write-drain mode (HI_WM/LO_WM + bus-turnaround
     *  hysteresis; SNIPPETS.md snippets 1-2). A policy axis of the
     *  contention families; the paper's Table 4 mechanisms keep their
     *  original drain rules and ignore it. */
    bool watermarkDrain = false;
    /** Drain-entry watermark; 0 derives 3/4 of writeCap. */
    std::size_t hiWatermark = 0;
    /** Drain-exit watermark; 0 derives 1/4 of writeCap. */
    std::size_t loWatermark = 0;
    /** Policy-level bus-turnaround hold after a drain-mode flip: the
     *  channel quiesces this many memory cycles so read/write bursts
     *  cluster instead of thrashing the data-bus direction. */
    Tick drainTurnaround = 8;

    /** PAR-BS: requests marked per (thread, bank) when a batch forms. */
    std::size_t parbsMarkingCap = 5;
    /** ATLAS: quantum length in memory cycles (attained-service ranks
     *  are recomputed on these boundaries; scaled down from the
     *  paper's 10M cycles to match this testbench's short runs). */
    Tick atlasQuantum = 4096;
    /** BLISS: consecutive same-thread services before blacklisting. */
    std::size_t blissThreshold = 4;
    /** BLISS: blacklist clearing interval in memory cycles. */
    Tick blissClearInterval = 8192;
};

/** Everything a scheduler needs from its environment. */
struct SchedulerContext
{
    dram::MemorySystem *mem = nullptr;
    std::uint32_t channel = 0;
    const GlobalCounts *global = nullptr;
    SchedulerParams params;
};

/**
 * Abstract access reordering mechanism for one channel.
 *
 * Subclasses own the queue structures (the paper's mechanisms differ in
 * queue shape: unified per-bank queues, per-bank read queues plus a write
 * queue, or per-bank burst lists).
 */
class Scheduler
{
  public:
    /** What (if anything) was issued during a tick. */
    struct Issued
    {
        MemAccess *access = nullptr; //!< access whose transaction issued
        dram::CmdType cmd = dram::CmdType::Precharge;
        bool columnAccess = false;   //!< access left the queues this tick
        Tick dataStart = 0;          //!< valid when columnAccess
        Tick dataEnd = 0;            //!< valid when columnAccess
    };

    explicit Scheduler(const SchedulerContext &ctx) : ctx_(ctx)
    {
        const std::uint32_t n = ctx_.mem ? numBanks() : 0;
        bounds_.resize(n);
        boundMax_.assign(n, 0);
        boundEpoch_.assign(n, 0);
        dirty_ = BankMask(n);
        occupied_ = BankMask(n);
    }
    virtual ~Scheduler() = default;

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /** Add an admitted access to this channel's queues. */
    virtual void enqueue(MemAccess *a) = 0;

    /** Offer the command slot for @p now; issue at most one transaction. */
    virtual Issued tick(Tick now) = 0;

    /** Reads waiting or in service in this channel. */
    virtual std::size_t readCount() const = 0;

    /** Writes waiting or in service in this channel. */
    virtual std::size_t writeCount() const = 0;

    /** True when any access is queued or in service. */
    virtual bool hasWork() const = 0;

    /**
     * Latest still-queued write covering block @p block_base, for read
     * forwarding (paper Figure 4, lines 2-4); nullptr when none.
     * Virtual so decorating schedulers (e.g. the fault-injection
     * wrapper) can delegate to the wrapped policy's index.
     */
    virtual MemAccess *
    findWrite(Addr block_base) const
    {
        auto it = latestWrite_.find(block_base);
        return it == latestWrite_.end() ? nullptr : it->second;
    }

    /** Policy-specific statistics (e.g. preemption/piggyback counts). */
    virtual std::map<std::string, double> extraStats() const { return {}; }

    /**
     * Explain an idle command slot: called by the controller only on
     * cycles where tick() issued nothing (and stall attribution is on),
     * never on the issue path. Returns the channel-level stall cause —
     * what blocked the access the policy would have served — and may
     * deepen it with per-bank causes via @p sink.noteBankStall().
     *
     * The default cannot see policy queues, so it reports the coarse
     * split only: ArbLoss when work exists, NoWork otherwise.
     */
    virtual dram::StallCause stallScan(Tick now,
                                       obs::StallAttribution &sink) const;

    /**
     * The blocked access behind the channel-level cause the most recent
     * stallScan() returned — the critical-path tracer's stall victim.
     * nullptr when the cause had no specific queued access behind it
     * (NoWork, or a policy-level fallback with nothing nominated).
     * Purely observational: reading it never changes scheduling.
     */
    virtual const MemAccess *lastStallVictim() const
    {
        return stallVictim_;
    }

    /**
     * Earliest future tick at which this channel might issue a command
     * or change observable state, assuming no new work arrives: the
     * cycle-skipping engine's per-channel horizon. Must never overshoot
     * — returning @p now (skip nothing) is always safe; returning a tick
     * past an issue, arbitration fill, preemption, or any other state
     * change is a correctness bug (the equivalence suite catches it).
     * kTickMax means "idle until new work arrives".
     *
     * The default cannot see policy queues, so it is maximally
     * conservative: @p now whenever any work exists.
     */
    virtual Tick
    nextEventTick(Tick now) const
    {
        pin_ = hasWork() ? HorizonPin::Conservative : HorizonPin::None;
        return hasWork() ? now : kTickMax;
    }

    /** Why the most recent nextEventTick returned its bound. */
    HorizonPin lastHorizonPin() const { return pin_; }

    /**
     * Tell the scheduler it is driving the event-driven engine: it may
     * maintain horizon caches keyed on the monotone evolution of device
     * timing state (deadlines only move later, except through this
     * channel's own issues and the refresh engine — see
     * onExternalCommand()). Off by default so the step engine stays a
     * cache-free per-cycle reference. Virtual (like the other engine
     * flags) so decorating schedulers can forward the flag to the
     * wrapped policy — the inner scheduler computes the bounds.
     */
    virtual void setEventDriven(bool on) { eventDriven_ = on; }

    /**
     * The controller's refresh engine issued a command (Precharge or
     * RefreshAll) on this channel — or a refresh-drain gate flipped:
     * channel timing state changed outside the scheduler's own issue
     * path, so every cached bank bound is stale. Overrides must call
     * the base (or invalidateBounds()) to keep the shared cache exact.
     */
    virtual void
    onExternalCommand()
    {
        invalidateBounds();
        markAllDirty(); // open rows feed nextCmd and the piggyback check
    }

    /**
     * Every bank's arbitration inputs may have changed: the next tick()
     * re-runs every bank arbiter, as the full per-tick scan did. Called
     * by the scheduler itself on channel-wide events, and before every
     * tick by the full-scan oracle (FullScanScheduler), whose results
     * must equal the incremental ones byte for byte.
     */
    virtual void markAllDirty() { dirty_.setAll(); }

    /**
     * Allow or forbid the per-bank bound cache (and any policy-level
     * memo). On by default; `--no-horizon-memo` turns it off so the
     * fuzzer can difference introspection totals cached vs uncached.
     */
    virtual void setHorizonMemo(bool on) { horizonMemo_ = on; }

    /**
     * Choose which derivation of the cached constraint list bankBound()
     * returns: the exact issue tick (ConstraintList::readyAt) when on,
     * the first-binding deadline (ConstraintList::blockedUntil) when
     * off. The controller turns it off while stall causes are
     * attributed: attribution spans must stop where the reported cause
     * changes, exact bounds deliberately do not. Both derivations agree
     * on legality (`bound <= now`).
     */
    virtual void setExactBounds(bool on) { exactBounds_ = on; }

    /**
     * A band signature over the global counters this policy's
     * arbitration actually compares against (write-queue watermarks,
     * burst thresholds). The controller's per-channel horizon memo for
     * a globally-sensitive policy stays valid while this signature and
     * the channel's queue version both hold, so unrelated count drift
     * (e.g. another channel completing reads) no longer forces a
     * re-derivation. Policies returning true from globallySensitive()
     * must override this to cover every banded comparison they make.
     */
    virtual std::uint64_t globalSignature() const { return 0; }

    /**
     * Does the issue decision read state outside this channel — the
     * global read/write counts (GlobalCounts)? The controller's horizon
     * memo must then be invalidated whenever those counts change, not
     * only on this channel's own enqueues and issues. Policies with
     * write-queue thresholds or drain modes (Intel, Burst) return true.
     */
    virtual bool globallySensitive() const { return false; }

    /**
     * Notify the scheduler that ticks [@p from, @p from + @p span) were
     * skipped as dead cycles. Policies whose idle tick() has an
     * idempotent side effect (Burst's last-serviced-bank tracking)
     * replay it here once; the default idle tick is a pure no-op.
     */
    virtual void onIdleSpan(Tick from, Tick span)
    {
        (void)from;
        (void)span;
    }

    /** Burst-invariant audit hook sink; nullptr when auditing is off. */
    virtual void setAuditor(obs::ProtocolAuditor *auditor)
    {
        auditor_ = auditor;
    }

    /** Engine-introspection sink (horizon-cache hit/miss counters);
     *  nullptr when the pillar is off. */
    virtual void setIntrospect(obs::EngineIntrospect *intro)
    {
        intro_ = intro;
    }

    /**
     * Append this channel's per-bank queued access counts (waiting or
     * in service) to @p reads / @p writes — numBanks() entries each, in
     * flat rank-major bank order. Called by the metrics sampler once
     * per epoch, never on the issue path. The default reports zeros so
     * external policies need not implement it.
     */
    virtual void
    queueOccupancy(std::vector<std::uint32_t> &reads,
                   std::vector<std::uint32_t> &writes) const
    {
        reads.insert(reads.end(), numBanks(), 0);
        writes.insert(writes.end(), numBanks(), 0);
    }

  protected:
    /** Banks on this channel (rank-major flat index). */
    std::uint32_t
    numBanks() const
    {
        const auto &cfg = ctx_.mem->config();
        return cfg.ranksPerChannel * cfg.banksPerRank;
    }

    /** Flat bank index of @p c on this channel. */
    std::uint32_t
    bankIndex(const dram::Coords &c) const
    {
        return c.rank * ctx_.mem->config().banksPerRank + c.bank;
    }

    /** Next transaction @p a needs given current bank state. */
    dram::CmdType
    nextCmd(const MemAccess *a) const
    {
        return ctx_.mem->nextCmdFor(a->coords, a->type);
    }

    /** May @p a's next transaction issue at @p now? */
    bool
    canIssueFor(const MemAccess *a, Tick now) const
    {
        obs::prof::Scope prof(obs::prof::Phase::TimingCheck);
        dram::Command cmd{nextCmd(a), a->coords, a->id};
        return ctx_.mem->canIssue(cmd, now);
    }

    /** First constraint blocking bank @p b's candidate @p a at
     *  @p now (reads the cached constraint list). */
    dram::StallCause
    blockOf(std::uint32_t b, const MemAccess *a, Tick now) const
    {
        refreshBound(b, a);
        return bounds_[b].whyBlocked(now);
    }

    /** Is the per-bank constraint cache usable? Every entry of a
     *  constraint list is an absolute deadline or a state gate that
     *  only this channel's commands, a refresh or a drain-gate flip
     *  move, so a cached list stays *equal* to a fresh one until
     *  invalidateBounds() or clearBound(). */
    bool
    cacheOn() const
    {
        return eventDriven_ && horizonMemo_;
    }

    /** Every cached bank bound is stale (a command issued on this
     *  channel, a drain gate flipped, a refresh fired). */
    void invalidateBounds() const { cmdEpoch_ += 1; }

    /** Bank @p b's probe candidate changed (new front / new ongoing):
     *  its cached bound no longer describes the right command. */
    void clearBound(std::uint32_t b) const { boundEpoch_[b] = 0; }

    /**
     * Make bank @p b's cached constraint list describe candidate
     * @p a's next transaction: a no-op while nothing on this channel
     * changed since it was computed; recomputed every call when the
     * cache is off.
     */
    void
    refreshBound(std::uint32_t b, const MemAccess *a) const
    {
        if (cacheOn() && boundEpoch_[b] == cmdEpoch_) {
            if (intro_)
                noteBoundHit();
            return;
        }
        recomputeBound(b, a);
    }

    /** refreshBound()'s miss path. */
    void recomputeBound(std::uint32_t b, const MemAccess *a) const;

    /** Count a bound-cache hit (engine introspection). */
    void noteBoundHit() const;

    /**
     * The engine-facing issue bound for bank @p b's candidate @p a at
     * @p now: the exact issue tick under exact bounds, the
     * first-binding deadline otherwise (see setExactBounds()). Either
     * way `result <= now` is the legality predicate and `result > now`
     * a sound wake tick, so one call serves as probe and horizon.
     */
    Tick
    bankBound(std::uint32_t b, const MemAccess *a, Tick now) const
    {
        refreshBound(b, a);
        if (exactBounds_)
            return std::max(now, boundMax_[b]); // ConstraintList::readyAt
        return bounds_[b].blockedUntil(now);
    }

    /**
     * Issue @p a's next transaction (must be legal). Classifies the row
     * outcome on the access's first transaction and fills in an Issued
     * record; on a column access also stamps colIssuedAt / dataEnd.
     */
    Issued issueFor(MemAccess *a, Tick now);

    /** Mark every bank dirty when globalSignature() moved since the
     *  last call: a band flip can change any bank's decision. */
    void
    syncSignature()
    {
        if (const std::uint64_t sig = globalSignature(); sig != sig_) {
            sig_ = sig;
            markAllDirty();
        }
    }

    /** Has globalSignature() moved since the last syncSignature()? A
     *  const horizon query must then treat every bank as dirty. */
    bool signatureMoved() const { return globalSignature() != sig_; }

    /** Is @p f true for a bank that may have an arbitration move: a
     *  dirty one, or any one when @p all (the band signature moved
     *  since the last tick)? Visits banks in ascending order. */
    template <typename F>
    bool
    anyMovable(bool all, F &&f) const
    {
        if (!all)
            return dirty_.anyOf(f);
        for (std::uint32_t b = 0; b < numBanks(); ++b)
            if (f(b))
                return true;
        return false;
    }

    /** Track @p a as the latest write to its block (on write enqueue). */
    void
    noteWriteEnqueued(MemAccess *a)
    {
        latestWrite_[a->addr] = a;
    }

    /** Drop @p a from the forwarding index (on write issue). */
    void
    noteWriteIssued(MemAccess *a)
    {
        auto it = latestWrite_.find(a->addr);
        if (it != latestWrite_.end() && it->second == a)
            latestWrite_.erase(it);
    }

    SchedulerContext ctx_;
    obs::ProtocolAuditor *auditor_ = nullptr;
    obs::EngineIntrospect *intro_ = nullptr; //!< nullptr = pillar off
    bool eventDriven_ = false; //!< horizon caches allowed (skip engine)
    bool horizonMemo_ = true;  //!< bound caches permitted (debug flag)
    bool exactBounds_ = false; //!< bankBound() = readyAt, not blockedUntil
    /** Per-bank constraint list of the bank's candidate, cached while
     *  boundEpoch_ matches cmdEpoch_ (exact under the own-channel-
     *  command invalidation discipline; see cacheOn()). */
    mutable std::vector<dram::ConstraintList> bounds_;
    /** Each cached list's latest deadline, kept dense so the exact
     *  bound's cache hit is one compare. */
    mutable std::vector<Tick> boundMax_;
    mutable std::vector<std::uint64_t> boundEpoch_;
    mutable std::uint64_t cmdEpoch_ = 1; //!< 0 is the "stale" sentinel
    /**
     * Incremental arbitration (the Table 4 families). A bank is dirty
     * when an event since its arbiter last ran may change what that
     * arbiter decides — an enqueue, an issue from the bank, a
     * preemption, a refresh command, a band-signature flip, or a
     * channel-wide release (the families list theirs). tick() runs
     * arbiters on dirty banks only; a clean bank's would be a no-op.
     */
    BankMask dirty_;
    /** Banks holding a candidate the transaction pick considers (an
     *  ongoing access, or a FIFO front). */
    BankMask occupied_;
    /** globalSignature() at the last syncSignature(); the initial
     *  sentinel makes the first tick mark every bank. */
    std::uint64_t sig_ = ~std::uint64_t{0};
    /** Set by nextEventTick implementations at each bound site. */
    mutable HorizonPin pin_ = HorizonPin::None;
    /** Set by stallScan implementations: the access behind the returned
     *  channel-level cause (see lastStallVictim()). */
    mutable const MemAccess *stallVictim_ = nullptr;

  private:
    std::unordered_map<Addr, MemAccess *> latestWrite_;
};

} // namespace bsim::ctrl

#endif // BURSTSIM_CTRL_SCHEDULER_HH
