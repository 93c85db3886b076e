/**
 * @file
 * Top-level SDRAM device model: channels -> ranks -> banks plus the shared
 * busses, behind a two-call interface (canIssue / issue) that enforces
 * every timing constraint. Scheduling policies can only reorder; they can
 * never violate device timing, so differences between access reordering
 * mechanisms are purely ordering decisions, as in the paper.
 */

#ifndef BURSTSIM_DRAM_MEMORY_SYSTEM_HH
#define BURSTSIM_DRAM_MEMORY_SYSTEM_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "dram/address_map.hh"
#include "dram/backing_store.hh"
#include "dram/channel.hh"
#include "dram/command.hh"
#include "dram/config.hh"
#include "dram/power.hh"
#include "dram/stall.hh"

namespace bsim::dram
{

/** Result of issuing a command. */
struct IssueResult
{
    /** First cycle of the data burst (column accesses only). */
    Tick dataStart = 0;
    /** One past the last cycle of the data burst (column accesses only). */
    Tick dataEnd = 0;
};

/**
 * The issue constraints on one command, as a short list of (cause,
 * deadline) entries in report order: the command bus; a state gate
 * (WrongState, or RefreshDrain for an Activate) whose deadline is
 * kTickMax; the bank's own window with the cause the bank recorded;
 * then the rank windows (tRRD, tFAW for an Activate; tWTR for a Read)
 * and, for column accesses, the data-bus occupancy and the tRTRS/tRTW
 * turnaround, each moved back by the CAS/write latency. A RefreshAll
 * lists each bank's activate window, in bank order. An entry binds at
 * tick t while t < its deadline; no deadline depends on t.
 *
 * The four legality queries are derivations of this one list:
 *  - canIssue: no entry binds;
 *  - whyBlocked: the cause of the first binding entry, else None;
 *  - blockedUntil: that same entry's deadline, else t. The reported
 *    cause holds until then, so a stall span ending there never
 *    straddles a cause change. It is the change itself unless two
 *    entries share a cause (a RefreshAll behind two banks in tRP);
 *  - readyAt: the maximum of t and every deadline, which is kTickMax
 *    under a state gate — the exact earliest issue tick.
 */
class ConstraintList
{
  public:
    /** One constraint: @p cause blocks while the tick is < @p until. */
    struct Entry
    {
        StallCause cause;
        Tick until;
    };

    /** The longest list: a RefreshAll's command bus plus one entry
     *  per bank (a column access needs five). */
    static constexpr std::size_t kCapacity = 1 + kMaxBanksPerRank;

    ConstraintList() = default;
    ConstraintList(const ConstraintList &o) { *this = o; }
    ConstraintList &
    operator=(const ConstraintList &o)
    {
        // Copy only the used entries: the list is cached per bank.
        latest_ = o.latest_;
        size_ = o.size_;
        std::copy_n(o.entries_, size_, entries_);
        return *this;
    }

    /** Append a constraint (report order is append order). */
    void
    add(StallCause cause, Tick until)
    {
        entries_[size_++] = Entry{cause, until};
        if (until > latest_)
            latest_ = until;
    }

    /** The latest deadline (0 when nothing constrains). */
    Tick latest() const { return latest_; }

    const Entry *begin() const { return entries_; }
    const Entry *end() const { return entries_ + size_; }

    /** The first entry binding at @p t, or nullptr when none does. */
    const Entry *
    binding(Tick t) const
    {
        if (latest_ <= t)
            return nullptr;
        for (const Entry &e : *this)
            if (e.until > t)
                return &e;
        return nullptr;
    }

    StallCause
    whyBlocked(Tick t) const
    {
        const Entry *e = binding(t);
        return e ? e->cause : StallCause::None;
    }

    Tick
    blockedUntil(Tick t) const
    {
        const Entry *e = binding(t);
        return e ? e->until : t;
    }

    Tick readyAt(Tick t) const { return latest_ > t ? latest_ : t; }

  private:
    Tick latest_ = 0;
    std::uint32_t size_ = 0;
    // Entries past size_ stay uninitialised and are never read: a list
    // is built on every legality probe, so zeroing it would cost more
    // than the probe.
    Entry entries_[kCapacity];
};

/**
 * The complete simulated main memory.
 *
 * One command may issue per channel per cycle (split-transaction
 * command/address bus); column accesses additionally reserve the
 * channel's data bus. All checks are side-effect free via canIssue();
 * issue() applies the command and panics on any violation, so a buggy
 * scheduler fails loudly rather than silently cheating.
 */
class MemorySystem
{
  public:
    /** Build the device tree described by @p cfg. */
    explicit MemorySystem(const DramConfig &cfg);

    /** Configuration this system was built with. */
    const DramConfig &config() const { return cfg_; }

    /** Active timing parameter set. */
    const Timing &timing() const { return cfg_.timing; }

    /** Address decoder for this organization. */
    const AddressMap &addressMap() const { return map_; }

    /** Functional contents of memory. */
    BackingStore &store() { return store_; }
    const BackingStore &store() const { return store_; }

    /** Bank state at @p c. */
    const Bank &bank(const Coords &c) const;

    /** Rank holding @p c. */
    const Rank &rank(const Coords &c) const;

    /** Channel holding @p c. */
    const Channel &channel(const Coords &c) const;

    /** Row hit / empty / conflict classification for an access at @p c. */
    RowOutcome
    classify(const Coords &c) const
    {
        return bank(c).classify(c.row);
    }

    /**
     * The next transaction an access at @p c needs, derived from current
     * bank state: column access on a row hit, ACTIVATE on a row empty,
     * PRECHARGE on a row conflict.
     */
    CmdType nextCmdFor(const Coords &c, AccessType type) const;

    /** Is the channel's command bus free at @p now? */
    bool
    cmdBusFree(std::uint32_t channel, Tick now) const
    {
        return channels_[channel].cmdBusFree(now);
    }

    /**
     * Every DDR2 issue constraint on @p cmd, in report order: the one
     * encoding of the timing rules (see ConstraintList). Independent of
     * the probe tick, so callers may cache it until a command on the
     * channel, a refresh or a drain-gate flip changes device state.
     */
    ConstraintList constraints(const Command &cmd) const;

    /** May @p cmd legally issue at @p now? (includes command bus) */
    bool
    canIssue(const Command &cmd, Tick now) const
    {
        return constraints(cmd).latest() <= now;
    }

    /** The constraint blocking @p cmd at @p now, or None when the
     *  command may issue (ConstraintList::whyBlocked). */
    StallCause
    whyBlocked(const Command &cmd, Tick now) const
    {
        return constraints(cmd).whyBlocked(now);
    }

    /** When the constraint whyBlocked() reports expires
     *  (ConstraintList::blockedUntil). */
    Tick
    blockedUntil(const Command &cmd, Tick now) const
    {
        return constraints(cmd).blockedUntil(now);
    }

    /** The exact first tick >= @p now at which @p cmd may issue
     *  (ConstraintList::readyAt). */
    Tick
    readyAt(const Command &cmd, Tick now) const
    {
        return constraints(cmd).readyAt(now);
    }

    /** Issue @p cmd at @p now; panics if illegal. */
    IssueResult issue(const Command &cmd, Tick now);

    /** Total command-bus busy cycles, summed over channels. */
    std::uint64_t cmdBusyCycles() const;

    /** Total data-bus busy cycles, summed over channels. */
    std::uint64_t dataBusyCycles() const;

    /** Address bus utilization over @p elapsed ticks. */
    double addressBusUtilization(Tick elapsed) const;

    /** Data bus utilization over @p elapsed ticks. */
    double dataBusUtilization(Tick elapsed) const;

    /** Number of channels. */
    std::uint32_t numChannels() const
    {
        return std::uint32_t(channels_.size());
    }

    /** Attach a command log; every subsequent issue() is recorded.
     *  Pass nullptr to detach. The log is not owned. */
    void attachLog(class CommandLog *log) { log_ = log; }

    /** Attach a command-stream observer (e.g. the protocol auditor);
     *  every subsequent issue() is reported. Pass nullptr to detach.
     *  The observer is not owned. */
    void attachObserver(class CommandObserver *obs) { observer_ = obs; }

    /** Predictive page policy: fraction of column accesses the predictor
     *  chose to auto-precharge (diagnostics; 0 for static policies). */
    double predictedCloseRate() const;

    /** Issue counts per command type (feeds the energy model). */
    const CommandCounts &commandCounts() const { return cmdCounts_; }

    /** Mutable rank access (used by the controller's refresh engine). */
    Rank &
    rankRef(std::uint32_t channel, std::uint32_t rank)
    {
        return channels_[channel].rank(rank);
    }

    /**
     * Refresh-drain gate: while set for a rank, Activate commands to it
     * are reported blocked (StallCause::RefreshDrain), so schedulers
     * stop opening rows and the rank's banks can close for the pending
     * RefreshAll. Without this gate a busy scheduler can re-activate
     * banks as fast as the refresh engine precharges them and starve
     * the refresh forever. Set and cleared by the controller's refresh
     * engine; never by the device itself.
     */
    void
    setRefreshDrain(std::uint32_t channel, std::uint32_t rank, bool on)
    {
        refreshDrain_[std::size_t(channel) * cfg_.ranksPerChannel +
                      rank] = on;
    }

    /** Is the refresh-drain gate set for this rank? */
    bool
    refreshDraining(std::uint32_t channel, std::uint32_t rank) const
    {
        return refreshDrain_[std::size_t(channel) *
                                 cfg_.ranksPerChannel +
                             rank] != 0;
    }

  private:
    Bank &bankRef(const Coords &c);

    /** Per-bank 2-bit saturating open/close predictor (PagePolicy::
     *  Predictive): 0-1 predict "stay open", 2-3 predict "close". */
    std::uint8_t &predictorOf(const Coords &c);
    bool decideAutoPrecharge(const Coords &c);
    void trainPredictor(const Command &cmd);

    DramConfig cfg_;
    AddressMap map_;
    BackingStore store_;
    std::vector<Channel> channels_;
    class CommandLog *log_ = nullptr;
    class CommandObserver *observer_ = nullptr;
    std::vector<std::uint8_t> predictor_;
    std::vector<std::uint8_t> refreshDrain_;
    std::uint64_t predCloses_ = 0;
    std::uint64_t predColumns_ = 0;
    CommandCounts cmdCounts_;
};

} // namespace bsim::dram

#endif // BURSTSIM_DRAM_MEMORY_SYSTEM_HH
