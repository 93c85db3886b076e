/**
 * @file
 * Burst scheduling — the paper's primary contribution (Section 3).
 *
 * Outstanding reads are clustered into bursts: groups of accesses to the
 * same row of the same bank, kept per bank in arrival order of each
 * burst's first access. Within a burst every access but the first is a
 * row hit, so data transfers run back to back. The mechanism is a
 * two-level scheduler:
 *
 *  - a per-bank *bank arbiter* (Figure 5) chooses the bank's ongoing
 *    access from its read bursts and write queue, implementing read
 *    preemption and write piggybacking under the static write-queue
 *    occupancy threshold;
 *  - a global per-channel *transaction scheduler* (Figure 6) issues, each
 *    memory cycle, the unblocked transaction with the best static
 *    priority (Table 2): column accesses within the last rank first
 *    (same bank before other banks, reads before writes), then precharge
 *    and activate (they do not use the data bus), and column accesses to
 *    other ranks last to avoid rank-to-rank turnaround bubbles.
 *
 * New reads join an existing burst for their row even while that burst is
 * being serviced; bursts within a bank are ordered by the arrival time of
 * their first access to prevent starvation.
 */

#ifndef BURSTSIM_CTRL_SCHEDULERS_BURST_HH
#define BURSTSIM_CTRL_SCHEDULERS_BURST_HH

#include <cstdint>
#include <vector>

#include "ctrl/flat_queue.hh"
#include "ctrl/scheduler.hh"

namespace bsim::ctrl
{

/** Burst scheduling with optional read preemption / write piggybacking. */
class BurstScheduler : public Scheduler
{
  public:
    explicit BurstScheduler(const SchedulerContext &ctx);

    void enqueue(MemAccess *a) override;
    Issued tick(Tick now) override;
    std::size_t readCount() const override { return reads_; }
    std::size_t writeCount() const override { return writes_; }
    bool hasWork() const override;
    std::map<std::string, double> extraStats() const override;
    void queueOccupancy(std::vector<std::uint32_t> &reads,
                        std::vector<std::uint32_t> &writes) const override;
    dram::StallCause stallScan(Tick now,
                               obs::StallAttribution &sink) const override;
    Tick nextEventTick(Tick now) const override;
    bool globallySensitive() const override { return true; }
    void onIdleSpan(Tick from, Tick span) override;

    /** Bands of the global write count Figure 5 compares: queue-full,
     *  above-threshold (piggyback gate) and below-threshold (preempt
     *  gate). No Figure 5 decision can change while all bits hold. */
    std::uint64_t
    globalSignature() const override
    {
        const std::size_t gw = ctx_.global->writesOutstanding;
        const std::size_t th = effectiveThreshold();
        return std::uint64_t(gw >= ctx_.params.writeCap) |
               std::uint64_t(gw > th) << 1 |
               std::uint64_t(gw < th) << 2;
    }

    /** A cluster of same-row reads within one bank (for tests). */
    struct Burst
    {
        std::uint32_t row = 0;
        Tick firstArrival = 0;
        FlatQueue<MemAccess *> reads;
    };

    /** Read-burst list of bank @p b (test introspection). */
    const FlatQueue<Burst> &burstsOfBank(std::uint32_t b) const
    {
        return banks_[b].bursts;
    }

  private:
    struct BankState
    {
        FlatQueue<Burst> bursts;        //!< read queue, burst-clustered
        FlatQueue<MemAccess *> writeQ;  //!< writes in arrival order
        MemAccess *ongoing = nullptr;
        bool ongoingFromBurst = false;   //!< ongoing came from front burst
        bool ongoingFirstOfBurst = false; //!< ongoing opened its burst
        bool endOfBurst = false;         //!< last access ended a burst
        bool frontStarted = false;       //!< front burst partially served
    };

    /** What the transaction scheduler reads of a bank's ongoing access,
     *  kept dense and refreshed whenever the bank is dirty. */
    struct Candidate
    {
        MemAccess *access = nullptr;
        Tick arrival = 0;
        dram::CmdType cmd = dram::CmdType::Precharge; //!< next transaction
        std::uint32_t rank = 0;
        bool read = false;
    };

    /** Figure 5: pick an ongoing access for bank @p b if it has none. */
    void arbitrate(std::uint32_t b, Tick now);

    /** Figure 5 lines 9-11: read preemption of an ongoing write. */
    void maybePreempt(std::uint32_t b, Tick now);

    /** Would maybePreempt() fire on bank @p b now? While it would, the
     *  bank stays dirty. */
    bool preemptDue(const BankState &bs) const;

    /** The Figure 5 move the arbiter of @p bs would make now (the
     *  horizon pin naming it), or HorizonPin::None. */
    HorizonPin moveOf(const BankState &bs) const;

    /** Oldest write in bank @p b directed to the bank's open row. */
    FlatQueue<MemAccess *>::iterator findPiggybackWrite(std::uint32_t b);

    /** Table 2 priority of bank @p b's candidate (1 = best). */
    int priorityOf(const Candidate &c, std::uint32_t b) const;

    /** Figure 6 lines 14-15: point the rank/bank locality state at the
     *  bank holding the oldest ongoing access, if any. */
    void pointAtOldest();

    /** Effective threshold for this cycle (static or dynamic, §7). */
    std::size_t effectiveThreshold() const;

    std::vector<BankState> banks_;
    std::vector<Candidate> cands_; //!< per bank; valid where occupied_
    /** Bank of the oldest ongoing access; -1 when unknown (recomputed
     *  from the candidates) or when no bank holds one. */
    std::int32_t oldest_ = -1;
    std::size_t reads_ = 0;
    std::size_t writes_ = 0;

    bool lastValid_ = false;
    std::uint32_t lastBank_ = 0; //!< flat index of last column access
    std::uint32_t lastRank_ = 0;

    std::uint64_t preemptions_ = 0;
    std::uint64_t piggybacks_ = 0;
    std::uint64_t burstsFormed_ = 0;
    std::uint64_t burstJoinCount_ = 0;

    /** Decayed read/write arrival counts for the dynamic threshold. */
    double readArrivals_ = 1.0;
    double writeArrivals_ = 1.0;
};

} // namespace bsim::ctrl

#endif // BURSTSIM_CTRL_SCHEDULERS_BURST_HH
