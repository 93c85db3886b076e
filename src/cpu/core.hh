/**
 * @file
 * Simplified out-of-order core model (Table 3 baseline: 4 GHz, 8-way,
 * 196-entry ROB, 32-entry LSQ).
 *
 * The model captures exactly what the paper's mechanisms exercise:
 *  - multiple outstanding misses (non-blocking caches + ROB window),
 *  - read latency converting into pipeline stalls via in-order retire,
 *  - dependent (pointer-chase) loads limiting memory-level parallelism,
 *  - stores retiring without waiting for memory, so main-memory write
 *    traffic only throttles the CPU through back-pressure (a full
 *    write queue blocking admission blocks fills too).
 */

#ifndef BURSTSIM_CPU_CORE_HH
#define BURSTSIM_CPU_CORE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "common/types.hh"
#include "cpu/cache_hierarchy.hh"
#include "trace/instr.hh"

namespace bsim::cpu
{

/** Core parameters (Table 3 defaults). */
struct CoreConfig
{
    std::uint32_t issueWidth = 8;
    std::uint32_t robSize = 196;
    std::uint32_t lsqSize = 32;
    std::uint32_t computeLatency = 1; //!< CPU cycles
};

/** The out-of-order core. */
class Core
{
  public:
    /** Build a core pulling from @p trace and accessing @p mem. */
    Core(const CoreConfig &cfg, CacheHierarchy &mem,
         trace::TraceSource &trace);

    /** Advance one CPU cycle (@p now is the CPU cycle number). */
    void cpuCycle(std::uint64_t now);

    /** A memory fill for @p block_addr returned at CPU cycle @p now. */
    void onMemResponse(Addr block_addr, std::uint64_t now);

    /** True when the trace is exhausted and the ROB has drained. */
    bool done() const { return traceEnded_ && rob_.empty(); }

    /** Instructions retired so far. */
    std::uint64_t retired() const { return retired_; }

    /** Loads that went to the cache hierarchy. */
    std::uint64_t loads() const { return loads_; }

    /** Stores performed at retirement. */
    std::uint64_t stores() const { return stores_; }

    /** Cycles retirement was blocked by an unready ROB head. */
    std::uint64_t headStallCycles() const { return headStalls_; }

    /** Cycles retirement was blocked by memory back-pressure (stores). */
    std::uint64_t storeStallCycles() const { return storeStalls_; }

    /**
     * Cycles in which some access (a ready load or the store head) was
     * held back because every MSHR was busy, or because the memory port
     * was full (@p cause FsbFull).
     */
    std::uint64_t retryCycles(RetryCause cause) const
    {
        return retryCycles_[std::size_t(cause)];
    }

    /** True while an access waits for the hierarchy's capacity. */
    bool parked() const { return parked_ != 0; }

    /** Current ROB occupancy. */
    std::size_t robOccupancy() const { return rob_.size(); }

    /**
     * True when cpuCycle(@p now) would be a pure head-stall: retirement
     * blocked on an unready head, no pending load able to start, and
     * issue blocked without pulling from the trace. Such a cycle's only
     * effect is one headStalls_ increment, so the cycle-skipping engine
     * may batch it. Cache lookups mutate hit/miss counters and LRU, so
     * any cycle that might call into the hierarchy is not quiescent. A
     * parked access (one the back-pressured hierarchy refused) is not
     * retried until capacity frees, so it does not break quiescence.
     */
    bool quiescentAt(std::uint64_t now) const;

    /**
     * Next CPU cycle at which this core leaves quiescence on its own:
     * the head's readyAt or the first producer wakeup of a blocked
     * pending load. kTickMax when only a memory response or freed
     * capacity can wake it. Only meaningful while quiescentAt(now)
     * holds.
     */
    std::uint64_t nextLocalEventCpu(std::uint64_t now) const;

    /**
     * Bulk-apply @p n skipped quiescent cycles: head stalls, or store
     * stalls behind a parked store head, plus their retry cycles.
     */
    void skipStallCycles(std::uint64_t n);

  private:
    struct RobEntry
    {
        trace::TraceInstr::Op op;
        Addr addr = 0;
        std::uint64_t seq = 0;
        std::uint64_t readyAt = kTickMax; //!< CPU cycle result is ready
        std::uint64_t producerSeq = kTickMax; //!< dep-chain producer
        bool started = false; //!< load sent to the hierarchy
        bool isChainHead = false; //!< member of a dependence chain
        bool parked = false; //!< refused; waits for freed capacity
    };

    RobEntry *entryOf(std::uint64_t seq);
    const RobEntry *entryOf(std::uint64_t seq) const;
    bool producerReady(const RobEntry &e, std::uint64_t now) const;
    /** Try to send a load to the hierarchy; false on resource retry. */
    bool startLoad(RobEntry &e, std::uint64_t now);
    /** Record whether the last try of @p e was refused. */
    void setParked(RobEntry &e, bool parked);
    void retire(std::uint64_t now);
    void startPendingLoads(std::uint64_t now);
    void issue(std::uint64_t now);

    CoreConfig cfg_;
    CacheHierarchy &mem_;
    trace::TraceSource &trace_;

    std::deque<RobEntry> rob_;
    std::uint64_t frontSeq_ = 0; //!< seq of rob_.front()
    std::uint64_t nextSeq_ = 0;
    std::deque<std::uint64_t> pendingLoads_; //!< waiting to start
    std::vector<std::uint64_t> lastChainSeq_; //!< per chain id
    std::size_t memOpsInRob_ = 0;

    trace::TraceInstr lookahead_;
    bool lookaheadValid_ = false;
    bool traceEnded_ = false;

    std::uint64_t retired_ = 0;
    std::uint64_t loads_ = 0;
    std::uint64_t stores_ = 0;
    std::uint64_t headStalls_ = 0;
    std::uint64_t storeStalls_ = 0;
    std::uint32_t parked_ = 0; //!< parked loads plus a parked store head
    /** Parked accesses sit out this cycle: the hierarchy was still
     *  back-pressured when the cycle began. */
    bool holdParked_ = false;
    std::uint64_t retryCycles_[2] = {}; //!< by RetryCause
};

} // namespace bsim::cpu

#endif // BURSTSIM_CPU_CORE_HH
