/**
 * @file
 * Per-access causal critical-path tracing: explain *why each access*
 * was slow, not just where channel-cycles went in aggregate.
 *
 * For every MemAccess the tracer accumulates a blame vector over the
 * StallCause taxonomy. The charges partition the measured latency
 * exactly — the per-access telescoping identity:
 *
 *     sum over causes of blame[cause] == dataEnd - arrival
 *
 * Construction: the queued phase [arrival, colIssuedAt] decomposes into
 * own command-issue cycles (PrepIssue), cycles where this access was
 * the scheduler's stall victim (charged with the scan cause, or with
 * TimingDataBus plus a blocking-burst back-pointer while the data bus
 * streamed someone else's burst), and a non-negative residual charged
 * to ArbLoss (slots spent on other accesses or the refresh engine).
 * The service tail (colIssuedAt, dataEnd) splits into the CAS/write gap
 * (PendingData) and the burst itself (DataTransfer). Forwarded reads
 * charge their whole (short) latency to PendingData. Violations throw
 * an internal SimError rather than silently mis-summing.
 *
 * Victim charges are cut from the aggregate stall accountant's own
 * classification: StallAttribution hands every classified segment
 * (cause, cycles, owner of the streaming burst) to noteSegment(), under
 * both engines, so the two accountings cannot drift apart.
 */

#ifndef BURSTSIM_OBS_CRITPATH_HH
#define BURSTSIM_OBS_CRITPATH_HH

#include <array>
#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "ctrl/access.hh"
#include "dram/stall.hh"

namespace bsim
{
class JsonWriter;
}

namespace bsim::obs
{

/** Per-access causal blame tracer (the fifth observability pillar). */
class CritPathTracer
{
  public:
    using Counts = std::array<std::uint64_t, dram::kNumStallCauses>;

    /** A finished access with its decomposed critical path. */
    struct Completed
    {
        std::uint64_t id = 0;
        std::uint64_t tag = 0;       //!< requester (core) id
        std::uint64_t blockedBy = 0; //!< last burst owner that held the bus
        bool write = false;
        bool forwarded = false;
        bool critical = false;
        dram::Coords coords;
        dram::RowOutcome outcome = dram::RowOutcome::Empty;
        bool outcomeValid = false;
        Tick arrival = 0;
        Tick colIssuedAt = 0; //!< kTickMax for forwarded reads
        Tick dataStart = 0;
        Tick dataEnd = 0;
        std::uint64_t latency = 0;
        Counts blame{};
    };

    /** Per-requester rollup over completed accesses. */
    struct CoreRollup
    {
        std::uint64_t count = 0;
        std::uint64_t latencySum = 0;
        std::uint64_t rowHits = 0;
        std::uint64_t rowAccesses = 0;
        Counts blame{};
    };

    /**
     * When @p jsonl_path is non-empty, every completed access is
     * streamed there as one JSON object per line. An unwritable path
     * throws a resource SimError up front.
     */
    explicit CritPathTracer(const std::string &jsonl_path);

    // ----- controller and accountant hooks -----

    /** An access entered the controller's pool. */
    void onAdmit(const ctrl::MemAccess &a);

    /** The scheduler issued a command for @p a (one own slot). */
    void noteIssue(const ctrl::MemAccess &a);

    /**
     * The stall accountant classified @p cycles channel-cycles as
     * @p attr while the scan had nominated @p victim (nullptr on a used
     * slot or when no queued access stood behind the cause); @p owner
     * is the access whose burst was streaming. Charges the victim.
     */
    void noteSegment(const ctrl::MemAccess *victim, dram::StallCause attr,
                     std::uint64_t cycles, std::uint64_t owner);

    /** @p a finished (read data arrived / write left the CPU's view):
     *  close its blame chain and enforce the telescoping identity. */
    void onComplete(const ctrl::MemAccess &a);

    /** Flush the JSONL stream (end of run; records may be read while
     *  the tracer is still alive). */
    void flush();

    // ----- queries -----

    /** Accesses completed so far. */
    std::uint64_t completedCount() const { return completed_; }

    /** Sum of completed access latencies. */
    std::uint64_t latencyTotal() const { return latencyTotal_; }

    /** Per-cause blame summed over all completed accesses. */
    const Counts &blameTotals() const { return blameTotals_; }

    /** Does total blame telescope to total latency? (Per access it is
     *  enforced at completion; this is the aggregate restatement.) */
    bool identityHolds() const;

    /** FNV-1a digest over the emitted JSONL stream (also maintained
     *  when no file is attached) — engine byte-identity in one word. */
    std::uint64_t digest() const { return digest_; }

    /** Top-K slowest completed accesses, latency-descending (ties:
     *  lower id first). */
    const std::vector<Completed> &topSlowest() const { return top_; }

    /** Per-requester rollups, tag-ascending. */
    const std::map<std::uint64_t, CoreRollup> &perCore() const
    {
        return rollups_;
    }

    /** Test hook: keep every Completed record (unbounded memory). */
    void setRetainCompleted(bool on) { retain_ = on; }
    const std::vector<Completed> &retained() const { return retained_; }

    /** The result JSON's critical_path section. */
    void writeJson(JsonWriter &w) const;

    /** Human-readable top-K table plus per-core rollups. */
    void writeText(std::ostream &os) const;

  private:
    /** Blame being accumulated for an in-flight access. */
    struct Live
    {
        Counts waits{};              //!< victim charges by cause
        std::uint64_t ownIssues = 0; //!< own command slots used
        std::uint64_t blockedBy = 0; //!< last bus-blocking burst owner
    };

    void finalize(const ctrl::MemAccess &a, Completed &&c);
    void emit(const Completed &c);

    std::unordered_map<std::uint64_t, Live> live_;

    std::uint64_t completed_ = 0;
    std::uint64_t latencyTotal_ = 0;
    Counts blameTotals_{};
    std::vector<Completed> top_; //!< sorted, at most kTopK entries
    std::map<std::uint64_t, CoreRollup> rollups_;

    bool retain_ = false;
    std::vector<Completed> retained_;

    std::ofstream stream_;
    bool streaming_ = false;
    std::uint64_t digest_;
};

} // namespace bsim::obs

#endif // BURSTSIM_OBS_CRITPATH_HH
