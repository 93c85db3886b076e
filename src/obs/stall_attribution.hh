/**
 * @file
 * Per-cycle stall attribution.
 *
 * Every memory cycle of every channel is classified into exactly one
 * cause: the data bus was streaming (DataTransfer), the scheduler issued
 * a preparatory or column command (PrepIssue), it had nothing to do
 * (NoWork), it was waiting only for data already in flight to finish
 * (PendingData), or it was blocked — by a specific DDR2 timing window
 * (tRCD, tRP, tRAS, tFAW, tWTR, ...), by a read-preemption / write-
 * piggyback threshold gate, or by losing arbitration to another bank.
 *
 * Because the controller calls account() exactly once per channel per
 * cycle, the counts telescope: for each channel,
 *     sum over causes of count(ch, cause) == cycles(ch) == memCycles.
 * That identity is what makes the report trustworthy — no cycle is
 * double-counted and none goes missing — and the integration test
 * asserts it for every scheduler.
 */

#ifndef BURSTSIM_OBS_STALL_ATTRIBUTION_HH
#define BURSTSIM_OBS_STALL_ATTRIBUTION_HH

#include <array>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hh"
#include "dram/stall.hh"

namespace bsim::ctrl
{
struct MemAccess;
}

namespace bsim::obs
{

class CritPathTracer;

/** Accumulates one attributed cause per channel per memory cycle. */
class StallAttribution
{
  public:
    using Counts = std::array<std::uint64_t, dram::kNumStallCauses>;

    /**
     * Track @p channels channels of @p banks_per_channel banks each.
     * @p bank_labels is channel-major (all of channel 0's banks first),
     * matching Observability's bank label order.
     */
    StallAttribution(std::uint32_t channels,
                     std::uint32_t banks_per_channel,
                     std::vector<std::string> bank_labels);

    /**
     * Record a data burst [start, end) scheduled on @p ch for access
     * @p owner. Bursts start after the command that books them (tCL /
     * tWL later), so they are queued here and consumed by account() as
     * time passes.
     */
    void noteBurst(std::uint32_t ch, Tick start, Tick end,
                   std::uint64_t owner);

    /**
     * Attribute cycle @p now on channel @p ch. @p slot_used means the
     * channel issued a command this cycle (scheduler or refresh engine);
     * otherwise @p cause is the scheduler's reason for sitting idle and
     * @p victim the blocked access its stall scan nominated.
     * Data transfer takes precedence over everything: a cycle where the
     * bus streams is never a stall, whatever the command slot did.
     */
    void account(std::uint32_t ch, Tick now, bool slot_used,
                 dram::StallCause cause,
                 const ctrl::MemAccess *victim = nullptr);

    /**
     * Bulk-attribute the dead span [@p from, @p from + @p span) on
     * channel @p ch, exactly as @p span successive account() calls with
     * an idle slot and the same @p cause would — including segmenting
     * across booked-burst start and end edges, so DataTransfer /
     * PendingData precedence is preserved tick for tick. Used by the
     * cycle-skipping engine; byte-identity with the step engine is
     * asserted by the equivalence suite.
     */
    void accountSpan(std::uint32_t ch, Tick from, Tick span,
                     dram::StallCause cause,
                     const ctrl::MemAccess *victim = nullptr);

    /**
     * Hand every classified segment (cause, cycles, owner of the
     * streaming burst, stall victim) to @p tracer, so per-access blame
     * is cut from the same classification as the aggregate counts.
     * nullptr detaches. Not owned.
     */
    void attachTracer(CritPathTracer *tracer) { tracer_ = tracer; }

    /**
     * Make each subsequent noteBankStall() count for @p w cycles. The
     * skip engine runs one stallScan for a whole dead span; the per-bank
     * causes it reports held for every cycle of the span.
     */
    void setBankStallWeight(std::uint64_t w) { bankWeight_ = w; }

    /**
     * Deepen a channel-level stall with its per-bank breakdown: bank
     * @p bank (channel-local index) of channel @p ch was blocked by
     * @p cause this cycle. Several banks may stall in the same cycle,
     * so bank counts do not telescope; they show which banks bind.
     */
    void noteBankStall(std::uint32_t ch, std::uint32_t bank,
                       dram::StallCause cause);

    /** Number of channels tracked. */
    std::uint32_t numChannels() const
    {
        return std::uint32_t(chans_.size());
    }

    /** Cycles attributed on channel @p ch so far. */
    std::uint64_t cycles(std::uint32_t ch) const
    {
        return chans_[ch].cycles;
    }

    /** Cycles of @p ch attributed to @p cause. */
    std::uint64_t
    count(std::uint32_t ch, dram::StallCause cause) const
    {
        return chans_[ch].counts[std::size_t(cause)];
    }

    /** Per-cause totals summed over channels. */
    Counts totals() const;

    /** Machine-readable report (deterministic for identical runs). */
    void writeJson(std::ostream &os) const;

    /** Human-readable per-channel cycle-accounting table. */
    void writeText(std::ostream &os) const;

  private:
    struct Burst
    {
        Tick start;
        Tick end;
        std::uint64_t owner; //!< access id
    };

    struct ChannelState
    {
        /** Booked data bursts not yet fully in the past. */
        std::deque<Burst> pending;
        /** One past the last cycle of the burst currently streaming. */
        Tick busyUntil = 0;
        /** Access whose burst ends at busyUntil. */
        std::uint64_t owner = 0;
        Counts counts{};
        std::uint64_t cycles = 0;
    };

    /** Move bursts that started by @p now into the busy horizon.
     *  Bursts are booked in data-bus order, so a front scan suffices. */
    static void promote(ChannelState &c, Tick now);

    /** Count @p n cycles of @p attr on @p c and pass them on. */
    void record(ChannelState &c, dram::StallCause attr, std::uint64_t n,
                const ctrl::MemAccess *victim);

    std::vector<ChannelState> chans_;
    CritPathTracer *tracer_ = nullptr;
    std::uint64_t bankWeight_ = 1;
    std::uint32_t banksPerChannel_;
    std::vector<std::string> bankLabels_; //!< channel-major
    std::vector<Counts> bankCounts_;      //!< channel-major flat
};

} // namespace bsim::obs

#endif // BURSTSIM_OBS_STALL_ATTRIBUTION_HH
