/**
 * @file
 * Per-bank SDRAM state machine.
 *
 * A bank tracks its open row and the earliest tick at which each command
 * class may legally be issued to it. All constraint bookkeeping is local;
 * rank- and channel-level constraints (tRRD, tFAW, tWTR, bus turnaround)
 * live in Rank and Channel.
 */

#ifndef BURSTSIM_DRAM_BANK_HH
#define BURSTSIM_DRAM_BANK_HH

#include <cstdint>

#include "common/types.hh"
#include "dram/command.hh"
#include "dram/stall.hh"
#include "dram/timing.hh"

namespace bsim::dram
{

/** One SDRAM bank: open-row state plus per-command ready times. */
class Bank
{
  public:
    /** True when a row is latched in the sense amplifiers. */
    bool isOpen() const { return open_; }

    /** The open row; only meaningful when isOpen(). */
    std::uint32_t openRow() const { return openRow_; }

    /** True once any row has ever been activated. */
    bool hasLastRow() const { return hasLastRow_; }

    /** The most recently activated row (valid even after precharge). */
    std::uint32_t lastRow() const { return openRow_; }

    /**
     * Classify how an access to @p row would find this bank right now
     * (row hit / empty / conflict), per Section 2 of the paper.
     */
    RowOutcome
    classify(std::uint32_t row) const
    {
        if (!open_)
            return RowOutcome::Empty;
        return openRow_ == row ? RowOutcome::Hit : RowOutcome::Conflict;
    }

    /** Earliest tick an ACTIVATE may issue. */
    Tick actAllowedAt() const { return actAllowedAt_; }

    /** Earliest tick a PRECHARGE may issue. */
    Tick preAllowedAt() const { return preAllowedAt_; }

    /** Earliest tick a READ column access may issue. */
    Tick rdAllowedAt() const { return rdAllowedAt_; }

    /** Earliest tick a WRITE column access may issue. */
    Tick wrAllowedAt() const { return wrAllowedAt_; }

    /** Constraint that last raised actAllowedAt() (tRP, tRC or tRFC). */
    StallCause actBlockCause() const { return actBlockCause_; }

    /** Constraint that last raised preAllowedAt() (tRAS, tRTP or tWR). */
    StallCause preBlockCause() const { return preBlockCause_; }

    /** Apply an ACTIVATE issued at @p now. */
    void activate(std::uint32_t row, Tick now, const Timing &t);

    /** Apply a PRECHARGE issued at @p now. */
    void precharge(Tick now, const Timing &t);

    /**
     * Apply a READ column access issued at @p now; when @p auto_precharge
     * the bank closes itself at the earliest legal point (CPA policy).
     */
    void read(Tick now, const Timing &t, bool auto_precharge);

    /**
     * Apply a WRITE column access issued at @p now; see read() for
     * @p auto_precharge.
     */
    void write(Tick now, const Timing &t, bool auto_precharge);

    /** Apply a refresh that blocks this bank until @p ready. */
    void refreshUntil(Tick ready);

  private:
    /** Raise @p slot to @p ready, remembering @p why when it advances. */
    static void
    raise(Tick &slot, Tick ready, StallCause why, StallCause &slot_cause)
    {
        if (ready > slot) {
            slot = ready;
            slot_cause = why;
        }
    }

    bool open_ = false;
    bool hasLastRow_ = false;
    std::uint32_t openRow_ = 0;
    Tick actAllowedAt_ = 0;
    Tick preAllowedAt_ = 0;
    Tick rdAllowedAt_ = 0;
    Tick wrAllowedAt_ = 0;
    // Which constraint set the current allowed-at ticks, so a blocked
    // command can be attributed to its binding timing parameter.
    // rd/wrAllowedAt_ are only ever raised by tRCD and need no tracking.
    StallCause actBlockCause_ = StallCause::TimingTRP;
    StallCause preBlockCause_ = StallCause::TimingTRAS;
};

} // namespace bsim::dram

#endif // BURSTSIM_DRAM_BANK_HH
