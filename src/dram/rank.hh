/**
 * @file
 * Per-rank SDRAM constraints: tRRD, tFAW activation throttling, the
 * rank-wide write-to-read turnaround (tWTR), and refresh bookkeeping.
 */

#ifndef BURSTSIM_DRAM_RANK_HH
#define BURSTSIM_DRAM_RANK_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "dram/bank.hh"
#include "dram/timing.hh"

namespace bsim::dram
{

/** One rank: a set of banks sharing activation and turnaround windows. */
class Rank
{
  public:
    /** Construct with @p num_banks banks. */
    explicit Rank(std::uint32_t num_banks) : banks_(num_banks) {}

    /** Bank accessor. */
    Bank &bank(std::uint32_t i) { return banks_[i]; }
    const Bank &bank(std::uint32_t i) const { return banks_[i]; }

    /** Number of banks in this rank. */
    std::uint32_t numBanks() const
    {
        return std::uint32_t(banks_.size());
    }

    /** First tick the tRRD window lets an ACTIVATE issue (0 when
     *  tRRD is off or nothing was activated yet). */
    Tick
    rrdAllowedAt(const Timing &t) const
    {
        return anyActYet_ && t.tRRD ? lastActAt_ + t.tRRD : 0;
    }

    /** First tick the tFAW window lets an ACTIVATE issue: tFAW past
     *  the 4th-last activate (0 when tFAW is off or fewer than four
     *  activates were issued). */
    Tick
    fawAllowedAt(const Timing &t) const
    {
        const Tick fourth_last = actWindow_[actWindowPos_];
        return t.tFAW && fourth_last ? fourth_last + t.tFAW : 0;
    }

    /** First tick at which the tWTR read gate opens. */
    Tick readAllowedAt() const { return rdAllowedAt_; }

    /** Record an ACTIVATE issued at @p now. */
    void noteActivate(Tick now, const Timing &t);

    /** Record a WRITE whose data finishes at @p data_end. */
    void
    noteWrite(Tick data_end, const Timing &t)
    {
        const Tick ready = data_end + t.tWTR;
        if (ready > rdAllowedAt_)
            rdAllowedAt_ = ready;
    }

    /** True when every bank is precharged (refresh precondition). */
    bool allBanksClosed() const;

    /** Apply a REFRESH issued at @p now: blocks all banks for tRFC. */
    void refresh(Tick now, const Timing &t);

  private:
    std::vector<Bank> banks_;
    /** Ticks of the most recent activates, for tRRD (last) and tFAW. */
    std::array<Tick, 4> actWindow_{};
    std::uint32_t actWindowPos_ = 0;
    Tick lastActAt_ = 0;
    bool anyActYet_ = false;
    Tick rdAllowedAt_ = 0;
};

} // namespace bsim::dram

#endif // BURSTSIM_DRAM_RANK_HH
