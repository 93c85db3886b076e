/**
 * @file
 * Per-channel shared-bus state: the command/address bus (one command per
 * cycle) and the data bus with rank-to-rank (tRTRS) and read/write
 * direction-turnaround gaps. Also owns the channel's ranks and the
 * bus-utilization statistics reported in Figure 9(b).
 */

#ifndef BURSTSIM_DRAM_CHANNEL_HH
#define BURSTSIM_DRAM_CHANNEL_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "dram/rank.hh"
#include "dram/timing.hh"

namespace bsim::dram
{

/** One memory channel: ranks plus shared command and data busses. */
class Channel
{
  public:
    /** Construct with @p ranks ranks of @p banks_per_rank banks. */
    Channel(std::uint32_t ranks, std::uint32_t banks_per_rank);

    /** Rank accessor. */
    Rank &rank(std::uint32_t i) { return ranks_[i]; }
    const Rank &rank(std::uint32_t i) const { return ranks_[i]; }

    /** Number of ranks. */
    std::uint32_t numRanks() const
    {
        return std::uint32_t(ranks_.size());
    }

    /** True when no command has been issued at @p now yet. */
    bool cmdBusFree(Tick now) const
    {
        return !cmdIssuedYet_ || now > lastCmdAt_;
    }

    /** First tick at which the command bus is (or becomes) free. */
    Tick cmdBusFreeAt() const
    {
        return cmdIssuedYet_ ? lastCmdAt_ + 1 : 0;
    }

    /** Claim the command bus for @p now (asserts it was free). */
    void useCmdBus(Tick now);

    /**
     * Earliest legal start of a data burst by @p rank in direction
     * @p is_write, given current data bus state (tRTRS and tRTW gaps).
     */
    Tick earliestDataStart(std::uint32_t rank, bool is_write,
                           const Timing &t) const;

    /** Record a data burst [start, start + dataCycles) by @p rank. */
    void useDataBus(Tick start, std::uint32_t rank, bool is_write,
                    const Timing &t);

    /** Tick at which the data bus becomes free. */
    Tick dataBusFreeAt() const { return dataFreeAt_; }

    /** Rank that last owned the data bus (undefined before first use). */
    std::uint32_t lastDataRank() const { return lastDataRank_; }

    /** True if data bus has been used at least once. */
    bool dataBusUsedYet() const { return dataUsedYet_; }

    /** Total cycles the command bus carried a command. */
    std::uint64_t cmdBusyCycles() const { return cmdBusyCycles_; }

    /** Total cycles the data bus carried data. */
    std::uint64_t dataBusyCycles() const { return dataBusyCycles_; }

  private:
    std::vector<Rank> ranks_;

    bool cmdIssuedYet_ = false;
    Tick lastCmdAt_ = 0;
    std::uint64_t cmdBusyCycles_ = 0;

    bool dataUsedYet_ = false;
    Tick dataFreeAt_ = 0;
    std::uint32_t lastDataRank_ = 0;
    bool lastDataWasWrite_ = false;
    std::uint64_t dataBusyCycles_ = 0;
};

} // namespace bsim::dram

#endif // BURSTSIM_DRAM_CHANNEL_HH
