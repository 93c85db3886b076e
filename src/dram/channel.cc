#include "dram/channel.hh"

#include <algorithm>

#include "common/log.hh"

namespace bsim::dram
{

Channel::Channel(std::uint32_t ranks, std::uint32_t banks_per_rank)
{
    ranks_.reserve(ranks);
    for (std::uint32_t i = 0; i < ranks; ++i)
        ranks_.emplace_back(banks_per_rank);
}

void
Channel::useCmdBus(Tick now)
{
    if (!cmdBusFree(now))
        panic("two commands in one cycle on the same channel (tick %llu)",
              static_cast<unsigned long long>(now));
    if (cmdIssuedYet_ && now < lastCmdAt_)
        panic("command bus used in the past");
    cmdIssuedYet_ = true;
    lastCmdAt_ = now;
    cmdBusyCycles_ += 1;
}

Tick
Channel::earliestDataStart(std::uint32_t rank, bool is_write,
                           const Timing &t) const
{
    if (!dataUsedYet_)
        return 0;
    Tick start = dataFreeAt_;
    if (rank != lastDataRank_) {
        // Rank-to-rank turnaround: dead cycles between bursts from
        // different ranks (DDR2, Section 3 of the paper).
        start += t.tRTRS;
    } else if (!lastDataWasWrite_ && is_write) {
        // Read-to-write direction switch on the shared data bus.
        start += t.tRTW;
    }
    // Write-to-read same rank is governed by the rank-wide tWTR
    // (Rank::readAllowedAt); no extra bus gap here.
    return start;
}

void
Channel::useDataBus(Tick start, std::uint32_t rank, bool is_write,
                    const Timing &t)
{
    if (start < earliestDataStart(rank, is_write, t))
        panic("data bus conflict: start=%llu free=%llu",
              static_cast<unsigned long long>(start),
              static_cast<unsigned long long>(dataFreeAt_));
    dataUsedYet_ = true;
    dataFreeAt_ = start + t.dataCycles();
    lastDataRank_ = rank;
    lastDataWasWrite_ = is_write;
    dataBusyCycles_ += t.dataCycles();
}

} // namespace bsim::dram
