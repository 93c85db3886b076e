#include "dram/rank.hh"

namespace bsim::dram
{

void
Rank::noteActivate(Tick now, const Timing &t)
{
    (void)t;
    lastActAt_ = now;
    anyActYet_ = true;
    // Store now+1 so that a legitimate activate at tick 0 is not mistaken
    // for the "empty slot" sentinel 0; fawAllowedAt compensates nowhere
    // because a one-tick slack on tFAW at cold start is harmless.
    actWindow_[actWindowPos_] = now == 0 ? 1 : now;
    actWindowPos_ = (actWindowPos_ + 1) % actWindow_.size();
}

bool
Rank::allBanksClosed() const
{
    for (const auto &b : banks_)
        if (b.isOpen())
            return false;
    return true;
}

void
Rank::refresh(Tick now, const Timing &t)
{
    for (auto &b : banks_)
        b.refreshUntil(now + t.tRFC);
}

} // namespace bsim::dram
