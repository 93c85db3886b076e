/**
 * @file
 * Fault-injection scheduler wrapper (test harness only): behaves exactly
 * like the wrapped policy until a programmed number of column accesses
 * have issued, then stops issuing forever while still reporting queued
 * work. The controller consequently stays busy with no access ever
 * retiring — precisely the hang signature the forward-progress watchdog
 * (SystemConfig::watchdogCycles) must detect. Never instantiated by the
 * factory; inject through ControllerConfig::schedulerFactory.
 */

#ifndef BURSTSIM_CTRL_SCHEDULERS_FAULTY_HH
#define BURSTSIM_CTRL_SCHEDULERS_FAULTY_HH

#include <cstdint>
#include <memory>

#include "ctrl/schedulers/decorator.hh"

namespace bsim::ctrl
{

/** Decorator that freezes the wrapped scheduler after N column accesses. */
class FaultyScheduler : public SchedulerDecorator
{
  public:
    /**
     * Wrap @p inner; after @p freezeAfter of this channel's column
     * accesses have issued, tick() stops offering the slot to the
     * wrapped policy (0 = frozen from the start).
     */
    FaultyScheduler(const SchedulerContext &ctx,
                    std::unique_ptr<Scheduler> inner,
                    std::uint64_t freezeAfter);

    Issued tick(Tick now) override;
    std::map<std::string, double> extraStats() const override;
    dram::StallCause stallScan(Tick now,
                               obs::StallAttribution &sink) const override;

    /**
     * While frozen with work queued the wrapper must keep the engine
     * stepping tick by tick: returning anything past @p now would let
     * the cycle-skipping engine leap over the very cycles in which the
     * watchdog counts the hang.
     */
    Tick nextEventTick(Tick now) const override;

    /** True once the injected fault has triggered. */
    bool frozen() const { return issued_ >= freezeAfter_; }

  private:
    std::uint64_t freezeAfter_;
    std::uint64_t issued_ = 0; //!< column accesses issued so far
};

} // namespace bsim::ctrl

#endif // BURSTSIM_CTRL_SCHEDULERS_FAULTY_HH
