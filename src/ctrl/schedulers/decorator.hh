/**
 * @file
 * Scheduler decorators for the test harness: SchedulerDecorator
 * forwards every call to a wrapped policy, and FullScanScheduler — the
 * full-scan oracle — marks every bank of the wrapped policy dirty before
 * each tick and horizon query, so every bank arbiter runs on every tick
 * as it did before arbitration became incremental. A run through it must
 * be byte-identical to a run without it; any difference is a dirty event
 * the policy failed to mark. Never instantiated by the factory; inject
 * through ControllerConfig::schedulerFactory (fullScanFactory()).
 */

#ifndef BURSTSIM_CTRL_SCHEDULERS_DECORATOR_HH
#define BURSTSIM_CTRL_SCHEDULERS_DECORATOR_HH

#include <functional>
#include <memory>

#include "ctrl/scheduler.hh"

namespace bsim::ctrl
{

/** Forwards every Scheduler call to the wrapped policy. */
class SchedulerDecorator : public Scheduler
{
  public:
    SchedulerDecorator(const SchedulerContext &ctx,
                       std::unique_ptr<Scheduler> inner)
        : Scheduler(ctx), inner_(std::move(inner))
    {
    }

    void enqueue(MemAccess *a) override { inner_->enqueue(a); }
    Issued tick(Tick now) override { return inner_->tick(now); }
    std::size_t readCount() const override { return inner_->readCount(); }
    std::size_t writeCount() const override
    {
        return inner_->writeCount();
    }
    bool hasWork() const override { return inner_->hasWork(); }
    MemAccess *findWrite(Addr block_base) const override
    {
        return inner_->findWrite(block_base);
    }
    std::map<std::string, double> extraStats() const override
    {
        return inner_->extraStats();
    }

    dram::StallCause
    stallScan(Tick now, obs::StallAttribution &sink) const override
    {
        const dram::StallCause c = inner_->stallScan(now, sink);
        stallVictim_ = inner_->lastStallVictim();
        return c;
    }

    Tick
    nextEventTick(Tick now) const override
    {
        const Tick t = inner_->nextEventTick(now);
        pin_ = inner_->lastHorizonPin();
        return t;
    }

    void onExternalCommand() override { inner_->onExternalCommand(); }
    void markAllDirty() override { inner_->markAllDirty(); }
    void setIntrospect(obs::EngineIntrospect *intro) override
    {
        Scheduler::setIntrospect(intro);
        inner_->setIntrospect(intro);
    }
    // Engine flags must reach the wrapped policy: the inner scheduler
    // computes the bounds and the horizons, so configuring only the
    // wrapper would leave it running cache-free conservative.
    void setEventDriven(bool on) override
    {
        Scheduler::setEventDriven(on);
        inner_->setEventDriven(on);
    }
    void setHorizonMemo(bool on) override
    {
        Scheduler::setHorizonMemo(on);
        inner_->setHorizonMemo(on);
    }
    void setExactBounds(bool on) override
    {
        Scheduler::setExactBounds(on);
        inner_->setExactBounds(on);
    }
    void setAuditor(obs::ProtocolAuditor *auditor) override
    {
        Scheduler::setAuditor(auditor);
        inner_->setAuditor(auditor);
    }
    bool globallySensitive() const override
    {
        return inner_->globallySensitive();
    }
    // Without this forward a wrapped globally-sensitive policy would
    // present the base signature (0): the controller's horizon memo
    // would survive watermark/threshold band crossings it must not.
    std::uint64_t globalSignature() const override
    {
        return inner_->globalSignature();
    }
    void onIdleSpan(Tick from, Tick span) override
    {
        inner_->onIdleSpan(from, span);
    }
    void queueOccupancy(std::vector<std::uint32_t> &reads,
                        std::vector<std::uint32_t> &writes) const override
    {
        inner_->queueOccupancy(reads, writes);
    }

  protected:
    std::unique_ptr<Scheduler> inner_;
};

/** The full-scan oracle: every bank dirty before every tick. */
class FullScanScheduler : public SchedulerDecorator
{
  public:
    using SchedulerDecorator::SchedulerDecorator;

    Issued
    tick(Tick now) override
    {
        inner_->markAllDirty();
        return inner_->tick(now);
    }

    Tick
    nextEventTick(Tick now) const override
    {
        inner_->markAllDirty();
        return SchedulerDecorator::nextEventTick(now);
    }
};

/** The signature of ControllerConfig::schedulerFactory. */
using SchedulerFactory = std::function<std::unique_ptr<Scheduler>(
    Mechanism, const SchedulerContext &)>;

/** A schedulerFactory wrapping what @p inner builds (makeScheduler()
 *  when empty) in FullScanScheduler. */
SchedulerFactory fullScanFactory(SchedulerFactory inner = {});

} // namespace bsim::ctrl

#endif // BURSTSIM_CTRL_SCHEDULERS_DECORATOR_HH
