#include "ctrl/schedulers/decorator.hh"

#include "ctrl/schedulers/factory.hh"

namespace bsim::ctrl
{

SchedulerFactory
fullScanFactory(SchedulerFactory inner)
{
    return [inner](Mechanism m, const SchedulerContext &ctx) {
        return std::make_unique<FullScanScheduler>(
            ctx, inner ? inner(m, ctx) : makeScheduler(m, ctx));
    };
}

} // namespace bsim::ctrl
