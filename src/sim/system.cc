#include "sim/system.hh"

#include <chrono>
#include <cstdio>

#include "common/error.hh"
#include "common/log.hh"
#include "obs/engine_introspect.hh"
#include "obs/observability.hh"
#include "obs/selfprof.hh"

namespace bsim::sim
{

const char *
engineKindName(EngineKind k)
{
    return k == EngineKind::Step ? "step" : "skip";
}

SystemConfig
SystemConfig::baseline()
{
    SystemConfig cfg;
    // Table 3: 4 GHz 8-way CPU, 32 LSQ, 196 ROB; 128 KB 2-way L1s; 2 MB
    // 16-way L2; 64 B lines; 4 GB DDR2 PC2-6400 5-5-5; 2 channels x 4
    // ranks x 4 banks; open page; page interleaving; pool 256 / 64
    // writes. All of those are the defaults of the component configs.
    cfg.ctrl.mechanism = ctrl::Mechanism::BkInOrder;
    return cfg;
}

/** Routes one core's misses/writebacks into its FSB queue. */
class System::CorePort : public cpu::MemPort
{
  public:
    CorePort(System &sys, std::uint32_t core) : sys_(sys), core_(core) {}

    bool
    canSend(unsigned n) const override
    {
        return sys_.cores_[core_].fsbQueue.size() + n <=
               sys_.cfg_.memQueueCap;
    }

    void
    sendRead(Addr block_addr, bool critical) override
    {
        sys_.cores_[core_].fsbQueue.push_back(
            {block_addr, false, critical,
             sys_.now_ + sys_.cfg_.fsbLatency});
    }

    void
    sendWrite(Addr block_addr) override
    {
        sys_.cores_[core_].fsbQueue.push_back(
            {block_addr, true, false, sys_.now_ + sys_.cfg_.fsbLatency});
    }

  private:
    System &sys_;
    std::uint32_t core_;
};

System::System(const SystemConfig &cfg, trace::TraceSource &trace)
    : cfg_(cfg)
{
    build({&trace});
}

System::System(const SystemConfig &cfg,
               const std::vector<trace::TraceSource *> &traces)
    : cfg_(cfg)
{
    build(traces);
}

System::~System() = default;

void
System::build(const std::vector<trace::TraceSource *> &traces)
{
    if (traces.empty())
        throwSimError(ErrorCategory::Config,
                      "system: at least one workload trace is required");

    mem_ = std::make_unique<dram::MemorySystem>(cfg_.dram);
    ctrl_ = std::make_unique<ctrl::MemoryController>(*mem_, cfg_.ctrl);
    ctrl_->setEventDriven(cfg_.engine == EngineKind::Skip);

    if (cfg_.obs.any()) {
        obs_ = std::make_unique<obs::Observability>(cfg_.obs, cfg_.dram,
                                                    cfg_.busMHz);
        if (obs_->commandLog())
            mem_->attachLog(obs_->commandLog());
        if (obs_->auditor())
            mem_->attachObserver(obs_->auditor());
        ctrl_->attachObservability(obs_.get());
        intro_ = obs_->introspect();
    }

    cores_.resize(traces.size());
    for (std::uint32_t i = 0; i < traces.size(); ++i) {
        CoreNode &node = cores_[i];
        node.port = std::make_unique<CorePort>(*this, i);
        node.caches =
            std::make_unique<cpu::CacheHierarchy>(cfg_.caches, *node.port);
        node.core = std::make_unique<cpu::Core>(cfg_.core, *node.caches,
                                                *traces[i]);
    }

    ctrl_->setReadCallback([this](const ctrl::MemAccess &a, Tick now) {
        // Read data crosses the FSB back to the requesting core.
        respQueue_.push({now + cfg_.fsbLatency, respSeq_++, a.addr,
                         std::uint32_t(a.tag)});
    });
}

std::unique_ptr<obs::Observability>
System::releaseObservability()
{
    if (obs_) {
        mem_->attachLog(nullptr);
        mem_->attachObserver(nullptr);
        ctrl_->attachObservability(nullptr);
        intro_ = nullptr;
    }
    return std::move(obs_);
}

bool
System::canSend(unsigned n) const
{
    return cores_[0].fsbQueue.size() + n <= cfg_.memQueueCap;
}

void
System::sendRead(Addr block_addr, bool critical)
{
    cores_[0].fsbQueue.push_back(
        {block_addr, false, critical, now_ + cfg_.fsbLatency});
}

void
System::sendWrite(Addr block_addr)
{
    cores_[0].fsbQueue.push_back(
        {block_addr, true, false, now_ + cfg_.fsbLatency});
}

void
System::admitFsb()
{
    // Admit FSB requests round robin across cores. A saturated write
    // queue or full pool backs requests up into the per-core FSB
    // queues, which in turn stalls caches and pipelines (Section 3.2).
    // A full admission-less rotation is a fixed point (queue fronts
    // only change on a pop, acceptance only tightens), so the loop
    // stops after one instead of burning n * memQueueCap scans; the
    // round robin then lands where the exhausted scan would have
    // (the old bound was a whole number of rotations).
    const std::uint32_t n = numCores();
    const std::uint32_t r0 = rrCore_;
    for (std::uint32_t idle = 0; ctrl_->canAccept();) {
        CoreNode &node = cores_[rrCore_];
        if (!node.fsbQueue.empty() &&
            node.fsbQueue.front().readyAt <= now_) {
            const FsbRequest &rq = node.fsbQueue.front();
            ctrl_->submit(rq.isWrite ? AccessType::Write
                                     : AccessType::Read,
                          rq.addr, now_, nullptr, rrCore_, rq.critical);
            node.fsbQueue.pop_front();
            // The MemPort capacity contract: a pop may let the core's
            // parked accesses retry, which ends its quiescence.
            if (node.caches->capacityFreed())
                node.quiesceValid = false;
            idle = 0;
        } else {
            idle += 1;
        }
        rrCore_ = (rrCore_ + 1) % n;
        if (idle >= n) {
            rrCore_ = r0;
            break;
        }
    }
}

void
System::tick()
{
    if (intro_)
        intro_->noteStepped();

    // 1. Deliver read data that has crossed the bus back to its core.
    while (!respQueue_.empty() && respQueue_.top().at <= now_) {
        const Response r = respQueue_.top();
        respQueue_.pop();
        cores_[r.core].core->onMemResponse(r.addr, cpuNow_);
        cores_[r.core].quiesceValid = false; // may wake the core
    }

    // 2. Memory controller cycle (schedules SDRAM transactions).
    {
        obs::prof::Scope prof(obs::prof::Phase::CtrlTick);
        ctrl_->tick(now_);
    }

    // 3. FSB admission.
    {
        obs::prof::Scope prof(obs::prof::Phase::FsbAdmit);
        admitFsb();
    }

    // 4. CPU cycles within this memory cycle, for every running core.
    // Skip engine: a core quiescent through the whole window (checked
    // after delivery and admission, either of which may wake it) only
    // stalls, so its cycles are applied in bulk.
    obs::prof::Scope cpu_prof(obs::prof::Phase::CpuPhase);
    const bool ed = cfg_.engine == EngineKind::Skip;
    const std::uint32_t window = cfg_.cpuCyclesPerMemCycle;
    bool all_done = true;
    for (std::uint32_t i = 0; i < numCores(); ++i) {
        CoreNode &node = cores_[i];
        if (node.done)
            continue;
        if (ed && coreQuiescent(node) &&
            node.quiesceEventCpu >= cpuNow_ + window) {
            node.core->skipStallCycles(window);
            all_done = false;
            continue;
        }
        node.quiesceValid = false; // the phase below mutates the core
        for (std::uint32_t c = 0; c < window; ++c) {
            node.core->cpuCycle(cpuNow_ + c);
            if (node.core->done()) {
                node.done = true;
                node.doneAtCpu = cpuNow_ + c + 1;
                break;
            }
            // Skip engine: once the core goes quiescent mid-window with
            // no local wakeup before the window ends, the remaining CPU
            // cycles are pure stalls (responses and freed capacity
            // arrive only at tick boundaries) — apply them in bulk. The
            // verdict also primes the quiescence cache for the next
            // tick.
            if (ed && c + 1 < window &&
                node.core->quiescentAt(cpuNow_ + c + 1)) {
                const std::uint64_t ev =
                    node.core->nextLocalEventCpu(cpuNow_ + c + 1);
                if (ev >= cpuNow_ + window) {
                    node.core->skipStallCycles(window - c - 1);
                    node.quiesceValid = true;
                    node.quiesceEventCpu = ev;
                    break;
                }
            }
        }
        all_done = all_done && node.done;
    }
    cpuNow_ += cfg_.cpuCyclesPerMemCycle;
    if (all_done && !allDone_) {
        allDone_ = true;
        execCpuCycles_ = cpuNow_;
    }

    now_ += 1;
}

bool
System::coreQuiescent(CoreNode &node)
{
    if (!node.quiesceValid) {
        if (!node.core->quiescentAt(cpuNow_))
            return false;
        node.quiesceEventCpu = node.core->nextLocalEventCpu(cpuNow_);
        node.quiesceValid = true;
    }
    return true;
}

bool
System::done() const
{
    if (!allDone_ || ctrl_->busy())
        return false;
    for (const auto &node : cores_)
        if (!node.fsbQueue.empty())
            return false;
    return true;
}

Tick
System::skipHorizon(obs::WakeSource *src)
{
    obs::prof::Scope prof(obs::prof::Phase::Horizon);
    if (src)
        *src = obs::WakeSource{}; // Unbounded until a bound wins
    Tick h = kTickMax;
    const auto consider = [&h, src](Tick t, obs::WakeReason r) {
        // Strict < keeps first-minimum-wins over the unchanged scan
        // order, so the returned horizon is identical with and without
        // attribution.
        if (t < h) {
            h = t;
            if (src) {
                src->reason = r;
                src->channel = -1;
            }
        }
    };

    // Cores: every running core must be provably quiescent, and its
    // next self-wakeup bounds the span. CPU cycle e lands in memory
    // tick now_ + (e - cpuNow_) / cpuCyclesPerMemCycle, which must run
    // for real.
    for (CoreNode &node : cores_) {
        if (node.done)
            continue;
        if (!coreQuiescent(node)) {
            if (src)
                src->reason = obs::WakeReason::CoreActive;
            return now_;
        }
        if (node.quiesceEventCpu != kTickMax)
            consider(now_ + (node.quiesceEventCpu - cpuNow_) /
                                cfg_.cpuCyclesPerMemCycle,
                     obs::WakeReason::CoreWake);
    }

    // A delivery or admission for a core with parked accesses frees
    // capacity they wait on: attributed as back-pressure.
    const auto core_event = [this](std::uint32_t core, obs::WakeReason r) {
        return cores_[core].core->parked() ? obs::WakeReason::Backpressure
                                           : r;
    };

    // Response delivery, controller activity (completions, refresh,
    // scheduler issue opportunities, metrics epochs).
    if (!respQueue_.empty())
        consider(respQueue_.top().at,
                 core_event(respQueue_.top().core,
                            obs::WakeReason::Response));
    // Once a core wake or a response holds h <= now_, the controller
    // skips its scheduler horizons: the costly part, and never a winner
    // then.
    obs::WakeSource ctrl_src;
    const Tick ctrl_t =
        ctrl_->nextEventTick(now_, src ? &ctrl_src : nullptr, h);
    if (ctrl_t < h) {
        h = ctrl_t;
        if (src)
            *src = ctrl_src;
    }

    // FSB admission: with room in the controller, the next request to
    // come of age is admitted that very tick. (Without room, the
    // unblocking issue is already a controller event.)
    if (ctrl_->canAccept()) {
        for (std::uint32_t i = 0; i < numCores(); ++i)
            if (!cores_[i].fsbQueue.empty())
                consider(cores_[i].fsbQueue.front().readyAt,
                         core_event(i, obs::WakeReason::FsbAdmit));
    }

    return h;
}

void
System::skipTo(Tick target)
{
    obs::prof::Scope prof(obs::prof::Phase::SkipSpan);
    const Tick span = target - now_;
    ctrl_->tickSpan(now_, span);
    const std::uint64_t cpu_span =
        std::uint64_t(span) * cfg_.cpuCyclesPerMemCycle;
    for (CoreNode &node : cores_)
        if (!node.done)
            node.core->skipStallCycles(cpu_span);
    cpuNow_ += cpu_span;
    now_ = target;
}

std::uint64_t
System::retiredAccesses() const
{
    const ctrl::ControllerStats &s = ctrl_->stats();
    return s.reads + s.writes + s.forwardedReads;
}

void
System::checkProgress(WatchState &w)
{
    // Wall-clock deadline, polled coarsely so the steady_clock read
    // stays off the per-tick path. The iteration count understates
    // elapsed time under the skip engine (one iteration may cover a
    // long span), which only makes the poll more frequent per second.
    if (cfg_.deadlineSec > 0 && (++w.iter & 1023u) == 0) {
        const auto spent = std::chrono::steady_clock::now() - w.started;
        if (std::chrono::duration<double>(spent).count() >=
            cfg_.deadlineSec)
            throwSimError(
                ErrorCategory::Resource,
                "simulation exceeded the %.1f s wall-clock deadline "
                "at memory cycle %llu",
                cfg_.deadlineSec, (unsigned long long)now_);
    }

    if (cfg_.watchdogCycles == 0)
        return;
    const std::uint64_t retired = retiredAccesses();
    if (retired != w.lastRetired || !ctrl_->busy()) {
        // Progress, or nothing on the memory side to make progress on
        // (an idle controller is allowed to sit still indefinitely).
        w.lastRetired = retired;
        w.lastProgress = now_;
        return;
    }
    if (now_ - w.lastProgress < cfg_.watchdogCycles)
        return;
    char msg[192];
    std::snprintf(msg, sizeof(msg),
                  "forward-progress watchdog: no access retired for %llu "
                  "memory cycles while the controller was busy (now=%llu, "
                  "retired=%llu)",
                  (unsigned long long)(now_ - w.lastProgress),
                  (unsigned long long)now_, (unsigned long long)retired);
    throw SimError(ErrorCategory::Internal, msg,
                   ctrl_->progressSnapshot(now_));
}

Tick
System::run(Tick max_ticks)
{
    obs::prof::Scope prof(obs::prof::Phase::Run);
    const Tick start = now_;
    const bool skip = cfg_.engine == EngineKind::Skip;
    WatchState watch;
    watch.lastRetired = retiredAccesses();
    watch.lastProgress = now_;
    watch.started = std::chrono::steady_clock::now();
    while (!done()) {
        checkProgress(watch);
        if (now_ - start >= max_ticks)
            break;
        // Under the skip engine a tick with a dead CPU phase degrades to
        // its memory side plus a bulk stall update; when the memory side
        // is idle too, the horizon then covers whole spans of such ticks
        // at once.
        tick();
        if (!skip || done())
            continue;
        obs::WakeSource wake;
        Tick h = skipHorizon(intro_ ? &wake : nullptr);
        if (h == kTickMax) {
            if (intro_)
                intro_->noteBlocked(wake); // wake stays Unbounded
            continue; // no bounded dead span provable; keep stepping
        }
        if (h - start > max_ticks)
            h = start + max_ticks; // stop exactly where stepping would
        if (h > now_) {
            if (intro_)
                intro_->noteSkip(wake, h - now_);
            skipTo(h);
        } else if (intro_) {
            intro_->noteBlocked(wake);
        }
    }
    return now_ - start;
}

} // namespace bsim::sim
