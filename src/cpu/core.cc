#include "cpu/core.hh"

#include "common/log.hh"

namespace bsim::cpu
{

Core::Core(const CoreConfig &cfg, CacheHierarchy &mem,
           trace::TraceSource &trace)
    : cfg_(cfg), mem_(mem), trace_(trace)
{
}

Core::RobEntry *
Core::entryOf(std::uint64_t seq)
{
    if (seq < frontSeq_ || seq >= frontSeq_ + rob_.size())
        return nullptr;
    return &rob_[seq - frontSeq_];
}

const Core::RobEntry *
Core::entryOf(std::uint64_t seq) const
{
    if (seq < frontSeq_ || seq >= frontSeq_ + rob_.size())
        return nullptr;
    return &rob_[seq - frontSeq_];
}

bool
Core::producerReady(const RobEntry &e, std::uint64_t now) const
{
    if (e.producerSeq == kTickMax)
        return true;
    const RobEntry *p = entryOf(e.producerSeq);
    if (!p)
        return true; // producer already retired, hence long since ready
    return p->readyAt <= now;
}

bool
Core::startLoad(RobEntry &e, std::uint64_t now)
{
    // Dependence-chain loads gate further chain progress: mark their
    // fills critical so criticality-aware schedulers (Section 7) can
    // prioritize them inside bursts.
    const bool critical = e.producerSeq != kTickMax || e.isChainHead;
    const HierarchyResult r = mem_.access(e.addr, false, e.seq, critical);
    switch (r.outcome) {
      case CacheOutcome::L1Hit:
      case CacheOutcome::L2Hit:
        e.readyAt = now + r.latencyCpu;
        e.started = true;
        return true;
      case CacheOutcome::Miss:
        e.started = true; // readyAt set by onMemResponse
        return true;
      case CacheOutcome::Retry:
        return false;
    }
    return false;
}

void
Core::setParked(RobEntry &e, bool parked)
{
    if (e.parked != parked) {
        e.parked = parked;
        if (parked)
            parked_ += 1;
        else
            parked_ -= 1;
    }
}

void
Core::retire(std::uint64_t now)
{
    for (std::uint32_t i = 0; i < cfg_.issueWidth; ++i) {
        if (rob_.empty())
            return;
        RobEntry &head = rob_.front();
        if (head.readyAt > now) {
            headStalls_ += 1;
            return;
        }
        if (head.op == trace::TraceInstr::Op::Store) {
            // Stores perform at retirement (store-buffer semantics). A
            // congested memory path stalls retirement here: this is how
            // write-queue saturation reaches the pipeline.
            if (head.parked && holdParked_) {
                storeStalls_ += 1;
                return;
            }
            const bool refused =
                mem_.access(head.addr, true).outcome == CacheOutcome::Retry;
            setParked(head, refused);
            if (refused) {
                storeStalls_ += 1;
                return;
            }
            stores_ += 1;
        }
        if (head.op == trace::TraceInstr::Op::Load ||
            head.op == trace::TraceInstr::Op::Store) {
            memOpsInRob_ -= 1;
        }
        rob_.pop_front();
        frontSeq_ += 1;
        retired_ += 1;
    }
}

void
Core::startPendingLoads(std::uint64_t now)
{
    for (std::size_t n = pendingLoads_.size(); n > 0; --n) {
        const std::uint64_t seq = pendingLoads_.front();
        pendingLoads_.pop_front();
        RobEntry *e = entryOf(seq);
        if (!e || e->started)
            continue;
        if ((e->parked && holdParked_) || !producerReady(*e, now)) {
            pendingLoads_.push_back(seq);
            continue;
        }
        const bool started = startLoad(*e, now);
        setParked(*e, !started);
        if (!started)
            pendingLoads_.push_back(seq); // parked until capacity frees
    }
}

void
Core::issue(std::uint64_t now)
{
    for (std::uint32_t i = 0; i < cfg_.issueWidth; ++i) {
        if (rob_.size() >= cfg_.robSize)
            return;
        if (!lookaheadValid_) {
            if (traceEnded_ || !trace_.next(lookahead_)) {
                traceEnded_ = true;
                return;
            }
            lookaheadValid_ = true;
        }
        const trace::TraceInstr &in = lookahead_;
        const bool is_mem = in.op != trace::TraceInstr::Op::Compute;
        if (is_mem && memOpsInRob_ >= cfg_.lsqSize)
            return; // LSQ full

        RobEntry e;
        e.op = in.op;
        e.addr = in.addr;
        e.seq = nextSeq_++;
        switch (in.op) {
          case trace::TraceInstr::Op::Compute:
            e.readyAt = now + cfg_.computeLatency;
            break;
          case trace::TraceInstr::Op::Store:
            e.readyAt = now + cfg_.computeLatency;
            memOpsInRob_ += 1;
            break;
          case trace::TraceInstr::Op::Load:
            memOpsInRob_ += 1;
            loads_ += 1;
            if (in.depChain) {
                e.isChainHead = true;
                if (lastChainSeq_.size() <= in.chainId)
                    lastChainSeq_.resize(in.chainId + 1, kTickMax);
                const std::uint64_t prev = lastChainSeq_[in.chainId];
                if (prev != kTickMax && entryOf(prev))
                    e.producerSeq = prev;
                lastChainSeq_[in.chainId] = e.seq;
            }
            break;
        }
        rob_.push_back(e);
        if (in.op == trace::TraceInstr::Op::Load) {
            RobEntry &placed = rob_.back();
            if (placed.producerSeq != kTickMax) {
                pendingLoads_.push_back(placed.seq);
            } else if (!startLoad(placed, now)) {
                setParked(placed, true);
                pendingLoads_.push_back(placed.seq);
            }
        }
        lookaheadValid_ = false;
    }
}

void
Core::cpuCycle(std::uint64_t now)
{
    // Parked accesses are retried, in seq order (the store head first),
    // in the first cycle that begins with capacity freed. The verdict is
    // taken once per cycle: a retried access may allocate the MSHR that
    // a later parked access to the same block must merge into, even
    // after a third one has been refused again.
    holdParked_ = mem_.backpressured();
    retire(now);
    startPendingLoads(now);
    issue(now);
    if (parked_)
        retryCycles_[std::size_t(mem_.retryCause())] += 1;
}

void
Core::skipStallCycles(std::uint64_t n)
{
    const RobEntry &head = rob_.front();
    if (head.op == trace::TraceInstr::Op::Store && head.parked)
        storeStalls_ += n;
    else
        headStalls_ += n;
    if (parked_)
        retryCycles_[std::size_t(mem_.retryCause())] += n;
}

bool
Core::quiescentAt(std::uint64_t now) const
{
    // A parked access stays parked while the hierarchy is still
    // back-pressured: its retry would be refused again.
    const bool hold = mem_.backpressured();
    // retire(): must stop at an unready head or a parked store head
    // without touching the hierarchy.
    if (rob_.empty())
        return false;
    const RobEntry &head = rob_.front();
    if (head.readyAt <= now && !(head.parked && hold))
        return false;
    // startPendingLoads(): no live pending load may have a ready
    // producer — startLoad() would do a cache lookup, which mutates
    // hit/miss counters and LRU order. Stale entries (retired producer
    // window or already started) are no-ops; they are dropped lazily
    // at the next real cycle, which preserves the live entries'
    // relative order.
    for (std::uint64_t seq : pendingLoads_) {
        const RobEntry *e = entryOf(seq);
        if (!e || e->started || (e->parked && hold))
            continue;
        if (producerReady(*e, now))
            return false;
    }
    // issue(): must be blocked without consuming the trace — pulling
    // the next instruction advances the workload RNG.
    if (rob_.size() >= cfg_.robSize)
        return true;
    if (lookaheadValid_)
        return lookahead_.op != trace::TraceInstr::Op::Compute &&
               memOpsInRob_ >= cfg_.lsqSize;
    return traceEnded_;
}

std::uint64_t
Core::nextLocalEventCpu(std::uint64_t now) const
{
    (void)now;
    // Quiescence ends when the head becomes ready or a blocked pending
    // load's producer does; both are readyAt timestamps already fixed.
    // Issue-side blocks (full ROB / LSQ) clear only through retirement,
    // which the head's readyAt already bounds. kTickMax entries wait on
    // a memory response, and parked accesses on freed capacity, which
    // the System tracks separately.
    const RobEntry &head = rob_.front();
    std::uint64_t e = head.parked ? kTickMax : head.readyAt;
    for (std::uint64_t seq : pendingLoads_) {
        const RobEntry *pe = entryOf(seq);
        if (!pe || pe->started || pe->parked ||
            pe->producerSeq == kTickMax)
            continue;
        const RobEntry *p = entryOf(pe->producerSeq);
        if (p && p->readyAt < e)
            e = p->readyAt;
    }
    return e;
}

void
Core::onMemResponse(Addr block_addr, std::uint64_t now)
{
    for (std::uint64_t seq : mem_.onMemResponse(block_addr)) {
        RobEntry *e = entryOf(seq);
        if (!e)
            continue;
        if (e->readyAt == kTickMax)
            e->readyAt = now;
    }
}

} // namespace bsim::cpu
