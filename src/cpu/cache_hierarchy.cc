#include "cpu/cache_hierarchy.hh"

namespace bsim::cpu
{

CacheHierarchy::CacheHierarchy(const HierarchyConfig &cfg, MemPort &port)
    : cfg_(cfg), port_(port), l1d_(cfg.l1d), l2_(cfg.l2)
{
}

void
CacheHierarchy::fillL1(Addr block, bool dirty)
{
    const Eviction ev = l1d_.insert(block, dirty);
    if (ev.valid && ev.dirty) {
        // Dirty L1 victim folds into L2 (writeback between cache levels,
        // no main-memory traffic); its own L2 victim may spill to memory.
        const Eviction l2ev = l2_.insert(ev.addr, true);
        if (l2ev.valid && l2ev.dirty) {
            port_.sendWrite(l2ev.addr);
            memWrites_ += 1;
        }
    }
}

HierarchyResult
CacheHierarchy::access(Addr addr, bool is_write, std::uint64_t waiter,
                       bool critical)
{
    const Addr block = blockBase(addr);

    // An in-flight fill for this block: merge and wait for its response.
    if (auto it = mshr_.find(block); it != mshr_.end()) {
        if (waiter != kNoWaiter)
            it->second.push_back(waiter);
        accesses_ += 1;
        mshrMerges_ += 1;
        // A store merging into a fill dirties the L1 line (present in tag
        // state already or soon; mark on the L1 copy if present).
        if (is_write)
            l1d_.touch(block, true);
        return {CacheOutcome::Miss, 0};
    }

    // A main-memory read (fill) needs queue slots: worst case one read
    // plus one L2 writeback. Without them a would-be miss is refused
    // before it is counted; a miss leaves tag state untouched, so the
    // refusal changes nothing.
    if (!missCapacity() && !l1d_.contains(block) && !l2_.contains(block)) {
        backpressured_ = true;
        return {CacheOutcome::Retry, 0};
    }
    accesses_ += 1;

    if (l1d_.access(block, is_write))
        return {CacheOutcome::L1Hit, cfg_.l1LatencyCpu};

    if (l2_.access(block, false)) {
        // L2 hit: fill L1 (write-allocate for stores).
        fillL1(block, is_write);
        return {CacheOutcome::L2Hit, cfg_.l2LatencyCpu};
    }

    // L2 miss, with capacity checked above.
    auto &waiters = mshr_[block];
    if (waiter != kNoWaiter)
        waiters.push_back(waiter);

    port_.sendRead(block, critical);
    memReads_ += 1;

    // Update tag state now; the MSHR keeps dependents honest about when
    // data actually arrives.
    const Eviction l2ev = l2_.insert(block, false);
    if (l2ev.valid && l2ev.dirty) {
        port_.sendWrite(l2ev.addr);
        memWrites_ += 1;
    }
    fillL1(block, is_write);
    return {CacheOutcome::Miss, 0};
}

bool
CacheHierarchy::capacityFreed()
{
    if (!backpressured_ || !missCapacity())
        return false;
    backpressured_ = false;
    return true;
}

CacheCounters
CacheHierarchy::counters() const
{
    CacheCounters c;
    c.accesses = accesses_;
    c.mshrMerges = mshrMerges_;
    c.l1Hits = l1d_.hits();
    c.l1Misses = l1d_.misses();
    c.l2Hits = l2_.hits();
    c.l2Misses = l2_.misses();
    c.memReads = memReads_;
    c.memWrites = memWrites_;
    return c;
}

CacheCounters &
CacheCounters::operator+=(const CacheCounters &o)
{
    accesses += o.accesses;
    mshrMerges += o.mshrMerges;
    l1Hits += o.l1Hits;
    l1Misses += o.l1Misses;
    l2Hits += o.l2Hits;
    l2Misses += o.l2Misses;
    memReads += o.memReads;
    memWrites += o.memWrites;
    return *this;
}

void
CacheHierarchy::prefill(Addr block, bool dirty, bool also_l1)
{
    block = blockBase(block);
    (void)l2_.insert(block, dirty); // warmup evictions carry no traffic
    if (also_l1)
        (void)l1d_.insert(block, dirty);
}

std::vector<std::uint64_t>
CacheHierarchy::onMemResponse(Addr block_addr)
{
    auto it = mshr_.find(block_addr);
    if (it == mshr_.end())
        return {};
    std::vector<std::uint64_t> waiters = std::move(it->second);
    mshr_.erase(it);
    capacityFreed();
    return waiters;
}

} // namespace bsim::cpu
