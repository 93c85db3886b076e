#include "cpu/cache.hh"

#include "common/error.hh"
#include "common/log.hh"

namespace bsim::cpu
{

namespace
{
std::uint32_t
log2Exact(std::uint64_t v, const char *what)
{
    if (v == 0 || (v & (v - 1)) != 0)
        throwSimError(ErrorCategory::Config, "cache: %s (%llu) must be a power of two", what,
              static_cast<unsigned long long>(v));
    std::uint32_t b = 0;
    while ((std::uint64_t(1) << b) < v)
        ++b;
    return b;
}
} // namespace

Cache::Cache(const CacheConfig &cfg)
    : cfg_(cfg),
      setMask_(cfg.numSets() - 1),
      offsetBits_(log2Exact(cfg.blockBytes, "blockBytes")),
      setBits_(log2Exact(cfg.numSets(), "numSets")),
      lines_(cfg.numSets() * cfg.assoc)
{
}

std::uint64_t
Cache::setOf(Addr addr) const
{
    return (addr >> offsetBits_) & setMask_;
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr >> (offsetBits_ + setBits_);
}

Addr
Cache::rebuild(std::uint64_t set, Addr tag) const
{
    return (tag << (offsetBits_ + setBits_)) | (set << offsetBits_);
}

const Cache::Line *
Cache::find(Addr addr) const
{
    const Addr tag = tagOf(addr);
    const Line *base = &lines_[setOf(addr) * cfg_.assoc];
    for (std::uint32_t w = 0; w < cfg_.assoc; ++w)
        if (base[w].valid && base[w].tag == tag)
            return &base[w];
    return nullptr;
}

bool
Cache::touch(Addr addr, bool is_write)
{
    Line *l = const_cast<Line *>(find(addr));
    if (!l)
        return false;
    l->lastUse = ++useClock_;
    if (is_write)
        l->dirty = true;
    return true;
}

bool
Cache::access(Addr addr, bool is_write)
{
    if (touch(addr, is_write)) {
        hits_ += 1;
        return true;
    }
    misses_ += 1;
    return false;
}

bool
Cache::contains(Addr addr) const
{
    return find(addr) != nullptr;
}

Eviction
Cache::insert(Addr addr, bool dirty)
{
    const std::uint64_t set = setOf(addr);
    const Addr tag = tagOf(addr);
    Line *base = &lines_[set * cfg_.assoc];

    // Already present (e.g. racing fill): just merge the dirty bit.
    for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
        Line &l = base[w];
        if (l.valid && l.tag == tag) {
            l.lastUse = ++useClock_;
            l.dirty = l.dirty || dirty;
            return {};
        }
    }

    // Prefer an invalid way, else evict true-LRU.
    Line *victim = nullptr;
    for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
        Line &l = base[w];
        if (!l.valid) {
            victim = &l;
            break;
        }
        if (!victim || l.lastUse < victim->lastUse)
            victim = &l;
    }

    Eviction ev;
    if (victim->valid) {
        ev.valid = true;
        ev.dirty = victim->dirty;
        ev.addr = rebuild(set, victim->tag);
        if (victim->dirty)
            writebacks_ += 1;
    }
    victim->valid = true;
    victim->dirty = dirty;
    victim->tag = tag;
    victim->lastUse = ++useClock_;
    return ev;
}

Eviction
Cache::invalidate(Addr addr)
{
    const std::uint64_t set = setOf(addr);
    const Addr tag = tagOf(addr);
    Line *base = &lines_[set * cfg_.assoc];
    for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
        Line &l = base[w];
        if (l.valid && l.tag == tag) {
            Eviction ev;
            ev.valid = true;
            ev.dirty = l.dirty;
            ev.addr = rebuild(set, tag);
            l.valid = false;
            l.dirty = false;
            return ev;
        }
    }
    return {};
}

} // namespace bsim::cpu
