/**
 * @file
 * Set-associative writeback cache with true-LRU replacement.
 *
 * The cache is a state container: lookups and fills update tag state
 * immediately; timing is applied by the CacheHierarchy/Core. Dirty
 * victims are returned to the caller, which routes them down the
 * hierarchy (eventually becoming main-memory writes — the only write
 * traffic the controller sees, as in the paper's writeback baseline).
 */

#ifndef BURSTSIM_CPU_CACHE_HH
#define BURSTSIM_CPU_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace bsim::cpu
{

/** Geometry of one cache level. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 128 * 1024;
    std::uint32_t assoc = 2;
    std::uint32_t blockBytes = 64;

    std::uint64_t
    numSets() const
    {
        return sizeBytes / (std::uint64_t(assoc) * blockBytes);
    }
};

/** Result of inserting a block. */
struct Eviction
{
    bool valid = false; //!< a victim was evicted
    bool dirty = false; //!< ... and it was dirty
    Addr addr = 0;      //!< victim block address
};

/** One level of writeback cache. */
class Cache
{
  public:
    /** Build with @p cfg; dimensions must be powers of two. */
    explicit Cache(const CacheConfig &cfg);

    /**
     * Look up @p addr; on a hit updates LRU and (for @p is_write) the
     * dirty bit. Returns true on hit.
     */
    bool access(Addr addr, bool is_write);

    /**
     * access() without the hit/miss count: the LRU and dirty update of
     * a hit, for a line an earlier access already counted. Returns true
     * when the block is present.
     */
    bool touch(Addr addr, bool is_write);

    /** Tag-only probe; no LRU update. */
    bool contains(Addr addr) const;

    /**
     * Insert the block of @p addr (marks dirty when @p dirty), evicting
     * the LRU way of its set when full.
     */
    Eviction insert(Addr addr, bool dirty);

    /** Invalidate @p addr if present; returns the eviction record. */
    Eviction invalidate(Addr addr);

    /** Hits observed by access(). */
    std::uint64_t hits() const { return hits_; }

    /** Misses observed by access(). */
    std::uint64_t misses() const { return misses_; }

    /** Dirty evictions produced by insert(). */
    std::uint64_t writebacks() const { return writebacks_; }

    /** Geometry. */
    const CacheConfig &config() const { return cfg_; }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    /** The valid line holding @p addr, or nullptr. */
    const Line *find(Addr addr) const;

    std::uint64_t setOf(Addr addr) const;
    Addr tagOf(Addr addr) const;
    Addr rebuild(std::uint64_t set, Addr tag) const;

    CacheConfig cfg_;
    std::uint64_t setMask_;
    std::uint32_t offsetBits_;
    std::uint32_t setBits_;
    std::vector<Line> lines_; //!< sets x assoc, set-major
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace bsim::cpu

#endif // BURSTSIM_CPU_CACHE_HH
