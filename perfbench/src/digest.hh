/**
 * @file
 * Output digests: the benchmark's correctness gate.
 *
 * A digest is FNV-1a over a canonical text of the simulated outputs
 * that must never move under a performance change: execution time,
 * controller statistics, DRAM command and bus statistics, and (when the
 * pillars ran) stall attribution, critical path and audit results. The
 * cache counters (l2_misses, mem_reads, mem_writes) are deliberately
 * left out: they are reported as cpu.* counts instead, because fixing
 * the CPU-side retry poll changes them and nothing else.
 *
 * Goldens are text files of "<kind> <scale> <seed> <label> <hex>"
 * lines, one file per workload.
 */

#ifndef PERFBENCH_DIGEST_HH
#define PERFBENCH_DIGEST_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "sim/experiment.hh"
#include "trace/trace_gen.hh"

namespace perfbench
{

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t fnv1a(std::string_view s, std::uint64_t h = kFnvBasis);

/** Digest of a single-core run's outputs, without any pillar data. */
std::uint64_t coreDigest(const bsim::sim::RunResult &r);

/** coreDigest plus the pillar outputs present in @p r. */
std::uint64_t fullDigest(const bsim::sim::RunResult &r);

/** Digest of a CMP mix run with its fairness metrics. */
std::uint64_t cmpDigest(const bsim::sim::CmpResult &r);

/** Digest of a whole input trace (every instruction). */
std::uint64_t inputDigest(const bsim::trace::WorkloadProfile &prof,
                          std::uint64_t seed, std::uint64_t length);

std::string hex(std::uint64_t v);

/** Golden digests keyed by "<kind> <scale> <seed> <label>". */
class Goldens
{
  public:
    /** Load @p path. Throws std::runtime_error when the file cannot
     *  be read or has a malformed line. */
    void load(const std::string &path);

    /** Write every entry to @p path, sorted. */
    void save(const std::string &path) const;

    /** The golden for @p key, or nullptr. */
    const std::string *find(const std::string &key) const;

    void set(const std::string &key, const std::string &value)
    {
        entries_[key] = value;
    }

    /** Add (or overwrite with) every entry of @p o. */
    void merge(const Goldens &o)
    {
        for (const auto &[key, value] : o.entries_)
            entries_[key] = value;
    }

    /** Does any entry exist for (@p scale, @p seed)? */
    bool covers(const std::string &scale, std::uint64_t seed) const;

  private:
    std::map<std::string, std::string> entries_;
};

} // namespace perfbench

#endif // PERFBENCH_DIGEST_HH
