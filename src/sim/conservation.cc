#include "sim/conservation.hh"

#include <cstdint>
#include <sstream>

namespace bsim::sim
{

std::string
conservationViolation(const cpu::CacheCounters &c,
                      const ctrl::ControllerStats &s,
                      const dram::CommandCounts &d)
{
    std::ostringstream os;
    const auto check = [&os](const char *what, std::uint64_t lhs,
                             std::uint64_t rhs) {
        if (lhs != rhs && os.tellp() == 0)
            os << what << ": " << lhs << " != " << rhs;
    };
    check("accesses vs mshr merges + l1 hits + l1 misses", c.accesses,
          c.mshrMerges + c.l1Hits + c.l1Misses);
    check("l1 misses vs l2 hits + l2 misses", c.l1Misses,
          c.l2Hits + c.l2Misses);
    check("l2 misses vs mem reads", c.l2Misses, c.memReads);
    check("mem reads vs controller reads", c.memReads, s.reads);
    check("mem writes vs controller writes + coalesced", c.memWrites,
          s.writes + s.coalescedWrites);
    check("controller reads - forwarded vs dram reads",
          s.reads - s.forwardedReads, d.reads);
    check("controller writes vs dram writes", s.writes, d.writes);
    return os.str();
}

} // namespace bsim::sim
