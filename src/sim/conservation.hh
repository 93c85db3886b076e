/**
 * @file
 * Conservation identities between the cache hierarchy, the memory
 * controller and the DRAM device (the layer_conservation check).
 * Step-vs-skip equality only shows that two engines agree; these
 * identities check one layer's counts against the next one's, after a
 * run has drained:
 *
 *   accesses  == MSHR merges + L1 hits + L1 misses
 *   L1 misses == L2 hits + L2 misses
 *   L2 misses == memory reads == controller reads (forwarded included)
 *   memory writes == controller writes + coalesced writes
 *   controller reads - forwarded reads == DRAM read commands
 *   controller writes == DRAM write commands
 *
 * For a CMP run, pass the per-core counts summed over the cores.
 */

#ifndef BURSTSIM_SIM_CONSERVATION_HH
#define BURSTSIM_SIM_CONSERVATION_HH

#include <string>

#include "cpu/cache_hierarchy.hh"
#include "ctrl/controller.hh"
#include "dram/power.hh"

namespace bsim::sim
{

/** "" when every identity holds, else the first one broken, with its
 *  numbers. */
std::string conservationViolation(const cpu::CacheCounters &c,
                                  const ctrl::ControllerStats &s,
                                  const dram::CommandCounts &d);

} // namespace bsim::sim

#endif // BURSTSIM_SIM_CONSERVATION_HH
