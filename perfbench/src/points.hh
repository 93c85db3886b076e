/**
 * @file
 * The benchmark's four workloads as lists of experiment points.
 *
 * A point is one sim::runExperiment call, or one CMP mix run through
 * sim::runCmpFairness (the shared run plus one alone baseline per
 * core). The workload seed chooses the simulation seeds of single-core
 * points and the core orders of CMP mixes, so the same seed always
 * yields the same inputs.
 */

#ifndef PERFBENCH_POINTS_HH
#define PERFBENCH_POINTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "trace/trace_gen.hh"

namespace perfbench
{

/** Run length: the users' default, or a smoke-test size. */
enum class Scale { Full, Tiny };

const char *scaleName(Scale s);

/** One experiment point. */
struct Point
{
    std::string label;
    bool cmp = false;
    bsim::sim::ExperimentConfig run; //!< single-core points
    bsim::sim::CmpConfig mix;        //!< CMP points
    /** Index of the plain point this one repeats with pillars on
     *  (explain only); -1 for plain points. */
    int plainOf = -1;

    /** Instructions retired by the point (all cores, all runs). */
    std::uint64_t instructions() const;
};

/** A named workload: its points and how many run at once. */
struct Workload
{
    std::string name;
    std::vector<Point> points;
    unsigned jobs = 1; //!< SweepRunner worker threads
};

/** Simulation seed number @p n; 0 is the simulator's default seed. */
std::uint64_t simSeed(std::uint64_t n);

/** Build workload @p name; throws std::invalid_argument if unknown. */
Workload makeWorkload(const std::string &name, std::uint64_t seed,
                      Scale scale, unsigned nproc);

/**
 * One distinct synthetic input trace of a workload: the profile (with
 * any CMP region shift applied), its seed and its length. Mechanisms do
 * not change the input, so a workload has far fewer inputs than points.
 */
struct Input
{
    std::string key; //!< "<profile>@<shift>/<seed>"
    bsim::trace::WorkloadProfile profile;
    std::uint64_t seed = 0;
    std::uint64_t length = 0;
};

std::vector<Input> distinctInputs(const Workload &w);

/**
 * Single-core stand-ins for a CMP workload's mixes: each core of the
 * first mix run alone through runExperiment under each mechanism.
 * runCmpFairness has no scheduler-factory or pillar seam, so the
 * per-layer probes that need one run here instead.
 */
std::vector<Point> cmpProxies(const Workload &w);

} // namespace perfbench

#endif // PERFBENCH_POINTS_HH
