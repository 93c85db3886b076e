/**
 * @file
 * Host-speed reference: a fixed kernel, independent of burstsim, timed
 * between the benchmark's passes.
 *
 * The benchmark host shares its cores with other tenants, and its speed
 * drifts by 30% and more over minutes, moving every host time of a run
 * together. The reference kernel (hashed lookups and updates in a
 * cache-sized table — the same kind of work as the simulator's) drifts
 * with it, so scaling a run's host times by nominal / measured
 * reference time states them at one nominal host speed, and runs made
 * minutes apart become comparable. A change to burstsim never changes
 * the kernel.
 */

#ifndef PERFBENCH_HOSTREF_HH
#define PERFBENCH_HOSTREF_HH

#include <vector>

namespace perfbench
{

/** Median reference kernel time on the nominal host (4 threads). */
constexpr double kRefNominalMs = 4.8;

class HostRef
{
  public:
    /** Run the kernel @p reps times on each of @p threads threads. */
    void sample(unsigned threads, int reps);

    /** Median of all samples so far (ms). */
    double ms() const;

    /** Multiply a host time by this to state it at nominal speed. */
    double factor() const { return kRefNominalMs / ms(); }

  private:
    std::vector<double> ms_;
};

} // namespace perfbench

#endif // PERFBENCH_HOSTREF_HH
