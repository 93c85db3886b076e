/**
 * @file
 * Order statistics over host-time samples.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench
{

/** The @p q quantile of @p v, linearly interpolated; 0 when empty. */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/**
 * The @p q quantile of @p v, smoothed: the mean of the values ranked
 * within 5 percentiles of @p q. Point times cluster by profile, and a
 * plain order statistic that falls in the gap between two clusters
 * jumps with every small change of either; the window averages across
 * the gap.
 */
inline double
smoothQuantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double last = double(v.size() - 1);
    const auto lo = std::size_t(std::max(0.0, std::floor((q - 0.05) * last)));
    const auto hi = std::size_t(std::min(last, std::ceil((q + 0.05) * last)));
    double sum = 0.0;
    for (std::size_t i = lo; i <= hi; ++i)
        sum += v[i];
    return sum / double(hi - lo + 1);
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
