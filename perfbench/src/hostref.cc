#include "hostref.hh"

#include <cstdint>
#include <mutex>
#include <thread>

#include "layers.hh"
#include "stats.hh"

namespace perfbench
{

namespace
{

/**
 * Fixed work on a 2 MB per-thread table (the size of the simulated L2):
 * hashed lookups, data-dependent branches and updates. It allocates
 * nothing while timed, so page faults and allocator state, which vary
 * with the machine's memory pressure rather than its CPU speed, stay out
 * of the reference.
 */
double
kernelMs()
{
    constexpr std::size_t kEntries = std::size_t(1) << 18;
    thread_local std::vector<std::uint64_t> table(kEntries, 1);
    const auto t0 = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL, acc = 0;
    for (int i = 0; i < 400'000; ++i) {
        x ^= x >> 29;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 32;
        std::uint64_t &e = table[x & (kEntries - 1)];
        if (e & 1)
            e += x;
        else
            e ^= x >> 3;
        acc += table[(e >> 7) & (kEntries - 1)];
    }
    volatile std::uint64_t keep = acc;
    (void)keep;
    return double(nsSince(t0)) * 1e-6;
}

} // namespace

void
HostRef::sample(unsigned threads, int reps)
{
    std::mutex mu;
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back([&] {
            std::vector<double> mine;
            for (int r = 0; r < reps; ++r)
                mine.push_back(kernelMs());
            std::lock_guard<std::mutex> lock(mu);
            ms_.insert(ms_.end(), mine.begin(), mine.end());
        });
    for (std::thread &t : pool)
        t.join();
}

double
HostRef::ms() const
{
    return median(ms_);
}

} // namespace perfbench
