#include "points.hh"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "ctrl/access.hh"
#include "trace/spec_profiles.hh"

namespace perfbench
{

using bsim::ctrl::Mechanism;
using bsim::sim::CmpConfig;
using bsim::sim::ExperimentConfig;

namespace
{

/** The simulator's historical default seed (sim::ExperimentConfig). */
constexpr std::uint64_t kBaseSeed = 20070212;

std::uint64_t
lengthFor(Scale s, std::uint64_t full)
{
    return s == Scale::Full ? full : 3000;
}

std::string
pointLabel(const ExperimentConfig &c)
{
    return c.workload + "/" + bsim::ctrl::mechanismName(c.mechanism);
}

Point
single(const std::string &profile, Mechanism m, std::uint64_t sim_seed,
       std::uint64_t length)
{
    Point p;
    p.run.workload = profile;
    p.run.mechanism = m;
    p.run.seed = sim_seed;
    p.run.instructions = length;
    p.label = pointLabel(p.run);
    return p;
}

/**
 * The simulation seeds of a run: @p k consecutive seeds per workload
 * seed (seed 0 starts at the simulator's default). Averaging a run over
 * several inputs keeps its figures from hanging on one input's cost.
 */
std::vector<std::uint64_t>
runSeeds(std::uint64_t seed, std::uint64_t k)
{
    std::vector<std::uint64_t> out;
    for (std::uint64_t j = 0; j < k; ++j)
        out.push_back(simSeed(seed * k + j));
    return out;
}

/** @p p with its simulation seed in the label (multi-seed runs). */
Point
seeded(Point p)
{
    p.label += "@" + std::to_string(p.run.seed);
    return p;
}

/** All 16 SPEC profiles x the 8 Table-4 mechanisms (Fig 10), for two
 *  simulation seeds: the first seed's 128 points are the Fig 10 set. */
void
figset(Workload &w, std::uint64_t seed, Scale s)
{
    for (std::uint64_t sim : runSeeds(seed, 2))
        for (const std::string &prof : bsim::trace::specProfileNames())
            for (Mechanism m : bsim::ctrl::kAllMechanisms)
                w.points.push_back(
                    seeded(single(prof, m, sim, lengthFor(s, 150'000))));
}

/** pchase under the five scheduler classes, plus two SPEC profiles on
 *  a blocking core: the engine's horizon path is the work. */
void
sparse(Workload &w, std::uint64_t seed, Scale s)
{
    for (std::uint64_t sim : runSeeds(seed, 4)) {
        for (Mechanism m : {Mechanism::BkInOrder, Mechanism::RowHit,
                            Mechanism::Intel, Mechanism::Burst,
                            Mechanism::AdaptiveHistory})
            w.points.push_back(
                seeded(single("pchase", m, sim, lengthFor(s, 20'000))));
        for (const char *prof : {"mcf", "gzip"}) {
            Point p = single(prof, Mechanism::BurstTH, sim,
                             lengthFor(s, 50'000));
            p.run.robSize = 1;
            p.run.issueWidth = 1;
            p.label += "/blocking";
            w.points.push_back(seeded(p));
        }
    }
}

/** mcf and swim under three mechanisms, each run plain and then with
 *  stall attribution, crit-path, introspection and a fatal audit. */
void
explain(Workload &w, std::uint64_t seed, Scale s)
{
    for (std::uint64_t sim : runSeeds(seed, 2))
        for (const char *prof : {"mcf", "swim"})
            for (Mechanism m : {Mechanism::BkInOrder, Mechanism::BurstTH,
                                Mechanism::RowHit}) {
                Point plain =
                    seeded(single(prof, m, sim, lengthFor(s, 50'000)));
                Point lit = plain;
                lit.label += "/pillars";
                lit.run.obs.stallAttribution = true;
                lit.run.obs.critPath = true;
                lit.run.obs.engineIntrospect = true;
                lit.run.obs.audit = bsim::obs::AuditMode::Fatal;
                lit.plainOf = int(w.points.size());
                w.points.push_back(plain);
                w.points.push_back(lit);
            }
}

/** Two 4-core mixes x four contention schedulers and Burst_TH, each
 *  in two core orders. The seed picks the orders: which core (hence
 *  which region and core seed) each profile lands on. */
void
cmpFairness(Workload &w, std::uint64_t seed, Scale s)
{
    const std::vector<std::vector<std::string>> mixes = {
        {"swim", "mcf", "gcc", "art"},
        {"lucas", "parser", "applu", "gzip"},
    };
    for (std::size_t rot : {seed % 4, (seed + 2) % 4})
        for (std::size_t x = 0; x < mixes.size(); ++x) {
            std::vector<std::string> cores = mixes[x];
            std::rotate(cores.begin(), cores.begin() + rot, cores.end());
            for (Mechanism m : {Mechanism::FrFcfs, Mechanism::Parbs,
                                Mechanism::Atlas, Mechanism::Bliss,
                                Mechanism::BurstTH}) {
                Point p;
                p.cmp = true;
                p.mix.workloads = cores;
                p.mix.mechanism = m;
                p.mix.instructions = s == Scale::Full ? 20'000 : 2000;
                p.label = "mix" + std::string(1, char('A' + x)) + "+" +
                          std::to_string(rot) + "/" +
                          bsim::ctrl::mechanismName(m);
                w.points.push_back(p);
            }
        }
}

} // namespace

const char *
scaleName(Scale s)
{
    return s == Scale::Full ? "full" : "tiny";
}

std::uint64_t
Point::instructions() const
{
    if (!cmp)
        return run.instructions;
    // The shared run plus one alone baseline per core.
    return 2 * mix.instructions * mix.workloads.size();
}

std::uint64_t
simSeed(std::uint64_t seed)
{
    return kBaseSeed + seed;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed, Scale scale,
             unsigned nproc)
{
    Workload w;
    w.name = name;
    // Spreading points over several cores also spreads the run over
    // several cores' worth of co-tenant interference, which steadies
    // the figures (and is how users run sweeps: --jobs).
    w.jobs = std::max(1u, std::min(4u, nproc));
    if (name == "figset")
        figset(w, seed, scale);
    else if (name == "sparse")
        sparse(w, seed, scale);
    else if (name == "explain")
        explain(w, seed, scale);
    else if (name == "cmp-fairness")
        cmpFairness(w, seed, scale);
    else
        throw std::invalid_argument("unknown workload '" + name + "'");
    return w;
}

std::vector<Input>
distinctInputs(const Workload &w)
{
    std::map<std::string, Input> seen;
    auto add = [&](const std::string &prof_name, std::size_t shift,
                   std::uint64_t seed, std::uint64_t length) {
        bsim::trace::WorkloadProfile prof =
            bsim::trace::profileByName(prof_name);
        // runCmpShifted's placement: core shift i lives i regions up.
        prof.regionBase += bsim::Addr(shift) *
                           (prof.footprintBytes + (64ULL << 20));
        const std::string key = prof_name + "@" + std::to_string(shift) +
                                "/" + std::to_string(seed);
        seen.emplace(key, Input{key, prof, seed, length});
    };
    for (const Point &p : w.points) {
        if (!p.cmp) {
            add(p.run.workload, 0, p.run.seed, p.run.instructions);
            continue;
        }
        for (std::size_t i = 0; i < p.mix.workloads.size(); ++i)
            add(p.mix.workloads[i], i, kBaseSeed + i, p.mix.instructions);
    }
    std::vector<Input> out;
    for (auto &[key, in] : seen)
        out.push_back(std::move(in));
    return out;
}

std::vector<Point>
cmpProxies(const Workload &w)
{
    std::vector<Point> out;
    const std::vector<std::string> &first = w.points.front().mix.workloads;
    for (const Point &p : w.points) {
        if (p.mix.workloads != first)
            continue;
        for (std::size_t i = 0; i < first.size(); ++i) {
            Point s = single(first[i], p.mix.mechanism, kBaseSeed + i, 0);
            s.run.instructions = p.mix.instructions;
            s.label += "/alone-proxy";
            out.push_back(s);
        }
    }
    return out;
}

} // namespace perfbench
