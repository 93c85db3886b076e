/**
 * @file
 * Golden-value regression tests (gem5-style): exact cycle counts for a
 * few fixed (workload, mechanism, seed) points. The simulator is fully
 * deterministic, so any change to these numbers means the model's
 * behaviour changed — which may be intentional, but must be noticed.
 * When a change is deliberate, re-record the constants (the failure
 * message prints the new values).
 *
 * Traffic counts (reads/writes presented to the controller) must be
 * identical across mechanisms for a given workload: schedulers reorder,
 * they do not create or destroy accesses.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"

using namespace bsim;
using namespace bsim::sim;

namespace
{

struct Golden
{
    const char *workload;
    ctrl::Mechanism mechanism;
    std::uint64_t execCpuCycles;
    std::uint64_t reads;
    std::uint64_t writes;
};

// Recorded at 25,000 instructions, seed 20070212 (the defaults).
// Re-recorded when the refresh-drain gate landed: barring new
// activates to a refresh-pending rank shifts command timing around
// every refresh window (traffic counts are unchanged).
const Golden kGolden[] = {
    {"swim", ctrl::Mechanism::BkInOrder, 379940ull, 6644ull, 2764ull},
    {"swim", ctrl::Mechanism::RowHit, 304530ull, 6644ull, 2764ull},
    {"swim", ctrl::Mechanism::BurstTH, 258940ull, 6644ull, 2764ull},
    {"mcf", ctrl::Mechanism::BkInOrder, 82890ull, 1558ull, 29ull},
    {"mcf", ctrl::Mechanism::RowHit, 82180ull, 1558ull, 29ull},
    {"mcf", ctrl::Mechanism::BurstTH, 79160ull, 1558ull, 29ull},
    {"gzip", ctrl::Mechanism::BkInOrder, 83470ull, 1172ull, 189ull},
    {"gzip", ctrl::Mechanism::RowHit, 67510ull, 1172ull, 189ull},
    {"gzip", ctrl::Mechanism::BurstTH, 60390ull, 1172ull, 189ull},
};

// Without a printer gtest shows a parameter as raw bytes, workload
// pointer included, so the discovered test names would change from
// one build to the next.
void
PrintTo(const Golden &g, std::ostream *os)
{
    *os << g.workload << ' ' << ctrl::mechanismName(g.mechanism);
}

} // namespace

class GoldenValues : public testing::TestWithParam<Golden>
{
};

TEST_P(GoldenValues, ExactReproduction)
{
    const Golden &g = GetParam();
    ExperimentConfig cfg;
    cfg.workload = g.workload;
    cfg.mechanism = g.mechanism;
    cfg.instructions = 25000;
    const RunResult r = runExperiment(cfg);
    EXPECT_EQ(r.execCpuCycles, g.execCpuCycles)
        << "behavioural change: re-record if intentional (new value "
        << r.execCpuCycles << ")";
    EXPECT_EQ(r.ctrl.reads, g.reads) << "new value " << r.ctrl.reads;
    EXPECT_EQ(r.ctrl.writes, g.writes) << "new value " << r.ctrl.writes;
}

INSTANTIATE_TEST_SUITE_P(
    Fixed, GoldenValues, testing::ValuesIn(kGolden),
    [](const auto &info) {
        return std::string(info.param.workload) + "_" +
               ctrl::mechanismName(info.param.mechanism);
    });

TEST(GoldenValues, TrafficIsNearlyMechanismInvariant)
{
    // Schedulers reorder accesses, they do not create or destroy work.
    // Counts can differ marginally across mechanisms (MSHR merging is
    // timing dependent), but only marginally.
    std::uint64_t reads = 0, writes = 0;
    bool first = true;
    for (auto m : ctrl::kAllMechanisms) {
        ExperimentConfig cfg;
        cfg.workload = "gzip";
        cfg.mechanism = m;
        cfg.instructions = 25000;
        const RunResult r = runExperiment(cfg);
        if (first) {
            reads = r.ctrl.reads;
            writes = r.ctrl.writes;
            first = false;
        } else {
            EXPECT_NEAR(double(r.ctrl.reads), double(reads),
                        0.02 * double(reads))
                << ctrl::mechanismName(m);
            EXPECT_NEAR(double(r.ctrl.writes), double(writes),
                        0.02 * double(writes))
                << ctrl::mechanismName(m);
        }
    }
}
