/**
 * @file
 * Layer conservation (the layer_conservation check): after a drained
 * run, the cache hierarchy's counts must conserve and match what the
 * memory controller saw — every hierarchy access is a merge, an L1 hit
 * or an L1 miss; every L1 miss an L2 hit or miss; every L2 miss exactly
 * one memory read; every memory write one controller write. Step-vs-
 * skip equality cannot catch a count both engines get wrong (such as
 * L2 "misses" that were refused probes, re-counted every cycle); this
 * check can.
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/conservation.hh"
#include "sim/experiment.hh"
#include "trace/spec_profiles.hh"

using namespace bsim;
using namespace bsim::sim;

namespace
{

constexpr std::uint64_t kInstr = 20'000;

} // namespace

class LayerConservation : public testing::TestWithParam<std::string>
{
};

TEST_P(LayerConservation, EveryTable4MechanismBothEngines)
{
    for (ctrl::Mechanism m : ctrl::kAllMechanisms) {
        for (EngineKind e : {EngineKind::Step, EngineKind::Skip}) {
            ExperimentConfig cfg;
            cfg.workload = GetParam();
            cfg.mechanism = m;
            cfg.instructions = kInstr;
            cfg.engine = e;
            const RunResult r = runExperiment(cfg);
            EXPECT_EQ(conservationViolation(r.caches, r.ctrl), "")
                << GetParam() << ' ' << ctrl::mechanismName(m) << ' '
                << engineKindName(e);
            EXPECT_EQ(r.l2Misses, r.memReads);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Profiles, LayerConservation,
                         testing::ValuesIn(trace::specProfileNames()),
                         [](const auto &info) { return info.param; });

TEST(LayerConservationCmp, FourCoreMixSummedOverCores)
{
    for (EngineKind e : {EngineKind::Step, EngineKind::Skip}) {
        CmpConfig cfg;
        cfg.workloads = {"swim", "mcf", "gcc", "art"};
        cfg.mechanism = ctrl::Mechanism::BurstTH;
        cfg.instructions = kInstr;
        cfg.engine = e;
        const CmpResult r = runCmpExperiment(cfg);
        EXPECT_GT(r.caches.memReads, 0u);
        EXPECT_EQ(conservationViolation(r.caches, r.ctrl), "")
            << engineKindName(e);
    }
}
