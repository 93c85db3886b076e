/**
 * @file
 * Engine equivalence: the event-driven cycle-skipping engine must be
 * byte-identical to the tick-accurate step engine — not approximately
 * equal, identical. Every statistic the simulator can emit (result
 * JSON, stall-attribution JSON, metrics time series) is compared as a
 * rendered string across the five scheduler classes, single-core and
 * CMP, DDR2-800 and DDR-266, with and without observability pillars.
 *
 * This suite is what licenses every horizon shortcut in the skip
 * engine: a scheduler nextEventTick() that overshoots, a stale horizon
 * memo, or a non-idempotent idle-span replay shows up here as a
 * one-byte diff.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>
#include <tuple>

#include "ctrl/schedulers/decorator.hh"
#include "obs/critpath.hh"
#include "obs/observability.hh"
#include "sim/conservation.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "sim/sweep_runner.hh"
#include "trace/spec_profiles.hh"
#include "trace/trace_gen.hh"

using namespace bsim;
using namespace bsim::sim;

namespace
{

constexpr std::uint64_t kInstr = 20'000;

/** One mechanism per scheduler implementation: the five single-core
 *  classes plus the four contention-aware CMP families. */
const ctrl::Mechanism kSchedulerClasses[] = {
    ctrl::Mechanism::BkInOrder,       ctrl::Mechanism::RowHit,
    ctrl::Mechanism::Intel,           ctrl::Mechanism::Burst,
    ctrl::Mechanism::AdaptiveHistory, ctrl::Mechanism::FrFcfs,
    ctrl::Mechanism::Parbs,           ctrl::Mechanism::Atlas,
    ctrl::Mechanism::Bliss,
};

/** gtest parameter names must be alphanumeric: "FR-FCFS" -> "FR_FCFS". */
std::string
paramSafe(std::string s)
{
    for (char &c : s)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return s;
}

std::string
resultJson(const RunResult &r)
{
    std::ostringstream os;
    writeResultJson(os, r);
    return os.str();
}

RunResult
runWith(ExperimentConfig cfg, EngineKind engine)
{
    cfg.engine = engine;
    return runExperiment(cfg);
}

/** A System run's counts, rendered for a byte compare. */
struct SystemRun
{
    std::string fingerprint; //!< timing, controller, cores, caches
    std::uint64_t retryCycles = 0; //!< summed over causes and cores
    std::string conservation; //!< conservationViolation() of the sums
};

/**
 * Run @p workloads (one core each on disjoint regions, cold caches)
 * with a 2-deep FSB queue: a miss then needs an empty queue, so
 * accesses park behind back-pressure all the time.
 */
SystemRun
runBackpressured(const std::vector<std::string> &workloads,
                 ctrl::Mechanism m, EngineKind engine)
{
    SystemConfig cfg = SystemConfig::baseline();
    cfg.ctrl.mechanism = m;
    cfg.memQueueCap = 2;
    cfg.engine = engine;
    std::vector<std::unique_ptr<trace::SyntheticGenerator>> gens;
    std::vector<trace::TraceSource *> sources;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        trace::WorkloadProfile prof = trace::profileByName(workloads[i]);
        prof.regionBase += Addr(i) * (prof.footprintBytes + (64ULL << 20));
        gens.push_back(std::make_unique<trace::SyntheticGenerator>(
            prof, kInstr, 20070212 + i));
        sources.push_back(gens.back().get());
    }
    System sys(cfg, sources);
    sys.run(50'000'000);
    EXPECT_TRUE(sys.done());

    SystemRun out;
    std::ostringstream os;
    const ctrl::ControllerStats &s = sys.controller().stats();
    os << sys.execCpuCycles() << ' ' << sys.memCycles() << " ctrl "
       << s.reads << ' ' << s.writes << ' ' << s.forwardedReads << ' '
       << s.rowHits << ' ' << s.rowConflicts << ' '
       << s.readLatency.sum() << ' ' << s.writeLatency.sum() << '\n';
    cpu::CacheCounters sum;
    for (std::uint32_t i = 0; i < sys.numCores(); ++i) {
        const cpu::Core &c = sys.core(i);
        const cpu::CacheCounters k = sys.caches(i).counters();
        const std::uint64_t mshr = c.retryCycles(cpu::RetryCause::MshrFull);
        const std::uint64_t fsb = c.retryCycles(cpu::RetryCause::FsbFull);
        os << "core " << i << ' ' << sys.coreExecCpuCycles(i) << ' '
           << c.retired() << ' ' << c.headStallCycles() << ' '
           << c.storeStallCycles() << ' ' << mshr << ' ' << fsb
           << " caches " << k.accesses << ' ' << k.mshrMerges << ' '
           << k.l1Hits << ' ' << k.l1Misses << ' ' << k.l2Hits << ' '
           << k.l2Misses << ' ' << k.memReads << ' ' << k.memWrites
           << '\n';
        out.retryCycles += mshr + fsb;
        sum += k;
    }
    out.fingerprint = os.str();
    out.conservation =
        conservationViolation(sum, s, sys.mem().commandCounts());
    return out;
}

} // namespace

class EveryPair
    : public testing::TestWithParam<std::tuple<ctrl::Mechanism, std::string>>
{
};

TEST_P(EveryPair, ResultJsonByteIdentical)
{
    ExperimentConfig cfg;
    cfg.mechanism = std::get<0>(GetParam());
    cfg.workload = std::get<1>(GetParam());
    cfg.instructions = kInstr;

    const RunResult step = runWith(cfg, EngineKind::Step);
    const RunResult skip = runWith(cfg, EngineKind::Skip);

    EXPECT_EQ(step.execCpuCycles, skip.execCpuCycles);
    EXPECT_EQ(step.memCycles, skip.memCycles);
    EXPECT_EQ(resultJson(step), resultJson(skip));
}

INSTANTIATE_TEST_SUITE_P(
    Engines, EveryPair,
    testing::Combine(testing::ValuesIn(kSchedulerClasses),
                     testing::Values(std::string("mcf"),
                                     std::string("swim"),
                                     std::string("gzip"))),
    [](const auto &info) {
        return paramSafe(
            std::string(ctrl::mechanismName(std::get<0>(info.param))) +
            "_" + std::get<1>(info.param));
    });

TEST(EngineEquivalence, LowMlpMicrobenchmark)
{
    // pchase maximizes the skipped-span fraction: the most aggressive
    // exercise of the horizon machinery.
    for (auto m : {ctrl::Mechanism::BkInOrder, ctrl::Mechanism::BurstTH}) {
        ExperimentConfig cfg;
        cfg.workload = "pchase";
        cfg.mechanism = m;
        cfg.instructions = kInstr;
        const RunResult step = runWith(cfg, EngineKind::Step);
        const RunResult skip = runWith(cfg, EngineKind::Skip);
        EXPECT_EQ(resultJson(step), resultJson(skip))
            << ctrl::mechanismName(m);
    }
}

TEST(EngineEquivalence, Ddr266ByteIdentical)
{
    ExperimentConfig cfg;
    cfg.workload = "swim";
    cfg.mechanism = ctrl::Mechanism::BurstTH;
    cfg.device = DeviceGen::DDR_266;
    cfg.instructions = kInstr;
    const RunResult step = runWith(cfg, EngineKind::Step);
    const RunResult skip = runWith(cfg, EngineKind::Skip);
    EXPECT_EQ(resultJson(step), resultJson(skip));
}

TEST(EngineEquivalence, ObservabilityPillarsByteIdentical)
{
    // Stall attribution forces the per-tick stall scan (the lazy
    // horizon-memo path is off), but spans are still skipped with bulk
    // attribution; every pillar's export must not notice.
    ExperimentConfig cfg;
    cfg.workload = "swim";
    cfg.mechanism = ctrl::Mechanism::BurstTH;
    cfg.instructions = kInstr;
    cfg.obs.latencyBreakdown = true;
    cfg.obs.metricsInterval = 512;
    cfg.obs.stallAttribution = true;
    cfg.obs.audit = obs::AuditMode::Warn;

    const RunResult step = runWith(cfg, EngineKind::Step);
    const RunResult skip = runWith(cfg, EngineKind::Skip);

    EXPECT_EQ(resultJson(step), resultJson(skip));

    ASSERT_NE(step.obs, nullptr);
    ASSERT_NE(skip.obs, nullptr);
    const auto render = [](const obs::Observability &o, auto writer) {
        std::ostringstream os;
        (o.*writer)(os);
        return os.str();
    };
    EXPECT_EQ(render(*step.obs, &obs::Observability::writeStallJson),
              render(*skip.obs, &obs::Observability::writeStallJson));
    EXPECT_EQ(render(*step.obs, &obs::Observability::writeMetricsJson),
              render(*skip.obs, &obs::Observability::writeMetricsJson));

    // And the skip engine must not bend the DDR2 protocol to get there.
    EXPECT_EQ(step.obs->auditor()->violationCount(), 0u);
    EXPECT_EQ(skip.obs->auditor()->violationCount(), 0u);
}

TEST(EngineEquivalence, WatermarkDrainByteIdentical)
{
    // The watermark write-drain mode reads the GLOBAL write count, so
    // its flip lattice is the hardest cross-channel case the horizon
    // memo faces (an idle channel must not flip on remote traffic the
    // skip engine never wakes for). Every family, two workloads, with
    // the full cache stack and with the memo off.
    for (auto m : ctrl::kContentionMechanisms) {
        for (const char *wl : {"mcf", "swim"}) {
            ExperimentConfig cfg;
            cfg.workload = wl;
            cfg.mechanism = m;
            cfg.instructions = kInstr;
            cfg.watermarkDrain = true;
            const RunResult step = runWith(cfg, EngineKind::Step);
            const RunResult skip = runWith(cfg, EngineKind::Skip);
            EXPECT_EQ(resultJson(step), resultJson(skip))
                << ctrl::mechanismName(m) << " " << wl;
            cfg.horizonMemo = false;
            const RunResult bare = runWith(cfg, EngineKind::Skip);
            EXPECT_EQ(resultJson(step), resultJson(bare))
                << ctrl::mechanismName(m) << " " << wl << " (no memo)";
        }
    }
}

TEST(EngineEquivalence, CmpByteIdentical)
{
    const std::vector<std::string> wls = {"swim", "mcf"};
    const CmpResult step = runCmpExperiment(
        wls, ctrl::Mechanism::BurstTH, kInstr, 52, EngineKind::Step);
    const CmpResult skip = runCmpExperiment(
        wls, ctrl::Mechanism::BurstTH, kInstr, 52, EngineKind::Skip);

    const auto render = [](const CmpResult &r) {
        std::ostringstream os;
        writeCmpResultJson(os, r);
        return os.str();
    };
    EXPECT_EQ(step.execCpuCycles, skip.execCpuCycles);
    EXPECT_EQ(render(step), render(skip));
}

TEST(EngineEquivalence, ForcedBackpressureByteIdentical)
{
    // With memQueueCap = 2 nearly every miss is refused first, so cores
    // park and go quiescent behind back-pressure and are woken by FSB
    // admissions and MSHR releases. This pins the tick whose CPU phase
    // looks dead before admission: a pop inside it must still run that
    // window, and bulk-applied store stalls must equal stepped ones.
    const ctrl::Mechanism families[] = {
        ctrl::Mechanism::BkInOrder, ctrl::Mechanism::RowHit,
        ctrl::Mechanism::Intel, ctrl::Mechanism::BurstTH,
        ctrl::Mechanism::AdaptiveHistory};
    for (ctrl::Mechanism m : families) {
        const SystemRun step = runBackpressured({"swim"}, m, EngineKind::Step);
        const SystemRun skip = runBackpressured({"swim"}, m, EngineKind::Skip);
        EXPECT_GT(step.retryCycles, 0u) << ctrl::mechanismName(m);
        EXPECT_EQ(step.fingerprint, skip.fingerprint)
            << ctrl::mechanismName(m);
        EXPECT_EQ(skip.conservation, "") << ctrl::mechanismName(m);
    }
    const std::vector<std::string> mix = {"swim", "mcf", "gcc", "art"};
    for (ctrl::Mechanism m :
         {ctrl::Mechanism::BurstTH, ctrl::Mechanism::Parbs}) {
        const SystemRun step = runBackpressured(mix, m, EngineKind::Step);
        const SystemRun skip = runBackpressured(mix, m, EngineKind::Skip);
        EXPECT_GT(step.retryCycles, 0u) << ctrl::mechanismName(m);
        EXPECT_EQ(step.fingerprint, skip.fingerprint)
            << "CMP " << ctrl::mechanismName(m);
        EXPECT_EQ(skip.conservation, "") << ctrl::mechanismName(m);
    }
}

TEST(EngineEquivalence, FullScanOracleByteIdentical)
{
    // The Table 4 schedulers re-run a bank's arbiter only when an event
    // marked the bank dirty. The full-scan oracle marks every bank dirty
    // before every tick and horizon query — the old full rescan — so a
    // missed dirty event shows up as a diff against it. Small and
    // dynamic thresholds keep the band signature flipping; stall
    // attribution and crit-path tracing add the per-bank causes and the
    // per-access stream to the compare.
    struct Variant
    {
        std::size_t threshold;
        bool dynamic;
        bool traced;
    };
    const Variant variants[] = {
        {52, false, false}, {4, false, false}, {52, true, true}};
    const auto stallJson = [](const RunResult &r) {
        std::ostringstream os;
        r.obs->writeStallJson(os);
        return os.str();
    };
    for (ctrl::Mechanism m : ctrl::kAllMechanisms) {
        for (const char *wl : {"swim", "mcf"}) {
            for (const Variant &v : variants) {
                for (EngineKind engine :
                     {EngineKind::Step, EngineKind::Skip}) {
                    ExperimentConfig cfg;
                    cfg.workload = wl;
                    cfg.mechanism = m;
                    cfg.instructions = kInstr / 2;
                    cfg.threshold = v.threshold;
                    cfg.dynamicThreshold = v.dynamic;
                    cfg.obs.stallAttribution = v.traced;
                    cfg.obs.critPath = v.traced;
                    cfg.obs.engineIntrospect = v.traced;
                    const RunResult plain = runWith(cfg, engine);
                    cfg.schedulerFactory = ctrl::fullScanFactory();
                    cfg.schedulerFactoryId = "full-scan";
                    const RunResult full = runWith(cfg, engine);

                    const std::string what =
                        std::string(ctrl::mechanismName(m)) + " " + wl +
                        " threshold=" + std::to_string(v.threshold) +
                        (v.dynamic ? " dynamic" : "") + " " +
                        engineKindName(engine);
                    EXPECT_EQ(resultJson(plain), resultJson(full)) << what;
                    if (!v.traced)
                        continue;
                    ASSERT_NE(plain.obs, nullptr);
                    ASSERT_NE(full.obs, nullptr);
                    EXPECT_EQ(stallJson(plain), stallJson(full)) << what;
                    EXPECT_EQ(plain.obs->critpath()->digest(),
                              full.obs->critpath()->digest())
                        << what;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Horizon-memo invalidation edge cases. The skip engine caches per-bank
// release bounds and a per-channel horizon memo keyed on a scheduler
// "global signature" (threshold band, write-cap band). Each test below
// pins one way that cache can go stale if an invalidation hook is
// missing; all of them demand byte-identical statistics.
// ---------------------------------------------------------------------

TEST_P(EveryPair, MemoOffByteIdentical)
{
    // --no-horizon-memo must be purely an implementation toggle: same
    // result JSON as both the memoized skip engine and the step engine.
    ExperimentConfig cfg;
    cfg.mechanism = std::get<0>(GetParam());
    cfg.workload = std::get<1>(GetParam());
    cfg.instructions = kInstr;

    const RunResult step = runWith(cfg, EngineKind::Step);
    const RunResult skip = runWith(cfg, EngineKind::Skip);
    cfg.horizonMemo = false;
    const RunResult bare = runWith(cfg, EngineKind::Skip);

    EXPECT_EQ(resultJson(step), resultJson(bare));
    EXPECT_EQ(resultJson(skip), resultJson(bare));
}

TEST(HorizonMemoEdgeCases, MemoIsTransparentToSkipDecisions)
{
    // Stronger than byte-identical stats: the memo must not change
    // *which* cycles are skipped. Skipped/stepped introspection totals
    // must match exactly between memo-on and memo-off runs (the fuzz
    // engine_equivalence oracle checks the same invariant).
    for (auto m : kSchedulerClasses) {
        ExperimentConfig cfg;
        cfg.workload = "mcf";
        cfg.mechanism = m;
        cfg.instructions = kInstr;
        cfg.engine = EngineKind::Skip;
        cfg.obs.engineIntrospect = true;

        cfg.horizonMemo = true;
        const RunResult memo = runExperiment(cfg);
        cfg.horizonMemo = false;
        const RunResult bare = runExperiment(cfg);

        ASSERT_NE(memo.obs, nullptr);
        ASSERT_NE(bare.obs, nullptr);
        const auto *im = memo.obs->introspect();
        const auto *ib = bare.obs->introspect();
        EXPECT_EQ(im->steppedCycles(), ib->steppedCycles())
            << ctrl::mechanismName(m);
        EXPECT_EQ(im->skippedCycles(), ib->skippedCycles())
            << ctrl::mechanismName(m);
        EXPECT_EQ(memo.memCycles, bare.memCycles) << ctrl::mechanismName(m);
    }
}

TEST(HorizonMemoEdgeCases, MemoIsTransparentUnderStallAttribution)
{
    // The per-bank constraint cache also arms while stall causes are
    // attributed; there it answers with first-binding deadlines and
    // feeds every stall scan. Caches on or off, the skip decisions, the
    // stall JSON and the crit-path access stream must not change.
    for (auto m : kSchedulerClasses) {
        for (const char *wl : {"mcf", "swim"}) {
            ExperimentConfig cfg;
            cfg.workload = wl;
            cfg.mechanism = m;
            cfg.instructions = kInstr;
            cfg.engine = EngineKind::Skip;
            cfg.obs.engineIntrospect = true;
            cfg.obs.stallAttribution = true;
            cfg.obs.critPath = true;

            cfg.horizonMemo = true;
            const RunResult memo = runExperiment(cfg);
            cfg.horizonMemo = false;
            const RunResult bare = runExperiment(cfg);

            ASSERT_NE(memo.obs, nullptr);
            ASSERT_NE(bare.obs, nullptr);
            const auto *im = memo.obs->introspect();
            const auto *ib = bare.obs->introspect();
            const std::string what =
                std::string(ctrl::mechanismName(m)) + " " + wl;
            EXPECT_GT(im->frontHorizonHits(), 0u) << what;
            EXPECT_EQ(ib->frontHorizonHits(), 0u) << what;
            EXPECT_EQ(im->steppedCycles(), ib->steppedCycles()) << what;
            EXPECT_EQ(im->skippedCycles(), ib->skippedCycles()) << what;
            EXPECT_EQ(memo.memCycles, bare.memCycles) << what;

            std::ostringstream sm, sb;
            memo.obs->writeStallJson(sm);
            bare.obs->writeStallJson(sb);
            EXPECT_EQ(sm.str(), sb.str()) << what;
            EXPECT_EQ(memo.obs->critpath()->digest(),
                      bare.obs->critpath()->digest())
                << what;
        }
    }
}

TEST(HorizonMemoEdgeCases, ArrivalRacingThresholdFlip)
{
    // A tiny Burst threshold keeps writesOutstanding hovering around
    // the threshold band edges, so cross-channel arrivals flip the
    // drain decision *while the other channel's memo is armed*. The
    // signature band compare must catch every flip.
    for (std::size_t th : {std::size_t(1), std::size_t(4), std::size_t(16)}) {
        for (auto m : {ctrl::Mechanism::Burst, ctrl::Mechanism::BurstTH,
                       ctrl::Mechanism::Intel}) {
            ExperimentConfig cfg;
            cfg.workload = "swim"; // highest write fraction in the set
            cfg.mechanism = m;
            cfg.threshold = th;
            cfg.instructions = kInstr;
            const RunResult step = runWith(cfg, EngineKind::Step);
            const RunResult skip = runWith(cfg, EngineKind::Skip);
            EXPECT_EQ(resultJson(step), resultJson(skip))
                << ctrl::mechanismName(m) << " threshold=" << th;
        }
    }
}

TEST(HorizonMemoEdgeCases, RefreshDrainGateDuringCachedSpan)
{
    // Low-MLP traffic arms long cached spans; a refresh-dominated
    // tREFI forces the drain gate to close in the middle of them. A
    // cached Activate bound that ignored the gate would either issue
    // into the drain (audit violation / panic) or stall late (stat
    // diff).
    for (auto m : kSchedulerClasses) {
        ExperimentConfig cfg;
        cfg.workload = "pchase";
        cfg.mechanism = m;
        cfg.instructions = kInstr;
        cfg.timingVariant = TimingVariant::RefreshHeavy;
        const RunResult step = runWith(cfg, EngineKind::Step);
        const RunResult skip = runWith(cfg, EngineKind::Skip);
        EXPECT_EQ(resultJson(step), resultJson(skip))
            << ctrl::mechanismName(m);
    }
}

TEST(HorizonMemoEdgeCases, FuzzDerivedTimingVariants)
{
    // The timing perturbations the differential fuzzer mines (prime
    // tREFI against the span lattice, zero inter-activate windows,
    // refresh off) — each family must stay byte-identical under all of
    // them with the full cache stack on.
    for (std::size_t v = 0; v < kNumTimingVariants; ++v) {
        for (auto m : kSchedulerClasses) {
            ExperimentConfig cfg;
            cfg.workload = "mcf";
            cfg.mechanism = m;
            cfg.instructions = kInstr / 2;
            cfg.timingVariant = TimingVariant(v);
            const RunResult step = runWith(cfg, EngineKind::Step);
            const RunResult skip = runWith(cfg, EngineKind::Skip);
            EXPECT_EQ(resultJson(step), resultJson(skip))
                << ctrl::mechanismName(m) << " variant="
                << timingVariantName(TimingVariant(v));
        }
    }
}

TEST(HorizonMemoEdgeCases, McfLikeBlockingCoreSkipsMajorityOfCycles)
{
    // The perf claim behind this machinery, asserted as a regression
    // gate: on a low-MLP (blocking) core running the mcf profile, the
    // skip engine must skip at least half of all memory cycles for the
    // main read-priority families. Measured ~60% for each; 50% leaves
    // margin without tolerating a horizon regression.
    for (auto m : {ctrl::Mechanism::Burst, ctrl::Mechanism::Intel,
                   ctrl::Mechanism::RowHit}) {
        ExperimentConfig cfg;
        cfg.workload = "mcf";
        cfg.mechanism = m;
        cfg.instructions = kInstr;
        cfg.robSize = 1;
        cfg.issueWidth = 1;
        cfg.engine = EngineKind::Skip;
        cfg.obs.engineIntrospect = true;
        const RunResult r = runExperiment(cfg);
        ASSERT_NE(r.obs, nullptr);
        const auto *in = r.obs->introspect();
        ASSERT_NE(in, nullptr);
        EXPECT_TRUE(in->identityHolds(r.memCycles))
            << ctrl::mechanismName(m);
        EXPECT_GE(in->skippedCycles() * 2, r.memCycles)
            << ctrl::mechanismName(m) << ": skipped "
            << in->skippedCycles() << " of " << r.memCycles;
    }
}

TEST(SweepRunnerDeterminism, JobsDoNotChangeResults)
{
    // The same sweep on one worker and on eight must aggregate to
    // byte-identical results in the same order — completion-order
    // independence is the SweepRunner's contract.
    const std::vector<ctrl::Mechanism> mechs(
        std::begin(ctrl::kAllMechanisms), std::end(ctrl::kAllMechanisms));
    const auto serial = runMechanismSweep("gzip", mechs, kInstr, 1);
    const auto parallel = runMechanismSweep("gzip", mechs, kInstr, 8);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].mechanism, parallel[i].mechanism);
        EXPECT_EQ(resultJson(serial[i]), resultJson(parallel[i]))
            << ctrl::mechanismName(mechs[i]);
    }
}

TEST(SweepRunnerDeterminism, MapPreservesIndexOrder)
{
    SweepRunner pool(4);
    const auto out = pool.map<int>(64, [](std::size_t i) {
        return int(i) * 3; // trivially index-dependent
    });
    ASSERT_EQ(out.size(), 64u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], int(i) * 3);
}
