/**
 * @file
 * Skip-engine introspection tests: the telescoping identity
 * (stepped + skipped == mem_cycles, per-reason sums match totals) for
 * every scheduler family under both engines, span-histogram bucketing,
 * JSON schema, and the guarantee that turning introspection on never
 * perturbs the simulation itself.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "common/error.hh"
#include "common/json.hh"
#include "obs/engine_introspect.hh"
#include "obs/observability.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"

using namespace bsim;
using obs::EngineIntrospect;
using obs::WakeReason;
using obs::WakeSource;

namespace
{

constexpr ctrl::Mechanism kFamilies[] = {
    ctrl::Mechanism::BkInOrder,       // per-bank FIFOs
    ctrl::Mechanism::RowHit,          // row-hit first
    ctrl::Mechanism::Intel,           // read-first
    ctrl::Mechanism::Burst,           // the paper's mechanism
    ctrl::Mechanism::AdaptiveHistory, // history-based
};

sim::RunResult
runWith(ctrl::Mechanism m, sim::EngineKind engine, bool introspect,
        const char *workload = "pchase")
{
    sim::ExperimentConfig cfg;
    cfg.workload = workload;
    cfg.mechanism = m;
    cfg.instructions = 2000;
    cfg.engine = engine;
    cfg.obs.engineIntrospect = introspect;
    return sim::runExperiment(cfg);
}

} // namespace

TEST(EngineIntrospect, IdentityHoldsForEveryFamilyUnderBothEngines)
{
    for (const ctrl::Mechanism m : kFamilies) {
        for (const sim::EngineKind e :
             {sim::EngineKind::Step, sim::EngineKind::Skip}) {
            const sim::RunResult r = runWith(m, e, true);
            ASSERT_TRUE(r.obs);
            const EngineIntrospect *in = r.obs->introspect();
            ASSERT_NE(in, nullptr) << ctrl::mechanismName(m);
            EXPECT_TRUE(in->identityHolds(r.memCycles))
                << ctrl::mechanismName(m) << "/"
                << sim::engineKindName(e) << ": stepped "
                << in->steppedCycles() << " + skipped "
                << in->skippedCycles() << " vs mem cycles "
                << r.memCycles;
            EXPECT_EQ(in->steppedCycles() + in->skippedCycles(),
                      r.memCycles);
            if (e == sim::EngineKind::Step) {
                // The step engine never skips — by definition.
                EXPECT_EQ(in->skippedCycles(), 0u);
                EXPECT_EQ(in->skipSpans(), 0u);
            } else {
                // pchase is the skip engine's home turf: serialized
                // misses leave long fully-dead spans.
                EXPECT_GT(in->skippedCycles(), 0u)
                    << ctrl::mechanismName(m);
            }
        }
    }
}

TEST(EngineIntrospect, IdentityHoldsOnDenseTrafficToo)
{
    for (const ctrl::Mechanism m : kFamilies) {
        const sim::RunResult r =
            runWith(m, sim::EngineKind::Skip, true, "mcf");
        const EngineIntrospect *in = r.obs->introspect();
        ASSERT_NE(in, nullptr);
        EXPECT_TRUE(in->identityHolds(r.memCycles))
            << ctrl::mechanismName(m);
    }
}

TEST(EngineIntrospect, PerReasonSumsMatchTheirTotals)
{
    const sim::RunResult r =
        runWith(ctrl::Mechanism::Burst, sim::EngineKind::Skip, true);
    const EngineIntrospect *in = r.obs->introspect();
    ASSERT_NE(in, nullptr);

    std::uint64_t wakes = 0, skipped = 0, blocked = 0;
    for (std::size_t i = 0; i < obs::kNumWakeReasons; ++i) {
        wakes += in->wakeCount(WakeReason(i));
        skipped += in->skippedBy(WakeReason(i));
        blocked += in->blockedCount(WakeReason(i));
    }
    EXPECT_EQ(wakes, in->skipSpans());
    EXPECT_EQ(skipped, in->skippedCycles());
    EXPECT_EQ(blocked, in->blockedTotal());

    std::uint64_t spans = 0;
    for (std::size_t b = 0; b < obs::kNumSpanBuckets; ++b)
        spans += in->spanBucket(b);
    EXPECT_EQ(spans, in->skipSpans());
}

TEST(EngineIntrospect, NoSkipIsCreditedToAnArbitrationMove)
{
    // The arbitration-move pins (arb fill, preempt, drain flip,
    // piggyback, write drain) all mean "return now": a horizon they set
    // can block a skip but never end one. A scheduler horizon's wake
    // reason used to be read from the memo before it was recomputed,
    // crediting skips to the previous memo's pin.
    for (const ctrl::Mechanism m :
         {ctrl::Mechanism::RowHit, ctrl::Mechanism::IntelRP,
          ctrl::Mechanism::BurstTH, ctrl::Mechanism::AdaptiveHistory}) {
        sim::ExperimentConfig cfg;
        cfg.workload = "swim";
        cfg.mechanism = m;
        cfg.instructions = 20000;
        cfg.obs.engineIntrospect = true;
        const sim::RunResult r = sim::runExperiment(cfg);
        const EngineIntrospect *in = r.obs->introspect();
        ASSERT_NE(in, nullptr);
        for (const WakeReason w :
             {WakeReason::SchedArbFill, WakeReason::SchedPreempt,
              WakeReason::SchedDrainFlip, WakeReason::SchedPiggyback,
              WakeReason::SchedWriteDrain}) {
            EXPECT_EQ(in->wakeCount(w), 0u)
                << ctrl::mechanismName(m) << " " << obs::wakeReasonName(w);
            EXPECT_EQ(in->skippedBy(w), 0u)
                << ctrl::mechanismName(m) << " " << obs::wakeReasonName(w);
        }
    }
}

TEST(EngineIntrospect, IntrospectionDoesNotPerturbTheSimulation)
{
    for (const ctrl::Mechanism m : kFamilies) {
        const sim::RunResult off =
            runWith(m, sim::EngineKind::Skip, false);
        const sim::RunResult on =
            runWith(m, sim::EngineKind::Skip, true);
        EXPECT_EQ(off.memCycles, on.memCycles)
            << ctrl::mechanismName(m);
        EXPECT_EQ(off.execCpuCycles, on.execCpuCycles)
            << ctrl::mechanismName(m);
    }
}

TEST(EngineIntrospect, ResultJsonGainsTheSectionOnlyWhenEnabled)
{
    const sim::RunResult off =
        runWith(ctrl::Mechanism::Burst, sim::EngineKind::Skip, false);
    const sim::RunResult on =
        runWith(ctrl::Mechanism::Burst, sim::EngineKind::Skip, true);
    std::ostringstream a, b;
    sim::writeResultJson(a, off);
    sim::writeResultJson(b, on);
    EXPECT_EQ(a.str().find("engine_introspect"), std::string::npos);
    EXPECT_NE(b.str().find("engine_introspect"), std::string::npos);
}

TEST(EngineIntrospect, JsonExportHasTheDocumentedSchema)
{
    const sim::RunResult r =
        runWith(ctrl::Mechanism::Burst, sim::EngineKind::Skip, true);
    std::ostringstream os;
    r.obs->writeIntrospectJson(os);
    std::string err;
    const auto doc = parseJson(os.str(), &err);
    ASSERT_TRUE(doc) << err;

    for (const char *k : {"stepped_cycles", "skipped_cycles",
                          "skip_spans", "blocked_decisions"}) {
        const JsonValue *v = doc->find(k);
        ASSERT_NE(v, nullptr) << k;
        EXPECT_TRUE(v->isNumber()) << k;
    }
    // The arrays are sparse: only reasons/buckets that fired appear.
    const JsonValue *reasons = doc->find("wake_reasons");
    ASSERT_NE(reasons, nullptr);
    ASSERT_TRUE(reasons->isArray());
    EXPECT_GT(reasons->size(), 0u);
    EXPECT_LE(reasons->size(), obs::kNumWakeReasons);
    double wakes = 0, skipped = 0;
    for (const JsonValue &e : reasons->array) {
        ASSERT_TRUE(e.find("reason") && e.find("reason")->isString());
        ASSERT_TRUE(e.find("wakes") && e.find("skipped_cycles") &&
                    e.find("blocked"));
        EXPECT_TRUE(e.find("wakes")->number > 0 ||
                    e.find("blocked")->number > 0);
        wakes += e.find("wakes")->number;
        skipped += e.find("skipped_cycles")->number;
    }
    const EngineIntrospect *in = r.obs->introspect();
    EXPECT_EQ(wakes, double(in->skipSpans()));
    EXPECT_EQ(skipped, double(in->skippedCycles()));
    const JsonValue *hist = doc->find("span_histogram");
    ASSERT_NE(hist, nullptr);
    EXPECT_GT(hist->size(), 0u);
    EXPECT_LE(hist->size(), obs::kNumSpanBuckets);
    double spans = 0;
    for (const JsonValue &e : hist->array) {
        ASSERT_TRUE(e.find("span") && e.find("count"));
        spans += e.find("count")->number;
    }
    EXPECT_EQ(spans, double(in->skipSpans()));
    for (const char *k : {"sched_memo", "front_horizon"}) {
        const JsonValue *v = doc->find(k);
        ASSERT_NE(v, nullptr) << k;
        EXPECT_TRUE(v->isObject()) << k;
        EXPECT_TRUE(v->find("hits") && v->find("misses")) << k;
    }
}

TEST(EngineIntrospect, WriteIntrospectJsonThrowsWhenPillarOff)
{
    const sim::RunResult r =
        runWith(ctrl::Mechanism::Burst, sim::EngineKind::Skip, false);
    std::ostringstream os;
    if (r.obs) {
        EXPECT_THROW(r.obs->writeIntrospectJson(os), SimError);
    }
}

TEST(EngineIntrospect, SpanHistogramBucketsByLog2)
{
    EngineIntrospect in(2);
    in.noteStepped(5);
    in.noteSkip({WakeReason::Response, 0}, 1);            // bucket 0: 1
    in.noteSkip({WakeReason::Response, 1}, 3);            // bucket 1: 2-3
    in.noteSkip({WakeReason::SchedBound, 0}, 4);          // bucket 2: 4-7
    in.noteSkip({WakeReason::Refresh, -1},
                std::uint64_t(1) << 20);                  // last: >=2^20
    EXPECT_EQ(in.spanBucket(0), 1u);
    EXPECT_EQ(in.spanBucket(1), 1u);
    EXPECT_EQ(in.spanBucket(2), 1u);
    EXPECT_EQ(in.spanBucket(obs::kNumSpanBuckets - 1), 1u);
    EXPECT_EQ(in.skipSpans(), 4u);
    EXPECT_EQ(in.skippedCycles(), 8u + (std::uint64_t(1) << 20));
    EXPECT_EQ(in.wakeCount(WakeReason::Response), 2u);
    EXPECT_EQ(in.skippedBy(WakeReason::SchedBound), 4u);

    in.noteBlocked({WakeReason::SchedBound, 0});
    EXPECT_EQ(in.blockedTotal(), 1u);
    EXPECT_EQ(in.blockedCount(WakeReason::SchedBound), 1u);

    const std::uint64_t mem = 5 + in.skippedCycles();
    EXPECT_TRUE(in.identityHolds(mem));
    EXPECT_FALSE(in.identityHolds(mem + 1));
}
