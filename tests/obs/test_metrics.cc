/**
 * @file
 * Metrics sampler tests: epoch boundaries, delta arithmetic, the
 * exactly-ceil(cycles/interval)-rows contract, and the CSV/JSON
 * exports.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/json.hh"
#include "obs/metrics.hh"
#include "obs/observability.hh"
#include "sim/experiment.hh"

#include "sim_error_util.hh"

using namespace bsim;
using namespace bsim::obs;

namespace
{

MetricsSnapshot
snapshotAt(Tick now)
{
    MetricsSnapshot s;
    s.now = now;
    s.channels = 2;
    return s;
}

} // namespace

TEST(MetricsSampler, EpochEndFiresEveryInterval)
{
    MetricsSampler ms(100, {});
    EXPECT_FALSE(ms.epochEnd(0));
    EXPECT_FALSE(ms.epochEnd(98));
    EXPECT_TRUE(ms.epochEnd(99));
    EXPECT_FALSE(ms.epochEnd(100));
    EXPECT_TRUE(ms.epochEnd(199));
}

TEST(MetricsSampler, DiffsCumulativeCounters)
{
    MetricsSampler ms(100, {"b0"});

    MetricsSnapshot s1 = snapshotAt(99);
    s1.dataBusyCycles = 80; // of 2 lanes x 100 cycles
    s1.cmdBusyCycles = 40;
    s1.rowHits = 6;
    s1.rowConflicts = 2;
    s1.readsCompleted = 7;
    s1.writesCompleted = 3;
    s1.burstsFormed = 2;
    s1.burstJoins = 4;
    s1.bankReadQ = {5};
    s1.bankWriteQ = {1};
    ms.sample(s1);

    MetricsSnapshot s2 = snapshotAt(199);
    s2.dataBusyCycles = 120; // +40
    s2.cmdBusyCycles = 60;
    s2.rowHits = 6; // no new hits
    s2.rowConflicts = 6;
    s2.readsCompleted = 17;
    s2.writesCompleted = 3;
    s2.burstsFormed = 2;
    s2.burstJoins = 4;
    ms.sample(s2);

    ASSERT_EQ(ms.rows().size(), 2u);
    const MetricsRow &r0 = ms.rows()[0];
    EXPECT_EQ(r0.tickStart, 0u);
    EXPECT_EQ(r0.tickEnd, 100u);
    EXPECT_DOUBLE_EQ(r0.dataBusUtil, 0.4);
    EXPECT_DOUBLE_EQ(r0.addrBusUtil, 0.2);
    EXPECT_DOUBLE_EQ(r0.rowHitRate, 0.75);
    EXPECT_EQ(r0.epochReads, 7u);
    EXPECT_EQ(r0.epochWrites, 3u);
    EXPECT_DOUBLE_EQ(r0.avgBurstLen, 3.0); // (2 formed + 4 joins) / 2
    EXPECT_EQ(r0.bankReadQ, (std::vector<std::uint32_t>{5}));

    const MetricsRow &r1 = ms.rows()[1];
    EXPECT_DOUBLE_EQ(r1.dataBusUtil, 0.2);
    EXPECT_DOUBLE_EQ(r1.rowHitRate, 0.0);
    EXPECT_EQ(r1.epochReads, 10u);
    EXPECT_DOUBLE_EQ(r1.avgBurstLen, 0.0); // no bursts formed this epoch
}

TEST(MetricsSampler, PartialFinalEpochAndIdempotentFlush)
{
    MetricsSampler ms(100, {});
    ms.sample(snapshotAt(99));
    ms.sample(snapshotAt(199));
    ms.sample(snapshotAt(249)); // run ended at tick 250: partial epoch
    ASSERT_EQ(ms.rows().size(), 3u);
    EXPECT_EQ(ms.rows()[2].tickStart, 200u);
    EXPECT_EQ(ms.rows()[2].tickEnd, 250u);

    // Flushing the same boundary again must not add a row.
    ms.sample(snapshotAt(249));
    EXPECT_EQ(ms.rows().size(), 3u);
}

TEST(MetricsSampler, PartialEpochScalesUtilizationByElapsed)
{
    MetricsSampler ms(100, {});
    MetricsSnapshot s = snapshotAt(49); // 50-cycle partial epoch
    s.channels = 1;
    s.dataBusyCycles = 25;
    ms.sample(s);
    ASSERT_EQ(ms.rows().size(), 1u);
    EXPECT_DOUBLE_EQ(ms.rows()[0].dataBusUtil, 0.5);
}

TEST(MetricsSamplerDeath, ZeroIntervalIsFatal)
{
    EXPECT_SIM_ERROR(MetricsSampler(0, {}), bsim::ErrorCategory::Config, "interval");
}

TEST(MetricsSampler, CsvHasHeaderAndOneLinePerRow)
{
    MetricsSampler ms(100, {"ch0_r0_b0", "ch0_r0_b1"});
    MetricsSnapshot s = snapshotAt(99);
    s.bankReadQ = {3, 1};
    s.bankWriteQ = {0, 2};
    ms.sample(s);

    std::ostringstream os;
    ms.writeCsv(os);
    const std::string out = os.str();

    std::size_t lines = 0;
    for (char c : out)
        lines += c == '\n';
    EXPECT_EQ(lines, 2u); // header + 1 row

    EXPECT_NE(out.find("rq_ch0_r0_b1"), std::string::npos);
    EXPECT_NE(out.find("wq_ch0_r0_b0"), std::string::npos);
    // The row carries the per-bank occupancy in label order.
    EXPECT_NE(out.find(",3,1,0,2\n"), std::string::npos);
}

TEST(MetricsSampler, JsonExportParses)
{
    MetricsSampler ms(100, {"b0"});
    MetricsSnapshot s = snapshotAt(99);
    s.readsCompleted = 5;
    s.bankReadQ = {2};
    s.bankWriteQ = {1};
    ms.sample(s);

    std::ostringstream os;
    ms.writeJson(os);
    const auto v = parseJson(os.str());
    ASSERT_TRUE(v.has_value());
    EXPECT_DOUBLE_EQ(v->find("interval")->number, 100.0);
    const JsonValue *rows = v->find("rows");
    ASSERT_NE(rows, nullptr);
    ASSERT_EQ(rows->size(), 1u);
    EXPECT_DOUBLE_EQ(rows->array[0].find("epoch_reads")->number, 5.0);
    EXPECT_DOUBLE_EQ(rows->array[0].find("bank_read_q")->array[0].number,
                     2.0);
}

TEST(MetricsRun, EmitsExactlyCeilCyclesOverIntervalRows)
{
    for (const Tick interval : {512u, 1000u, 4096u}) {
        sim::ExperimentConfig cfg;
        cfg.workload = "swim";
        cfg.mechanism = ctrl::Mechanism::BurstTH;
        cfg.instructions = 20'000;
        cfg.obs.metricsInterval = interval;

        const sim::RunResult r = sim::runExperiment(cfg);
        ASSERT_NE(r.obs, nullptr);
        ASSERT_NE(r.obs->sampler(), nullptr);
        const MetricsSampler &ms = *r.obs->sampler();

        const std::uint64_t expected =
            (r.memCycles + interval - 1) / interval;
        EXPECT_EQ(ms.rows().size(), expected)
            << "interval " << interval << ", " << r.memCycles
            << " mem cycles";
        EXPECT_EQ(ms.rows().back().tickEnd, r.memCycles);

        // Per-bank columns cover the whole machine.
        const auto &dram = sim::SystemConfig::baseline().dram;
        EXPECT_EQ(ms.bankLabels().size(),
                  std::size_t(dram.channels) * dram.ranksPerChannel *
                      dram.banksPerRank);
        for (const auto &row : ms.rows()) {
            EXPECT_EQ(row.bankReadQ.size(), ms.bankLabels().size());
            EXPECT_EQ(row.bankWriteQ.size(), ms.bankLabels().size());
        }
    }
}

TEST(MetricsRun, BurstThresholdGatesRpWpFlags)
{
    sim::ExperimentConfig cfg;
    cfg.workload = "swim";
    cfg.mechanism = ctrl::Mechanism::BurstTH;
    cfg.instructions = 20'000;
    cfg.obs.metricsInterval = 256;

    const sim::RunResult r = sim::runExperiment(cfg);
    ASSERT_NE(r.obs->sampler(), nullptr);
    for (const auto &row : r.obs->sampler()->rows()) {
        // Burst_TH: below the threshold preemption is allowed, above it
        // piggybacking — never both at once.
        EXPECT_FALSE(row.rpActive && row.wpActive);
        if (row.writesOutstanding < 52) {
            EXPECT_TRUE(row.rpActive);
        }
        if (row.writesOutstanding > 52) {
            EXPECT_TRUE(row.wpActive);
        }
    }
}

TEST(MetricsSampler, IdleCoreRowHitRateIsCsvZeroAndJsonNull)
{
    // Satellite regression: a core with no classified access in an
    // epoch has no row hit rate. The sampler keeps a NaN sentinel and
    // the writers must map it to 0 (CSV) / null (JSON) — a literal
    // `nan` cell broke downstream CSV consumers once.
    MetricsSampler ms(100, {});
    MetricsSnapshot s = snapshotAt(99);
    s.readsCompleted = 5;
    s.rowHits = 3;
    s.rowConflicts = 2;
    s.coreReadQ = {1, 0};
    s.coreWriteQ = {0, 0};
    s.coreRowHits = {3, 0};
    s.coreRowAccesses = {5, 0}; // core 1 idle this epoch
    ms.sample(s);

    ASSERT_EQ(ms.rows().size(), 1u);
    ASSERT_EQ(ms.rows()[0].coreRowHitRate.size(), 2u);
    EXPECT_TRUE(std::isnan(ms.rows()[0].coreRowHitRate[1]));
    EXPECT_DOUBLE_EQ(ms.rows()[0].coreRowHitRate[0], 0.6);

    std::ostringstream csv;
    ms.writeCsv(csv);
    EXPECT_NE(csv.str().find("rhr_core1"), std::string::npos);
    EXPECT_EQ(csv.str().find("nan"), std::string::npos) << csv.str();

    std::ostringstream json;
    ms.writeJson(json);
    EXPECT_NE(json.str().find("null"), std::string::npos) << json.str();
    EXPECT_EQ(json.str().find("nan"), std::string::npos) << json.str();
}
