/**
 * @file
 * Chrome trace exporter tests: the emitted document must parse as JSON
 * and carry the track metadata, command events and counter samples the
 * format promises, with microsecond timestamps from the bus clock.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/clock.hh"
#include "common/json.hh"
#include "dram/memory_system.hh"
#include "obs/chrome_trace.hh"
#include "obs/metrics.hh"
#include "obs/observability.hh"
#include "sim/experiment.hh"

using namespace bsim;
using namespace bsim::obs;

namespace
{

dram::DramConfig
tinyConfig()
{
    dram::DramConfig cfg;
    cfg.channels = 1;
    cfg.ranksPerChannel = 1;
    cfg.banksPerRank = 2;
    cfg.rowsPerBank = 16;
    cfg.blocksPerRow = 32;
    cfg.timing.tREFI = 0;
    return cfg;
}

/** Count events in @p v (a parsed trace) with phase @p ph. */
std::size_t
countPhase(const JsonValue &v, const std::string &ph)
{
    std::size_t n = 0;
    for (const auto &e : v.find("traceEvents")->array)
        n += e.find("ph")->string == ph;
    return n;
}

} // namespace

TEST(ChromeTrace, UnitExportRoundTripsThroughParser)
{
    const dram::DramConfig cfg = tinyConfig();
    dram::MemorySystem mem(cfg);
    dram::CommandLog log;
    mem.attachLog(&log);

    const dram::Coords c{0, 0, 0, 3, 0};
    mem.issue({dram::CmdType::Activate, c, 7}, 0);
    const Tick rd_at = mem.timing().tRCD;
    mem.issue({dram::CmdType::Read, c, 7}, rd_at);

    std::ostringstream os;
    writeChromeTrace(os, log, cfg, nullptr);

    const auto v = parseJson(os.str());
    ASSERT_TRUE(v.has_value()) << os.str().substr(0, 200);
    EXPECT_EQ(v->find("displayTimeUnit")->string, "ms");
    EXPECT_DOUBLE_EQ(
        v->find("otherData")->find("commands_recorded")->number, 2.0);

    const JsonValue *events = v->find("traceEvents");
    ASSERT_NE(events, nullptr);
    // 1 process + 4 thread names; 2 scheduler instants; the activate
    // instant; the read's bank span + data-bus span.
    EXPECT_EQ(countPhase(*v, "M"), 5u);
    EXPECT_EQ(countPhase(*v, "i"), 3u);
    EXPECT_EQ(countPhase(*v, "X"), 2u);

    // The read's bank-lane event spans issue to end of data, in us of
    // the 400 MHz bus clock.
    const ClockDomain clk{400.0};
    bool found_read = false;
    for (const auto &e : events->array) {
        if (e.find("ph")->string != "X" || e.find("name")->string != "RD")
            continue;
        found_read = true;
        EXPECT_DOUBLE_EQ(e.find("ts")->number, clk.usOf(rd_at));
        // records() returns a fresh vector; copy the element so it
        // outlives the temporary.
        const auto rec = log.records()[1];
        EXPECT_DOUBLE_EQ(e.find("dur")->number,
                         clk.usOf(rec.dataEnd - rec.at));
        EXPECT_DOUBLE_EQ(e.find("args")->find("row")->number, 3.0);
    }
    EXPECT_TRUE(found_read);
}

TEST(ChromeTrace, FlowEventsChainAnAccessAcrossItsCommands)
{
    const dram::DramConfig cfg = tinyConfig();
    dram::MemorySystem mem(cfg);
    dram::CommandLog log;
    mem.attachLog(&log);

    // Access 7 needs an activate before its read: two commands, so the
    // exporter should tie them with a flow arrow ("s" then "f").
    const dram::Coords c{0, 0, 0, 3, 0};
    mem.issue({dram::CmdType::Activate, c, 7}, 0);
    const Tick rd_at = mem.timing().tRCD;
    mem.issue({dram::CmdType::Read, c, 7}, rd_at);
    // Access 8 row-hits the open row: one command, no arrow to draw.
    mem.issue({dram::CmdType::Read, {0, 0, 0, 3, 1}, 8}, rd_at + 16);

    std::ostringstream os;
    writeChromeTrace(os, log, cfg, nullptr);
    const auto v = parseJson(os.str());
    ASSERT_TRUE(v.has_value());

    EXPECT_EQ(countPhase(*v, "s"), 1u);
    EXPECT_EQ(countPhase(*v, "t"), 0u);
    EXPECT_EQ(countPhase(*v, "f"), 1u);
    for (const auto &e : v->find("traceEvents")->array) {
        const std::string &ph = e.find("ph")->string;
        if (ph != "s" && ph != "f")
            continue;
        EXPECT_EQ(e.find("name")->string, "access");
        EXPECT_DOUBLE_EQ(e.find("id")->number, 7.0);
        if (ph == "f") {
            EXPECT_EQ(e.find("bp")->string, "e");
        }
    }
}

TEST(ChromeTrace, SamplerRowsBecomeCounterTracks)
{
    const dram::DramConfig cfg = tinyConfig();
    dram::CommandLog log;

    MetricsSampler ms(100, {"b0", "b1"});
    MetricsSnapshot s;
    s.now = 99;
    s.readsOutstanding = 4;
    s.writesOutstanding = 2;
    ms.sample(s);

    std::ostringstream os;
    writeChromeTrace(os, log, cfg, &ms);
    const auto v = parseJson(os.str());
    ASSERT_TRUE(v.has_value());

    // Two counter events per row, on the controller process (pid ==
    // channel count).
    EXPECT_EQ(countPhase(*v, "C"), 2u);
    for (const auto &e : v->find("traceEvents")->array) {
        if (e.find("ph")->string != "C")
            continue;
        EXPECT_DOUBLE_EQ(e.find("pid")->number, double(cfg.channels));
        if (e.find("name")->string == "queue occupancy") {
            EXPECT_DOUBLE_EQ(e.find("args")->find("reads")->number, 4.0);
        }
    }
}

TEST(ChromeTrace, FullRunExportParsesAndCoversRun)
{
    sim::ExperimentConfig cfg;
    cfg.workload = "swim";
    cfg.mechanism = ctrl::Mechanism::BurstTH;
    cfg.instructions = 10'000;
    cfg.obs.commandTrace = true;
    cfg.obs.metricsInterval = 1024;

    const sim::RunResult r = sim::runExperiment(cfg);
    ASSERT_NE(r.obs, nullptr);
    ASSERT_NE(r.obs->commandLog(), nullptr);
    ASSERT_GT(r.obs->commandLog()->totalRecorded(), 0u);

    std::ostringstream os;
    r.obs->writeChromeTrace(os);
    const auto v = parseJson(os.str());
    ASSERT_TRUE(v.has_value());

    const JsonValue *events = v->find("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_GT(events->size(), r.obs->commandLog()->size());
    EXPECT_GT(countPhase(*v, "C"), 0u); // metrics counters present

    // Every event has the mandatory fields; timestamps are sane. The
    // final write's data burst may extend a few cycles past the last
    // controller tick (writes retire at column issue), hence the slack.
    const ClockDomain clk{400.0};
    const double run_us = clk.usOf(r.memCycles + 64);
    for (const auto &e : events->array) {
        ASSERT_NE(e.find("ph"), nullptr);
        ASSERT_NE(e.find("pid"), nullptr);
        if (e.find("ph")->string == "M")
            continue;
        ASSERT_NE(e.find("ts"), nullptr);
        EXPECT_GE(e.find("ts")->number, 0.0);
        EXPECT_LE(e.find("ts")->number, run_us);
    }
}

TEST(ChromeTrace, TraceCapacityBoundsRetention)
{
    sim::ExperimentConfig cfg;
    cfg.workload = "swim";
    cfg.mechanism = ctrl::Mechanism::BkInOrder;
    cfg.instructions = 10'000;
    cfg.obs.commandTrace = true;
    cfg.obs.traceCapacity = 64;

    const sim::RunResult r = sim::runExperiment(cfg);
    ASSERT_NE(r.obs->commandLog(), nullptr);
    EXPECT_EQ(r.obs->commandLog()->size(), 64u);
    EXPECT_GT(r.obs->commandLog()->totalRecorded(), 64u);

    std::ostringstream os;
    r.obs->writeChromeTrace(os);
    const auto v = parseJson(os.str());
    ASSERT_TRUE(v.has_value());
    EXPECT_DOUBLE_EQ(
        v->find("otherData")->find("commands_retained")->number, 64.0);
}
