/**
 * @file
 * Engine comparison: wall-clock time of the tick-accurate step engine
 * versus the event-driven cycle-skipping engine on the same experiment.
 * Both engines produce byte-identical statistics (tests/integration/
 * test_engine_equivalence.cc), so their time ratio is pure simulator
 * speed. Simulator throughput itself is measured by perfbench/; this
 * binary keeps the two step/skip measurements:
 *
 *  - `--perf-smoke [--smoke-out=PATH]`: the CI gate. Fails (exit 1)
 *    when the skip engine's speedup drops below its floors on OoO mcf
 *    (dense traffic, where most cycles carry an event), blocking-core
 *    mcf and `pchase` (one serialized pointer chase, the regime the
 *    horizon machinery targets).
 *  - `--figure-set-out=PATH [--figure-set-blocking]`: the ratio and skip
 *    fraction for all 16 figure-set profiles plus their geomean.
 *
 * The JSON carries the git SHA and CMake build type. Any other argument
 * prints the usage and exits 2.
 */

#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bsim_git_sha.hh"
#include "common/json.hh"
#include "obs/engine_introspect.hh"
#include "obs/observability.hh"
#include "sim/experiment.hh"
#include "trace/spec_profiles.hh"

using namespace bsim;

namespace
{

/** True when the compiler ran without optimization (-O0). */
constexpr bool
unoptimizedBuild()
{
#ifdef __OPTIMIZE__
    return false;
#else
    return true;
#endif
}

/**
 * Best-of-3 wall-clock milliseconds for one experiment config; the run's
 * simulated memory cycles go to @p memCycles.
 */
double
wallMs(const sim::ExperimentConfig &cfg, std::uint64_t &memCycles)
{
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        const auto r = sim::runExperiment(cfg);
        const auto t1 = std::chrono::steady_clock::now();
        memCycles = r.memCycles;
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (ms < best)
            best = ms;
    }
    return best;
}

struct RatioRow
{
    std::string workload;
    double stepMs = 0;
    double skipMs = 0;
    double ratio = 0;     //!< step / skip wall time: skip-engine speedup
    double skipFrac = 0;  //!< skipped / mem_cycles (the physical ceiling)
};

RatioRow
measureRatio(const std::string &workload, std::uint64_t instructions,
             bool blockingCore)
{
    sim::ExperimentConfig cfg;
    cfg.workload = workload;
    cfg.mechanism = ctrl::Mechanism::BurstTH;
    cfg.instructions = instructions;
    if (blockingCore) {
        cfg.robSize = 1;
        cfg.issueWidth = 1;
    }

    RatioRow row;
    row.workload = workload;
    std::uint64_t memCycles = 0;
    cfg.engine = sim::EngineKind::Step;
    row.stepMs = wallMs(cfg, memCycles);
    cfg.engine = sim::EngineKind::Skip;
    row.skipMs = wallMs(cfg, memCycles);
    row.ratio = row.stepMs / row.skipMs;

    cfg.obs.engineIntrospect = true;
    const auto r = sim::runExperiment(cfg);
    const auto *in = r.obs->introspect();
    if (in && memCycles > 0)
        row.skipFrac = double(in->skippedCycles()) / double(memCycles);
    return row;
}

/**
 * --figure-set-out=PATH mode: wall-clock step-vs-skip ratio for all 16
 * figure-set profiles (Burst_TH scheduler) plus the geomean, written as
 * JSON with the git SHA / build type context. This is the "engine
 * speedup on the paper's own figure set" number docs/performance.md
 * quotes, including the per-profile skip fraction that bounds it.
 */
int
writeFigureSet(const std::string &path, bool blockingCore)
{
    if (unoptimizedBuild())
        std::cerr << "warning: built without optimization (build type '"
                  << BSIM_BUILD_TYPE << "'); these timings are not "
                  << "comparable to a Release build's\n";
    std::ofstream os(path);
    if (!os) {
        std::cerr << "cannot open '" << path << "' for writing\n";
        return 1;
    }

    const std::uint64_t instructions = sim::defaultInstructions();
    JsonWriter w(os);
    w.beginObject();
    w.key("git_sha").value(BSIM_GIT_SHA);
    w.key("build_type").value(BSIM_BUILD_TYPE);
    if (unoptimizedBuild())
        w.key("unoptimized_build").value(true);
    w.key("instructions").value(instructions);
    w.key("core").value(blockingCore ? "blocking" : "ooo");
    w.key("mechanism").value("Burst_TH");
    w.key("profiles").beginArray();
    double logSum = 0;
    std::size_t n = 0;
    for (const std::string &name : trace::specProfileNames()) {
        const RatioRow row = measureRatio(name, instructions, blockingCore);
        std::cerr << "  " << name << ": step " << row.stepMs << " ms, skip "
                  << row.skipMs << " ms, ratio " << row.ratio
                  << " (skip fraction " << row.skipFrac << ")\n";
        w.beginObject();
        w.key("workload").value(row.workload);
        w.key("step_ms").value(row.stepMs);
        w.key("skip_ms").value(row.skipMs);
        w.key("ratio").value(row.ratio);
        w.key("skip_fraction").value(row.skipFrac);
        w.endObject();
        logSum += std::log(row.ratio);
        n += 1;
    }
    w.endArray();
    const double geomean = std::exp(logSum / double(n));
    std::cerr << "  geomean: " << geomean << "\n";
    w.key("geomean").value(geomean);
    w.endObject();
    os << '\n';
    return os ? 0 : 1;
}

/**
 * --perf-smoke mode (CI): fail if the skip engine's wall-clock speedup
 * drops below conservative floors. The floors come from measured
 * Release numbers with margin, not from wishes: on the bandwidth-bound
 * OoO mcf profile the skip ratio is *physically* capped by
 * mem_cycles / stepped_cycles ~= 1.26 (most cycles carry an event), so
 * the floor there only guards against the skip engine regressing to
 * slower-than-step. The low-MLP regimes the horizon machinery targets
 * (blocking-core mcf, pchase) get real multipliers.
 */
int
perfSmoke(const std::string &outPath)
{
    if (unoptimizedBuild()) {
        std::cerr << "perf-smoke requires an optimized build; refusing to "
                     "enforce wall-clock floors on -O0 numbers\n";
        return 1;
    }

    struct Check
    {
        const char *label;
        const char *workload;
        bool blockingCore;
        double floor;
    };
    // Measured (Release, this machine): ooo mcf ~1.08x, blocking mcf
    // ~2.4x, pchase ~20x+. Floors leave ~2x margin for slow CI hosts.
    const Check checks[] = {
        {"mcf_ooo", "mcf", false, 0.85},
        {"mcf_blocking", "mcf", true, 1.60},
        {"pchase", "pchase", false, 8.0},
    };

    const std::uint64_t instructions = sim::defaultInstructions();
    bool ok = true;
    std::vector<RatioRow> rows;
    std::vector<const Check *> meta;
    for (const Check &c : checks) {
        RatioRow row =
            measureRatio(c.workload, instructions, c.blockingCore);
        const bool pass = row.ratio >= c.floor;
        std::cerr << (pass ? "PASS" : "FAIL") << " " << c.label
                  << ": step/skip ratio " << row.ratio << " (floor "
                  << c.floor << ", skip fraction " << row.skipFrac << ")\n";
        ok = ok && pass;
        rows.push_back(row);
        meta.push_back(&c);
    }

    if (!outPath.empty()) {
        std::ofstream os(outPath);
        if (!os) {
            std::cerr << "cannot open '" << outPath << "' for writing\n";
            return 1;
        }
        JsonWriter w(os);
        w.beginObject();
        w.key("git_sha").value(BSIM_GIT_SHA);
        w.key("build_type").value(BSIM_BUILD_TYPE);
        w.key("instructions").value(instructions);
        w.key("checks").beginArray();
        for (std::size_t i = 0; i < rows.size(); ++i) {
            w.beginObject();
            w.key("label").value(meta[i]->label);
            w.key("workload").value(rows[i].workload);
            w.key("core").value(meta[i]->blockingCore ? "blocking" : "ooo");
            w.key("step_ms").value(rows[i].stepMs);
            w.key("skip_ms").value(rows[i].skipMs);
            w.key("ratio").value(rows[i].ratio);
            w.key("skip_fraction").value(rows[i].skipFrac);
            w.key("floor").value(meta[i]->floor);
            w.key("pass").value(rows[i].ratio >= meta[i]->floor);
            w.endObject();
        }
        w.endArray();
        w.key("pass").value(ok);
        w.endObject();
        os << '\n';
    }
    return ok ? 0 : 1;
}

constexpr const char *kUsage =
    "usage: bench_engine_compare --perf-smoke [--smoke-out=PATH]\n"
    "       bench_engine_compare --figure-set-out=PATH "
    "[--figure-set-blocking]\n";

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    bool figureBlocking = false;
    std::string smokeOut;
    std::string figureOut;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto valueOf = [&arg](const char *prefix) {
            return arg.substr(std::string(prefix).size());
        };
        if (arg.rfind("--figure-set-out=", 0) == 0)
            figureOut = valueOf("--figure-set-out=");
        else if (arg == "--figure-set-blocking")
            figureBlocking = true;
        else if (arg == "--perf-smoke")
            smoke = true;
        else if (arg.rfind("--smoke-out=", 0) == 0)
            smokeOut = valueOf("--smoke-out=");
        else {
            std::cerr << "unknown argument '" << arg << "'\n" << kUsage;
            return 2;
        }
    }
    // Exactly one mode, and no option of the other one.
    const bool figureSet = !figureOut.empty();
    if (smoke == figureSet || (smoke && figureBlocking) ||
        (figureSet && !smokeOut.empty())) {
        std::cerr << kUsage;
        return 2;
    }
    return smoke ? perfSmoke(smokeOut)
                 : writeFigureSet(figureOut, figureBlocking);
}
