/**
 * @file
 * perfbench: the repository benchmark for burstsim.
 *
 *   perfbench --workload <figset|sparse|explain|cmp-fairness>
 *             --seed N --seconds S --trace 0|1
 *             [--scale full|tiny] [--record] [--git-sha SHA]
 *
 * --trace 0 runs the workload's points in passes for S seconds and
 * reports the end-to-end metrics (host throughput and point latency).
 * --trace 1 pairs each untraced pass with a traced one (scheduler
 * timing decorator, engine introspection, command recording), checks
 * the two agree digest for digest, runs one pass under the library's
 * self-profiler, then replays the trace, cache and DRAM layers alone
 * and reports the per-layer metrics.
 *
 * Every point's output digest is checked against the goldens of its
 * (scale, seed) in perfbench/goldens when they exist, against its own
 * earlier passes, and — for pillared explain points — against its
 * plain twin. The last line of stdout is one JSON object: correct,
 * attempted, failed, metrics.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ctrl/schedulers/factory.hh"
#include "digest.hh"
#include "hostref.hh"
#include "layers.hh"
#include "obs/engine_introspect.hh"
#include "obs/observability.hh"
#include "obs/selfprof.hh"
#include "points.hh"
#include "sim/experiment.hh"
#include "sim/sweep_runner.hh"
#include "stats.hh"
#include "trace/spec_profiles.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_GOLDENS_DIR
#error "PERFBENCH_GOLDENS_DIR must name perfbench/goldens"
#endif

using namespace perfbench;
namespace b = bsim;

namespace
{

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

/** Set-up repetitions before the first pass; endToEnd adds one after
 *  every pass, and setup_s reports the median of them all. */
constexpr int kSetupReps = 5;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    Scale scale = Scale::Full;
    bool record = false;
    std::string gitSha = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--scale full|tiny] [--record] "
                 "[--git-sha SHA]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--record") {
            a.record = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        try {
            if (flag == "--workload")
                a.workload = v;
            else if (flag == "--seed")
                a.seed = std::stoull(v);
            else if (flag == "--seconds")
                a.seconds = std::stod(v);
            else if (flag == "--trace")
                a.trace = std::stoi(v) != 0;
            else if (flag == "--scale" && (v == "full" || v == "tiny"))
                a.scale = v == "full" ? Scale::Full : Scale::Tiny;
            else if (flag == "--git-sha")
                a.gitSha = v;
            else
                usage("bad flag " + flag + " " + v);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + v);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    return a;
}

double
secondsSince(Clock::time_point t0)
{
    return double(nsSince(t0)) * 1e-9;
}

/** Layer data one traced point collects. */
struct PointTrace
{
    SchedTimes sched;
    std::uint64_t stepped = 0;
    std::uint64_t skipped = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t memReads = 0;
    std::uint64_t memWrites = 0;
    std::uint64_t ctrlAccesses = 0; //!< reads + writes completed
    double dataBusUtil = 0.0;
    DramReplay dram;
    bool replayDram = false; //!< replay this point's command stream
    /** Run under the self-profiler instead of the probes above. */
    bool selfProf = false;
    std::array<double, b::obs::prof::kNumPhases> phaseUs{}; //!< exclusive
    double profUs = 0.0; //!< whole profiled run
};

/** What one point execution produced. */
struct Sample
{
    double ms = 0.0;
    std::uint64_t digest = 0; //!< every output incl. pillars
    std::uint64_t core = 0;   //!< pillar-free outputs
    std::uint64_t exec = 0;   //!< execution time (fidelity line)
};

Sample
runPoint(const Point &p, PointTrace *tr)
{
    Sample s;
    if (p.cmp) {
        const auto t0 = Clock::now();
        const b::sim::CmpResult r = b::sim::runCmpFairness(p.mix);
        s.ms = double(nsSince(t0)) * 1e-6;
        s.digest = s.core = cmpDigest(r);
        s.exec = r.execCpuCycles;
        return s;
    }
    b::sim::ExperimentConfig cfg = p.run;
    // The self-profiler's scopes sit inside the scheduler's calls, so it
    // runs alone, never under the timing decorator.
    cfg.obs.selfProf = tr && tr->selfProf;
    if (tr && !tr->selfProf) {
        SchedTimes *times = &tr->sched;
        cfg.schedulerFactory = [times](b::ctrl::Mechanism m,
                                       const b::ctrl::SchedulerContext &ctx) {
            return std::make_unique<TimedScheduler>(
                ctx, b::ctrl::makeScheduler(m, ctx), *times);
        };
        cfg.schedulerFactoryId = "perfbench:timed";
        cfg.obs.engineIntrospect = true;
        cfg.obs.commandTrace = tr->replayDram;
        cfg.obs.traceCapacity = std::size_t(1) << 24;
    }
    const auto t0 = Clock::now();
    const b::sim::RunResult r = b::sim::runExperiment(cfg);
    s.ms = double(nsSince(t0)) * 1e-6;
    s.core = coreDigest(r);
    s.digest = fullDigest(r);
    s.exec = r.execCpuCycles;
    if (r.selfprof) {
        tr->phaseUs = r.selfprof->selfUsByPhase;
        tr->profUs = r.selfprof->totalUs;
    } else if (tr) {
        const auto *intro = r.obs->introspect();
        tr->stepped = intro->steppedCycles();
        tr->skipped = intro->skippedCycles();
        tr->l2Misses = r.l2Misses;
        tr->memReads = r.memReads;
        tr->memWrites = r.memWrites;
        tr->ctrlAccesses = r.ctrl.reads + r.ctrl.writes;
        tr->dataBusUtil = r.dataBusUtil;
        if (tr->replayDram) {
            const auto *log = r.obs->commandLog();
            const std::vector<b::dram::CommandRecord> cmds = log->records();
            tr->dram = replayDram(cmds);
            // A wrapped ring would replay a stream with a hole in it.
            tr->dram.legal &= log->size() < log->capacity();
        }
    }
    return s;
}

/** One pass over a point list; failed points have no sample. */
struct Pass
{
    std::vector<std::optional<Sample>> samples;
    double wallS = 0.0;
};

/** Reference-kernel repetitions per thread after each pass. */
constexpr int kRefReps = 8;

/** One pass over @p pts as one SweepRunner map on @p jobs threads,
 *  then a host-reference sample. */
Pass
runPass(const std::vector<Point> &pts, unsigned jobs,
        std::vector<PointTrace> *traces, HostRef &ref)
{
    b::sim::SweepRunner runner(jobs);
    const auto t0 = Clock::now();
    auto res = runner.mapGuarded<Sample>(pts.size(), [&](std::size_t i) {
        return runPoint(pts[i], traces ? &(*traces)[i] : nullptr);
    });
    Pass pass;
    pass.wallS = secondsSince(t0);
    ref.sample(jobs, kRefReps);
    for (std::size_t i = 0; i < pts.size(); ++i) {
        if (!res.points[i].run.ok)
            std::cerr << "point " << pts[i].label
                      << " failed: " << res.points[i].run.error << "\n";
        pass.samples.push_back(std::move(res.points[i].value));
    }
    return pass;
}

/** Correctness bookkeeping across all passes of a run. */
class Checker
{
  public:
    Checker(const Goldens &g, const Args &a)
        : goldens_(g), scale_(scaleName(a.scale)), seed_(a.seed),
          covered_(g.covers(scale_, a.seed))
    {
    }

    bool covered() const { return covered_; }

    /** Check every point of one pass. */
    void
    pass(const std::vector<Point> &pts, const Pass &p)
    {
        for (std::size_t i = 0; i < pts.size(); ++i) {
            attempted_ += 1;
            failed_ += point(pts, p, i) ? 0 : 1;
        }
    }

    /** A check outside any point failed (counts as one failed point). */
    void
    fail(const std::string &why)
    {
        std::cerr << "check failed: " << why << "\n";
        attempted_ += 1;
        failed_ += 1;
    }

    /** Compare a digest against the golden "<kind> ... <label>". */
    bool
    golden(const std::string &kind, const std::string &label,
           std::uint64_t digest)
    {
        const std::string key = this->key(kind, label);
        recorded_.set(key, hex(digest));
        if (!covered_)
            return true;
        const std::string *want = goldens_.find(key);
        if (want && *want == hex(digest))
            return true;
        std::cerr << "golden mismatch: " << key << " = " << hex(digest)
                  << ", golden " << (want ? *want : "missing") << "\n";
        return false;
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const Goldens &recorded() const { return recorded_; }

  private:
    std::string
    key(const std::string &kind, const std::string &label) const
    {
        return kind + " " + scale_ + " " + std::to_string(seed_) + " " +
               label;
    }

    bool
    point(const std::vector<Point> &pts, const Pass &p, std::size_t i)
    {
        const auto &s = p.samples[i];
        if (!s)
            return false;
        const std::string &label = pts[i].label;
        // Same point, same outputs: every repeat and the traced run.
        auto [it, fresh] = seen_.emplace(label, s->digest);
        if (!fresh && it->second != s->digest) {
            std::cerr << "digest drift: " << label << " " << hex(s->digest)
                      << " vs first " << hex(it->second) << "\n";
            return false;
        }
        if (pts[i].plainOf >= 0) {
            const auto &plain = p.samples[std::size_t(pts[i].plainOf)];
            if (!plain || plain->core != s->core) {
                std::cerr << "pillars changed outputs: " << label << "\n";
                return false;
            }
        }
        return !fresh || golden("point", label, s->digest);
    }

    const Goldens &goldens_;
    std::string scale_;
    std::uint64_t seed_;
    bool covered_;
    std::map<std::string, std::uint64_t> seen_;
    Goldens recorded_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** The golden digests of workload @p name. */
std::string
goldensPath(const std::string &name)
{
    return std::string(PERFBENCH_GOLDENS_DIR) + "/" + name + ".txt";
}

/** The benchmark's set-up: point list, goldens, recorded inputs. */
struct Setup
{
    Workload workload;
    std::vector<Input> inputs;
    std::vector<std::uint64_t> inputDigests;
    Goldens goldens;
};

Setup
setUp(const Args &a, unsigned nproc)
{
    Setup s;
    s.workload = makeWorkload(a.workload, a.seed, a.scale, nproc);
    s.goldens.load(goldensPath(a.workload));
    s.inputs = distinctInputs(s.workload);
    for (const Input &in : s.inputs)
        s.inputDigests.push_back(inputDigest(in.profile, in.seed, in.length));
    return s;
}

/** Metric sink printing "metric <name> <value> <unit>" lines. */
class Metrics
{
  public:
    /** Record a metric; a non-finite value (an empty denominator)
     *  is recorded as 0 so the JSON stays valid. */
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        entries_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
    }

    void
    print(std::ostream &os) const
    {
        char buf[256];
        for (const auto &e : entries_) {
            std::snprintf(buf, sizeof buf, "metric %-28s %.10g %s\n",
                          e.name.c_str(), e.value, e.unit.c_str());
            os << buf;
        }
    }

    std::string
    json() const
    {
        std::string out = "{";
        char buf[256];
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            std::snprintf(buf, sizeof buf,
                          "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                          i ? ", " : "", entries_[i].name.c_str(),
                          entries_[i].value, entries_[i].unit.c_str());
            out += buf;
        }
        return out + "}";
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/** Paper Section 5.3 averages, Table-4 order after BkInOrder. */
constexpr double kPaperNormExec[] = {0.83, 0.88, 0.85, 0.86,
                                     0.83, 0.81, 0.79};

/** Fig 10 averages of the figset pass, printed beside the paper's:
 *  over the 16 profiles x 8 mechanisms of the run's first seed. */
void
fidelityLine(const Pass &p, Checker &check)
{
    constexpr std::size_t kMechs = std::size(b::ctrl::kAllMechanisms);
    std::vector<double> sum(kMechs, 0.0);
    const std::size_t profiles = b::trace::specProfileNames().size();
    for (std::size_t w = 0; w < profiles; ++w) {
        const auto &base = p.samples[w * kMechs];
        for (std::size_t m = 1; m < kMechs; ++m) {
            const auto &s = p.samples[w * kMechs + m];
            if (!base || !s)
                return; // the failure is already counted
            sum[m] += double(s->exec) / double(base->exec);
        }
    }
    std::string line = "fidelity (Fig 10 mean exec time vs BkInOrder, "
                       "model/paper):";
    std::string canon;
    char buf[96];
    for (std::size_t m = 1; m < kMechs; ++m) {
        const double avg = sum[m] / double(profiles);
        std::snprintf(buf, sizeof buf, " %s %.3f/%.2f",
                      b::ctrl::mechanismName(b::ctrl::kAllMechanisms[m]),
                      avg, kPaperNormExec[m - 1]);
        line += buf;
        std::snprintf(buf, sizeof buf, "%a;", avg);
        canon += buf;
    }
    std::cout << line << "\n"
              << "fidelity note: validated only against the paper's M5 "
                 "simulation results, never against hardware\n";
    if (!check.golden("fidelity", "fig10-mean", fnv1a(canon)))
        check.fail("fidelity line digest");
}

/** A pillar (or all of them) switched on for the overhead table. */
struct Pillar
{
    const char *metric;
    void (*apply)(b::obs::ObsConfig &);
};

const Pillar kPillars[] = {
    {"obs.stall_attribution_x",
     [](b::obs::ObsConfig &o) { o.stallAttribution = true; }},
    {"obs.crit_path_x", [](b::obs::ObsConfig &o) { o.critPath = true; }},
    {"obs.introspect_x",
     [](b::obs::ObsConfig &o) { o.engineIntrospect = true; }},
    {"obs.audit_x",
     [](b::obs::ObsConfig &o) { o.audit = b::obs::AuditMode::Fatal; }},
    {"obs.latency_breakdown_x",
     [](b::obs::ObsConfig &o) { o.latencyBreakdown = true; }},
    {"obs_overhead_x",
     [](b::obs::ObsConfig &o) {
         o.stallAttribution = o.critPath = o.engineIntrospect = true;
         o.audit = b::obs::AuditMode::Fatal;
     }},
};

/**
 * Each pillar alone (and all four explain pillars together) against the
 * plain run, serially and interleaved point by point: summed host time
 * with the pillar over summed host time without.
 */
std::map<std::string, double>
pillarOverheads(const std::vector<Point> &sample, Checker &check)
{
    std::vector<double> plainMs;
    std::map<std::string, double> litMs;
    for (const Point &p : sample) {
        const Sample plain = runPoint(p, nullptr);
        plainMs.push_back(plain.ms);
        for (const Pillar &pl : kPillars) {
            Point lit = p;
            pl.apply(lit.run.obs);
            const Sample s = runPoint(lit, nullptr);
            litMs[pl.metric] += s.ms;
            if (s.core != plain.core)
                check.fail(std::string(pl.metric) + " changed outputs of " +
                           p.label);
        }
    }
    double plainSum = 0.0;
    for (double v : plainMs)
        plainSum += v;
    std::map<std::string, double> out;
    for (const auto &[name, ms] : litMs)
        out[name] = ms / plainSum;
    return out;
}

/** The plain single-core points the per-layer probes may use. */
std::vector<Point>
plainPoints(const Workload &w)
{
    if (w.points.front().cmp)
        return cmpProxies(w);
    std::vector<Point> out;
    for (const Point &p : w.points)
        if (p.plainOf < 0)
            out.push_back(p);
    return out;
}

/** Peak resident set of this process image, MB (VmHWM; unlike
 *  ru_maxrss it does not inherit the peak of the image exec replaced). */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof line, f))
        if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1)
            break;
    std::fclose(f);
    return kb / 1024.0;
}

/** Fewest passes of a run, however long they take. */
constexpr std::size_t kMinPasses = 3;

/** Print the host reference; returns its scale factor. */
double
printHostRef(const HostRef &ref)
{
    std::printf("host reference: kernel %.3f ms (nominal %.1f ms); host "
                "times are scaled by %.4f to nominal host speed\n",
                ref.ms(), kRefNominalMs, ref.factor());
    return ref.factor();
}

/** --trace 0: passes for the measuring window, end-to-end metrics. */
void
endToEnd(const Args &a, unsigned nproc, const Setup &s, Checker &check,
         Metrics &out, std::vector<double> setupS)
{
    const Workload &w = s.workload;
    // One point alone first: it warms the allocator, and the memory
    // peak of set-up plus one simulation does not depend on which
    // points later happen to run side by side.
    runPoint(w.points.front(), nullptr);
    const double rssMb = peakRssMb();

    // Each point's host time is its median over the passes, scaled by
    // the median host-reference time of the same passes.
    std::vector<std::vector<double>> ms(w.points.size());
    std::vector<double> wallS;
    HostRef ref;
    const auto t0 = Clock::now();
    std::size_t passes = 0;
    do {
        const Pass p = runPass(w.points, w.jobs, nullptr, ref);
        check.pass(w.points, p);
        wallS.push_back(p.wallS);
        std::printf("pass %zu: %.3f s\n", passes, p.wallS);
        for (std::size_t i = 0; i < w.points.size(); ++i)
            if (p.samples[i])
                ms[i].push_back(p.samples[i]->ms);
        if (passes == 0 && w.name == "figset")
            fidelityLine(p, check);
        ++passes;
        // Set up again after every pass: set-up takes milliseconds, and
        // timing it across the run, not only at its start, keeps the
        // host's speed of one moment from setting setup_s.
        const auto s0 = Clock::now();
        setUp(a, nproc);
        setupS.push_back(secondsSince(s0));
    } while (passes < kMinPasses || secondsSince(t0) < a.seconds);

    // sim_kips: the whole workload's instructions over a pass's wall
    // time (the median pass), so load imbalance and the slow tail of a
    // pass on jobs threads count as they do for a user's sweep.
    std::vector<double> perPoint;
    double instr = 0.0;
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        instr += double(w.points[i].instructions());
        if (!ms[i].empty())
            perPoint.push_back(median(ms[i]));
    }
    const double passS = median(wallS);
    const double setup = median(setupS);
    std::printf("samples: %zu points x %zu passes, %zu set-ups "
                "(%.6g to %.6g s)\n",
                perPoint.size(), passes, setupS.size(),
                *std::min_element(setupS.begin(), setupS.end()),
                *std::max_element(setupS.begin(), setupS.end()));
    const double f = printHostRef(ref);
    const double p50 = smoothQuantile(perPoint, 0.5);
    const double p90 = smoothQuantile(perPoint, 0.9);
    std::printf("unscaled: sim_kips %.6g point_ms_p50 %.6g point_ms_p90 "
                "%.6g setup_s %.6g\n",
                instr / passS * 1e-3, p50, p90, setup);
    out.add("sim_kips", instr / (passS * f) * 1e-3, "kinstr/s");
    out.add("point_ms_p50", p50 * f, "ms");
    out.add("point_ms_p90", p90 * f, "ms");
    out.add("setup_s", setup * f, "s");
    out.add("peak_rss_mb", rssMb, "MB");
}

/** --trace 1: untraced/traced pass pairs, replays, per-layer metrics. */
void
perLayer(const Args &a, const Setup &s, Checker &check, Metrics &out)
{
    const Workload &w = s.workload;
    const bool cmp = w.points.front().cmp;
    const double pairNs = clockPairNs();
    // CMP runs have no scheduler or pillar seam: the pass pairs run on
    // single-core stand-ins of the first mix instead (see cmpProxies).
    const std::vector<Point> probes = cmp ? cmpProxies(w) : w.points;

    // Untraced and traced passes over the same points, paired.
    std::vector<PointTrace> traces;
    double untracedMs = 0.0, tracedMs = 0.0, firstTracedMs = 0.0;
    HostRef ref;
    const auto t0 = Clock::now();
    bool first = true;
    do {
        const Pass plain = runPass(probes, w.jobs, nullptr, ref);
        check.pass(probes, plain);
        std::vector<PointTrace> tr(probes.size());
        for (PointTrace &t : tr)
            t.replayDram = first;
        const Pass traced = runPass(probes, w.jobs, &tr, ref);
        check.pass(probes, traced);
        for (std::size_t i = 0; i < probes.size(); ++i)
            if (plain.samples[i] && traced.samples[i]) {
                untracedMs += plain.samples[i]->ms;
                tracedMs += traced.samples[i]->ms;
                if (first)
                    firstTracedMs += traced.samples[i]->ms;
            }
        if (first)
            traces = std::move(tr);
        first = false;
    } while (secondsSince(t0) < a.seconds);

    // Aggregate the first traced pass.
    SchedTimes sched;
    std::uint64_t stepped = 0, skipped = 0, l2 = 0, reads = 0, writes = 0;
    std::uint64_t accesses = 0, cmds = 0, queryNs = 0;
    double busUtil = 0.0;
    for (std::size_t i = 0; i < traces.size(); ++i) {
        const PointTrace &t = traces[i];
        sched.tickCalls += t.sched.tickCalls;
        sched.tickNs += t.sched.tickNs;
        sched.horizonCalls += t.sched.horizonCalls;
        sched.horizonNs += t.sched.horizonNs;
        sched.scanCalls += t.sched.scanCalls;
        sched.scanNs += t.sched.scanNs;
        stepped += t.stepped;
        skipped += t.skipped;
        l2 += t.l2Misses;
        reads += t.memReads;
        writes += t.memWrites;
        accesses += t.ctrlAccesses;
        busUtil += t.dataBusUtil;
        cmds += t.dram.commands;
        queryNs += t.dram.queryNs;
        if (!t.dram.legal)
            check.fail("recorded command stream of " + probes[i].label +
                       " does not replay legally");
    }
    auto perCall = [pairNs](std::uint64_t ns, std::uint64_t calls) {
        if (!calls)
            return 0.0;
        return std::max(0.0, double(ns) / double(calls) - pairNs);
    };
    const double spanMs =
        std::max(0.0, double(sched.spanNs()) -
                          double(sched.calls()) * pairNs) *
        1e-6;

    // The same points under the library's self-profiler: the in-run
    // share of host time of the core/cache phase and of the DRAM timing
    // checks, beside the replays' cost per call.
    std::vector<PointTrace> prof(probes.size());
    for (PointTrace &t : prof)
        t.selfProf = true;
    check.pass(probes, runPass(probes, w.jobs, &prof, ref));
    double cpuUs = 0.0, timingUs = 0.0, profUs = 0.0;
    for (const PointTrace &t : prof) {
        cpuUs += t.phaseUs[std::size_t(b::obs::prof::Phase::CpuPhase)];
        timingUs += t.phaseUs[std::size_t(b::obs::prof::Phase::TimingCheck)];
        profUs += t.profUs;
    }

    // Layer replays over the workload's recorded inputs.
    std::uint64_t genInstr = 0, genNs = 0, cacheNs = 0, cacheOps = 0;
    std::uint64_t merges = 0;
    for (const Input &in : s.inputs) {
        const auto g0 = Clock::now();
        genInstr += generate(in.profile, in.seed, in.length, nullptr);
        genNs += nsSince(g0);
        std::vector<MemOp> ops;
        generate(in.profile, in.seed, in.length, &ops);
        const CacheReplay c = replayCaches(in.profile, in.seed, in.length,
                                           ops);
        cacheNs += c.ns;
        cacheOps += c.accesses;
        merges += c.merges;
    }

    // Construction + L2 prewarm: the fixed cost of every point.
    std::vector<double> fixedMs;
    Point tiny = plainPoints(w).front();
    tiny.run.instructions = 1;
    for (int i = 0; i < 5; ++i)
        fixedMs.push_back(runPoint(tiny, nullptr).ms);

    // Pillar overheads: every explain point, four points elsewhere.
    std::vector<Point> sample = plainPoints(w);
    if (w.name != "explain" && sample.size() > 4)
        sample.resize(4);
    const auto pillars = pillarOverheads(sample, check);

    // Absolute host times are stated at nominal host speed, like the
    // end-to-end ones; counts and ratios need no scaling.
    const double f = printHostRef(ref);
    const std::size_t n = std::max<std::size_t>(traces.size(), 1);
    out.add("trace.ns_per_instr", f * double(genNs) / double(genInstr),
            "ns");
    out.add("trace.instructions", double(genInstr), "count");
    out.add("cpu.ns_per_access", f * double(cacheNs) / double(cacheOps),
            "ns");
    out.add("cpu.selfprof_share", cpuUs / profUs, "ratio");
    out.add("cpu.probes_per_mem_read",
            reads ? double(l2) / double(reads) : 0.0, "ratio");
    out.add("cpu.mem_reads", double(reads), "count");
    out.add("cpu.mem_writes", double(writes), "count");
    out.add("cpu.mshr_merges", double(merges), "count");
    out.add("ctrl.sched_tick_calls", double(sched.tickCalls), "count");
    out.add("ctrl.sched_tick_ns",
            f * perCall(sched.tickNs, sched.tickCalls), "ns");
    out.add("ctrl.horizon_calls", double(sched.horizonCalls), "count");
    out.add("ctrl.horizon_ns",
            f * perCall(sched.horizonNs, sched.horizonCalls), "ns");
    out.add("ctrl.sched_share", spanMs / firstTracedMs, "ratio");
    out.add("ctrl.alone_runs_per_mix",
            cmp ? double(w.points.front().mix.workloads.size()) : 0.0,
            "count");
    out.add("dram.query_ns",
            cmds ? f * double(queryNs) / double(4 * cmds) : 0.0, "ns");
    out.add("dram.selfprof_share", timingUs / profUs, "ratio");
    out.add("dram.cmds_per_access",
            accesses ? double(cmds) / double(accesses) : 0.0, "ratio");
    out.add("dram.data_bus_util", busUtil / double(n), "ratio");
    out.add("sim.skip_frac",
            stepped + skipped ? double(skipped) / double(stepped + skipped)
                              : 0.0,
            "ratio");
    out.add("sim.stepped_cycles", double(stepped), "count");
    out.add("sim.point_fixed_ms", f * median(fixedMs), "ms");
    out.add("sim.self_ms", f * (firstTracedMs - spanMs) / double(n), "ms");
    for (const auto &[name, x] : pillars)
        out.add(name, x, "x");
    out.add("obs.bench_trace_overhead_x", tracedMs / untracedMs, "x");

    if (w.name == "explain") {
        std::cout << "pillar overhead (explain points, host time with the "
                     "pillar / plain):\n";
        for (const auto &[name, x] : pillars) {
            char buf[96];
            std::snprintf(buf, sizeof buf, "  %-26s %6.3fx\n", name.c_str(),
                          x);
            std::cout << buf;
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    if (a.record && !kOptimized) {
        std::cerr << "perfbench: refusing to record goldens from an "
                     "unoptimised (" PERFBENCH_BUILD_TYPE ") build\n";
        return 2;
    }

    try {
        // Set up several times; setup_s is the median.
        std::vector<double> setupS;
        std::optional<Setup> s;
        for (int i = 0; i < kSetupReps; ++i) {
            const auto t0 = Clock::now();
            s.emplace(setUp(a, nproc));
            setupS.push_back(secondsSince(t0));
        }

        std::cout << "provenance: git_sha=" << a.gitSha
                  << " build_type=" PERFBENCH_BUILD_TYPE
                  << " optimized=" << (kOptimized ? "yes" : "NO")
                  << " nproc=" << nproc << " workload=" << a.workload
                  << " seed=" << a.seed
                  << " scale=" << scaleName(a.scale)
                  << " points=" << s->workload.points.size()
                  << " jobs=" << s->workload.jobs << "\n";
        if (!kOptimized)
            std::cout << "WARNING: unoptimised build; timings are not "
                         "comparable to any recorded figure\n";

        // Recording judges nothing against the goldens it replaces.
        const Goldens none;
        Checker check(a.record ? none : s->goldens, a);
        std::cout << "goldens: " << (check.covered() ? "covered" : "none")
                  << " for scale " << scaleName(a.scale) << " seed "
                  << a.seed << "\n";
        for (std::size_t i = 0; i < s->inputs.size(); ++i)
            if (!check.golden("input", s->inputs[i].key,
                              s->inputDigests[i]))
                check.fail("input " + s->inputs[i].key + " changed");

        Metrics metrics;
        if (a.trace)
            perLayer(a, *s, check, metrics);
        else
            endToEnd(a, nproc, *s, check, metrics, setupS);

        if (a.record) {
            if (check.failed()) {
                std::cerr << "perfbench: not recording goldens from a run "
                             "with failures\n";
                return 1;
            }
            Goldens merged = s->goldens;
            merged.merge(check.recorded());
            merged.save(goldensPath(a.workload));
        }

        metrics.print(std::cout);
        const double errRate =
            double(check.failed()) / double(std::max<std::uint64_t>(
                                         check.attempted(), 1));
        std::printf("error_rate %.6g (%llu of %llu points)\n", errRate,
                    (unsigned long long)check.failed(),
                    (unsigned long long)check.attempted());
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                    "%llu, \"metrics\": %s}\n",
                    check.failed() ? "false" : "true",
                    (unsigned long long)check.attempted(),
                    (unsigned long long)check.failed(),
                    metrics.json().c_str());
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
