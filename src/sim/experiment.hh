/**
 * @file
 * Experiment harness: run (workload, mechanism) pairs and collect the
 * metrics reported in the paper's figures. Used by all bench binaries
 * and by the integration tests.
 */

#ifndef BURSTSIM_SIM_EXPERIMENT_HH
#define BURSTSIM_SIM_EXPERIMENT_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ctrl/controller.hh"
#include "dram/config.hh"
#include "obs/obs_config.hh"
#include "sim/system.hh"
#include "trace/trace_gen.hh"

namespace bsim::obs::prof
{
struct SelfProfile;
} // namespace bsim::obs::prof

namespace bsim::sim
{

/** SDRAM generation to simulate (Section 6 technology trend). */
enum class DeviceGen : std::uint8_t
{
    DDR2_800, //!< PC2-6400 5-5-5, 400 MHz bus (Table 3 baseline)
    DDR_266,  //!< PC-2100 2-2-2, 133 MHz bus (Section 6 comparison)
};

/** Printable device name. */
const char *deviceGenName(DeviceGen g);

/**
 * Systematic timing perturbation layered on top of the device preset.
 * These are the corner geometries the differential fuzzer (src/fuzz/)
 * sweeps: zeroed inter-activate windows (DDR1-style), refresh intervals
 * prime to any cycle-skipping span lattice, refresh-dominated devices,
 * and refresh disabled outright.
 */
enum class TimingVariant : std::uint8_t
{
    Baseline,     //!< the device preset unchanged
    ZeroWindows,  //!< tFAW = 0, tRRD = 0 (DDR1-style relaxation)
    RefreshPrime, //!< tREFI moved to a nearby prime number
    RefreshHeavy, //!< tREFI cut to ~1/8th (refresh-dominated)
    NoRefresh,    //!< tREFI = 0 (refresh engine off)
};

constexpr std::size_t kNumTimingVariants = 5;

/** Printable variant name (also the repro-file token). */
const char *timingVariantName(TimingVariant v);

/** Parse a variant token; throws SimError(Config) on unknown names. */
TimingVariant timingVariantByName(const std::string &name);

/** One simulation run specification. */
struct ExperimentConfig
{
    /** Profile name (spec_profiles), or "@/path/to/file" to replay a
     *  text trace from disk (no cache prewarm; see trace_file.hh). */
    std::string workload = "swim";
    ctrl::Mechanism mechanism = ctrl::Mechanism::BkInOrder;
    std::uint64_t instructions = 0; //!< 0 = defaultInstructions()
    std::uint64_t seed = 20070212;  //!< HPCA 2007, for determinism
    std::size_t threshold = 52;     //!< Burst_TH threshold
    dram::PagePolicy pagePolicy = dram::PagePolicy::OpenPage;
    dram::AddressMapKind addressMap = dram::AddressMapKind::PageInterleave;
    DeviceGen device = DeviceGen::DDR2_800;
    /** Timing perturbation applied after the device preset. */
    TimingVariant timingVariant = TimingVariant::Baseline;
    /** Simulation engine; both report identical statistics. */
    EngineKind engine = EngineKind::Skip;
    /** Debug switch (`--no-horizon-memo`): run the skip engine with
     *  every horizon memo and bound cache disabled. Statistics AND the
     *  engine_introspect skipped/stepped totals must be unchanged —
     *  the fuzzer's engine_equivalence oracle checks exactly that. */
    bool horizonMemo = true;
    /** Organization overrides (0 = keep the Table 3 baseline value). */
    std::uint32_t channels = 0;
    std::uint32_t ranksPerChannel = 0;
    std::uint32_t banksPerRank = 0;

    // Extension / ablation switches (Section 7 future work + Table 2
    // rank-awareness ablation).
    bool dynamicThreshold = false;
    bool sortBurstsBySize = false;
    bool criticalFirst = false;
    bool rankAware = true;
    bool coalesceWrites = false;
    /** Watermark write-drain mode of the contention-aware scheduler
     *  families (ControllerConfig::watermarkDrain). Ignored by the
     *  paper's Table 4 mechanisms. */
    bool watermarkDrain = false;
    /** Core overrides (0 = Table 3 baseline). A robSize of 1 with
     *  issueWidth 1 approximates a blocking in-order core. */
    std::uint32_t robSize = 0;
    std::uint32_t issueWidth = 0;

    /** Observability pillars (latency breakdown, metrics, trace). */
    obs::ObsConfig obs;

    /** Forward-progress watchdog (SystemConfig::watchdogCycles). */
    Tick watchdogCycles = 50'000;
    /** Wall-clock limit in seconds, 0 = none (SystemConfig::deadlineSec). */
    double deadlineSec = 0.0;
    /** Scheduler factory override (fault injection; ControllerConfig). */
    std::function<std::unique_ptr<ctrl::Scheduler>(
        ctrl::Mechanism, const ctrl::SchedulerContext &)>
        schedulerFactory;
    /**
     * Stable identity of schedulerFactory for sweep journaling: a
     * std::function has no comparable identity of its own, so any user
     * of schedulerFactory who wants resumable sweeps must name the
     * decoration here (e.g. "faulty:freeze@100"). Points whose factory
     * differs then hash to different journal keys instead of silently
     * reusing each other's results.
     */
    std::string schedulerFactoryId;
};

/** Metrics of one run (the quantities behind Figures 7-12). */
struct RunResult
{
    std::string workload;
    ctrl::Mechanism mechanism = ctrl::Mechanism::BkInOrder;

    std::uint64_t instructions = 0;
    std::uint64_t execCpuCycles = 0; //!< the paper's execution time
    std::uint64_t memCycles = 0;

    ctrl::ControllerStats ctrl; //!< latencies, rates, histograms
    std::map<std::string, double> sched; //!< policy extras

    double addrBusUtil = 0.0;
    double dataBusUtil = 0.0;
    double bandwidthGBs = 0.0; //!< effective bandwidth
    double ipc = 0.0;

    std::uint64_t l2Misses = 0;
    std::uint64_t memReads = 0;
    std::uint64_t memWrites = 0;
    /** Every hierarchy count (the three above repeat three of them). */
    cpu::CacheCounters caches;
    /** CPU cycles in which an access was held back because every MSHR
     *  was busy, or because the FSB queue was full (Core::retryCycles). */
    std::uint64_t mshrFullCycles = 0;
    std::uint64_t fsbFullCycles = 0;

    /** DRAM energy estimate over the run (extension; see dram/power.hh). */
    dram::EnergyBreakdown energy;
    double avgPowerW = 0.0;
    dram::CommandCounts dramCommands;

    /** Observability data collected during the run; null when all
     *  pillars were off. Shared so RunResult stays copyable. */
    std::shared_ptr<obs::Observability> obs;

    /** Host-side self-profile of the run (ObsConfig::selfProf); null
     *  when off. Host wall time — never part of the result JSON. */
    std::shared_ptr<obs::prof::SelfProfile> selfprof;
};

/**
 * Default instruction count per run: 150,000, overridable through the
 * BURSTSIM_INSTR environment variable (the benches print which value was
 * used). Scaled down from the paper's 2 billion so the full figure suite
 * reproduces in minutes.
 */
std::uint64_t defaultInstructions();

/** Run one experiment. */
RunResult runExperiment(const ExperimentConfig &cfg);

/**
 * CMP fairness metrics (Section 6 extension): per-core slowdown against
 * the core's alone-run baseline (same mechanism, same address-region
 * shift and seed, the core running by itself), and the three standard
 * CMP aggregates derived from it.
 */
struct FairnessMetrics
{
    std::vector<double> perCoreIpcAlone; //!< alone-run IPC per core
    std::vector<double> perCoreSlowdown; //!< IPC_alone / IPC_shared
    double maxSlowdown = 0.0;            //!< unfairness (max slowdown)
    /** Weighted speedup: sum of IPC_shared / IPC_alone (== N when every
     *  slowdown is exactly 1). */
    double weightedSpeedup = 0.0;
    /** Harmonic mean of speedups: N / sum of slowdowns (balances
     *  fairness and throughput). */
    double harmonicSpeedup = 0.0;
};

/** Compute the aggregates from shared and alone per-core IPCs. */
FairnessMetrics computeFairness(const std::vector<double> &ipcShared,
                                const std::vector<double> &ipcAlone);

/** One CMP run specification (the keyword form of runCmpExperiment). */
struct CmpConfig
{
    std::vector<std::string> workloads; //!< one per core
    ctrl::Mechanism mechanism = ctrl::Mechanism::BkInOrder;
    std::uint64_t instructions = 0; //!< per core; 0 = default
    std::size_t threshold = 52;
    EngineKind engine = EngineKind::Skip;
    /** Watermark write-drain policy axis (contention families). */
    bool watermarkDrain = false;
};

/** Result of a chip-multiprocessor run (paper Section 6). */
struct CmpResult
{
    std::vector<std::string> workloads; //!< one per core
    ctrl::Mechanism mechanism = ctrl::Mechanism::BkInOrder;
    std::uint64_t instructions = 0;  //!< per core
    std::uint64_t execCpuCycles = 0; //!< last core's completion
    std::vector<std::uint64_t> perCoreCpuCycles;
    std::vector<double> perCoreIpc; //!< shared-run IPC per core
    ctrl::ControllerStats ctrl;
    cpu::CacheCounters caches; //!< summed over the cores
    dram::CommandCounts dramCommands;
    double dataBusUtil = 0.0;
    double bandwidthGBs = 0.0;
    /** Filled by runCmpFairness() only. */
    bool haveFairness = false;
    FairnessMetrics fairness;
};

/**
 * Run a CMP experiment: one private cache stack per workload, all cores
 * sharing the memory controller. Each core's copy of a workload is
 * shifted to a disjoint address region and seeded differently.
 */
CmpResult runCmpExperiment(const CmpConfig &cfg);

/** Positional-argument compatibility shim for the config form above. */
CmpResult runCmpExperiment(const std::vector<std::string> &workloads,
                           ctrl::Mechanism mechanism,
                           std::uint64_t instructions = 0,
                           std::size_t threshold = 52,
                           EngineKind engine = EngineKind::Skip);

/**
 * Run @p cfg with explicit per-core address-region shift indices (core
 * i's workload is displaced by shifts[i] regions and seeded
 * 20070212 + shifts[i]). The fairness layer uses this to run a core's
 * alone baseline on exactly the address region and seed it had in the
 * shared mix — a 1-core "mix" is then its own baseline and every
 * slowdown is exactly 1.
 */
CmpResult runCmpShifted(const CmpConfig &cfg,
                        const std::vector<std::size_t> &shifts);

/**
 * Run the shared mix, then each core's alone baseline (same mechanism,
 * shift and seed), and fill CmpResult::fairness from the per-core IPC
 * ratios.
 */
CmpResult runCmpFairness(const CmpConfig &cfg);

/**
 * Run @p workload under every mechanism in @p mechanisms, @p jobs runs
 * in parallel (0 = one per hardware thread). Results come back in
 * mechanism order regardless of completion order.
 */
std::vector<RunResult> runMechanismSweep(
    const std::string &workload,
    const std::vector<ctrl::Mechanism> &mechanisms,
    std::uint64_t instructions = 0, unsigned jobs = 1,
    EngineKind engine = EngineKind::Skip);

} // namespace bsim::sim

#endif // BURSTSIM_SIM_EXPERIMENT_HH
