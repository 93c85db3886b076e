/**
 * @file
 * The oracles: properties every FuzzPoint must satisfy.
 *
 *  - valid_config    the sampled point must be accepted by the config
 *                    validators (a rejection is a sampler bug);
 *  - audit_clean     with the protocol auditor fatal, no run may
 *                    violate a DDR2 timing rule or burst invariant;
 *  - no_hang         the forward-progress watchdog must never fire
 *                    (and no other internal error may surface);
 *  - engine_equivalence
 *                    the step and skip engines must produce byte-
 *                    identical result and stall-attribution JSON;
 *  - layer_conservation
 *                    under both engines, the cache hierarchy's counts
 *                    must conserve and match the controller's (see
 *                    sim/conservation.hh): every L2 miss is one memory
 *                    read, every memory write reaches the controller;
 *  - telescoping     per channel, the per-cause stall counts must sum
 *                    exactly to the attributed cycles, which must equal
 *                    the run's memory cycles;
 *  - selfprof_identity
 *                    an introspected skip run's wake-reason attribution
 *                    must telescope exactly: stepped + skipped cycles
 *                    equal the run's memory cycles and every per-reason
 *                    sum matches its total (EngineIntrospect's
 *                    identityHolds);
 *  - memo_transparency
 *                    the horizon memos and per-bank bound caches must be
 *                    pure caches: an introspected skip run with
 *                    --no-horizon-memo semantics (all caches force-
 *                    disabled) must report the same skipped/stepped
 *                    totals and simulated stats as the cached run —
 *                    these runs turn stall attribution off so the exact
 *                    bound caches are actually exercised;
 *  - critpath_identity
 *                    with per-access tracing on, every access's blame
 *                    vector must sum exactly to its measured latency,
 *                    the tracer's internal ledger must reconcile with
 *                    the aggregate stall accountant, both engines must
 *                    stream byte-identical access records (FNV digest),
 *                    and tracing must not perturb simulated stats;
 *  - cross_scheduler on row-hit-heavy synthetic streams, Burst must
 *                    not be slower than BkInOrder beyond a tolerance
 *                    (the paper's headline ordering, Figure 10); for
 *                    points using a contention-aware family the
 *                    point's own mechanism is additionally bounded
 *                    against BkInOrder with a looser tolerance.
 *
 * checkPoint() runs them all and returns the first failure. The
 * configTweak hook exists for the test suite: it lets a test inject a
 * deliberate bug (e.g. a freezing scheduler decorator) underneath the
 * oracles to prove the fuzzer catches and shrinks it.
 */

#ifndef BURSTSIM_FUZZ_ORACLE_HH
#define BURSTSIM_FUZZ_ORACLE_HH

#include <functional>
#include <string>

#include "fuzz/point.hh"

namespace bsim::fuzz
{

/** Oracle evaluation knobs. */
struct OracleOptions
{
    /** Scratch dir for inline-trace materialisation ("" = temp dir). */
    std::string scratchDir;
    /** Burst may be at most this factor slower than BkInOrder. */
    double crossSchedTolerance = 1.15;
    /**
     * Contention-family (FR-FCFS/PARBS/ATLAS/BLISS) bound against
     * BkInOrder. Looser than the Burst bound: these policies optimise
     * fairness/throughput under multi-core contention, not single-
     * stream latency, so a modest single-core regression is by design.
     */
    double contentionTolerance = 1.30;
    /** Skip the (expensive) two-run cross-scheduler bound. */
    bool crossScheduler = true;
    /** Skip the extra introspected run of the selfprof_identity oracle. */
    bool selfprofIdentity = true;
    /** Skip the two extra runs of the memo_transparency oracle. */
    bool memoTransparency = true;
    /** Skip the two extra traced runs of the critpath_identity oracle. */
    bool critpathIdentity = true;
    /** Test hook: mutate the lowered config before each run. */
    std::function<void(sim::ExperimentConfig &)> configTweak;
};

/** Outcome of evaluating one point against every oracle. */
struct OracleVerdict
{
    bool ok = true;
    std::string oracle; //!< failing oracle id ("" when ok)
    std::string detail; //!< human-readable failure description
};

/** Evaluate @p p against all oracles; first failure wins. */
OracleVerdict checkPoint(const FuzzPoint &p,
                         const OracleOptions &opt = {});

} // namespace bsim::fuzz

#endif // BURSTSIM_FUZZ_ORACLE_HH
