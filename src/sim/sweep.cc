#include "sim/sweep.hh"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include <unistd.h>

#include "common/crc32.hh"
#include "common/hash.hh"
#include "common/journal.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/table.hh"
#include "obs/selfprof.hh"

namespace bsim::sim
{

namespace
{

/** "workload/Mechanism" display label of one point. */
std::string
pointLabel(const ExperimentConfig &cfg)
{
    return cfg.workload + "/" + ctrl::mechanismName(cfg.mechanism);
}

/** CSV-quote @p s (always quoted; inner quotes doubled). */
std::string
csvQuote(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"')
            out += '"';
        out += c == '\n' ? ' ' : c; // keep one row per point
    }
    out += '"';
    return out;
}

std::string
fmt(const char *f, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), f, v);
    return buf;
}

/** Environment-variable fault spec (CLI smoke tests); see SweepFault. */
SweepFault
faultFromEnv()
{
    SweepFault f;
    const char *point = std::getenv("BURSTSIM_FAIL_POINT");
    if (!point || !*point)
        return f;
    f.point = std::atoll(point);
    f.times = 1;
    if (const char *times = std::getenv("BURSTSIM_FAIL_TIMES"))
        f.times = unsigned(std::atoll(times));
    if (const char *cat = std::getenv("BURSTSIM_FAIL_CAT"))
        f.category = parseErrorCategory(cat);
    return f;
}

/**
 * Hard-crash injection (campaign fault-isolation tests): unlike the
 * SweepFault exception injector above, this one takes the *process*
 * down, exactly as a segfault or OOM kill would, so worker isolation
 * is testable deterministically.
 *
 *   BURSTSIM_CRASH_POINT=<n>    crash when slot n begins, or
 *   BURSTSIM_CRASH_KEY=<hex>    crash when the point whose configKey()
 *                               matches begins (stable across shard
 *                               partitions and restarts)
 *   BURSTSIM_CRASH_MODE=abort | segv | exit:<n> | stop   (default abort)
 *   BURSTSIM_CRASH_ONCE=<path>  arm only while <path> does not exist;
 *                               the file is created just before the
 *                               crash, so exactly one incarnation dies
 *
 * "stop" raises SIGSTOP — the whole process freezes, heartbeats and
 * all, which is how a stuck-syscall hang presents to the campaign
 * supervisor's liveness monitor (and, being unblockable, it exercises
 * the SIGTERM-then-SIGKILL escalation path end to end).
 */
struct CrashSpec
{
    std::ptrdiff_t point = -1; //!< slot index to kill at; -1 = none
    bool byKey = false;
    std::uint64_t key = 0;
    std::string mode = "abort";
    std::string onceFile;

    bool armed() const { return point >= 0 || byKey; }
};

CrashSpec
crashFromEnv()
{
    CrashSpec c;
    const char *point = std::getenv("BURSTSIM_CRASH_POINT");
    const char *key = std::getenv("BURSTSIM_CRASH_KEY");
    if ((!point || !*point) && (!key || !*key))
        return c;
    if (key && *key) {
        c.byKey = true;
        c.key = std::strtoull(key, nullptr, 16);
    } else {
        c.point = std::atoll(point);
    }
    if (const char *mode = std::getenv("BURSTSIM_CRASH_MODE"))
        c.mode = mode;
    if (const char *once = std::getenv("BURSTSIM_CRASH_ONCE"))
        c.onceFile = once;
    return c;
}

[[noreturn]] void
executeCrash(const std::string &mode)
{
    if (mode == "segv") {
        std::signal(SIGSEGV, SIG_DFL);
        std::raise(SIGSEGV);
    } else if (mode == "stop") {
        std::raise(SIGSTOP); // freeze; only SIGKILL gets us from here
    } else if (mode.rfind("exit:", 0) == 0) {
        ::_exit(std::atoi(mode.c_str() + 5));
    } else {
        std::signal(SIGABRT, SIG_DFL);
        std::abort();
    }
    // segv/stop can nominally return (handler reset races, SIGCONT);
    // keep the injection fatal either way.
    std::abort();
}

/** One-shot gating: false once the marker exists; creates it when it
 *  is about to allow the crash, so the next incarnation survives. */
bool
crashGateOpen(const CrashSpec &crash)
{
    if (crash.onceFile.empty())
        return true;
    if (std::ifstream(crash.onceFile).good())
        return false;
    std::ofstream marker(crash.onceFile);
    marker << "crashed\n";
    return true;
}

/**
 * JSONL progress telemetry + stderr heartbeat for one sweep.
 *
 * Every event is one compact JSON object per line, flushed immediately
 * so a tail -f (or the CI validator) always sees whole records. The
 * runner's workers call the observer callbacks concurrently; one mutex
 * serialises event assembly, pace bookkeeping and rollup handoff. The
 * heartbeat runs on its own timer thread and stops before sweep_end.
 *
 * The emitted ETA is clamped to be non-increasing across events, so
 * consumers can render a stable countdown — pace noise (a slow point,
 * scheduler jitter) never makes the estimate jump back up.
 */
class SweepProgress final : public ProgressObserver
{
  public:
    SweepProgress(std::ostream *os, std::vector<std::size_t> slots,
                  std::vector<std::string> labels, std::size_t total,
                  std::size_t journaled, unsigned jobs,
                  double heartbeat_sec)
        : os_(os), slots_(std::move(slots)), labels_(std::move(labels)),
          total_(total), started_(std::chrono::steady_clock::now())
    {
        {
            std::lock_guard<std::mutex> g(mu_);
            emitLocked([&](JsonWriter &w) {
                w.key("event").value("sweep_start");
                w.key("points").value(std::uint64_t(total_));
                w.key("pending").value(std::uint64_t(slots_.size()));
                w.key("journaled").value(std::uint64_t(journaled));
                w.key("jobs").value(std::uint64_t(jobs));
            });
        }
        if (heartbeat_sec > 0)
            heartbeat_ = std::thread(
                [this, heartbeat_sec] { heartbeatLoop(heartbeat_sec); });
    }

    ~SweepProgress() override { stopHeartbeat(); }

    void
    onPointStart(std::size_t i, unsigned attempt) override
    {
        std::lock_guard<std::mutex> g(mu_);
        emitLocked([&](JsonWriter &w) {
            w.key("event").value(attempt > 1 ? "point_retry"
                                             : "point_start");
            w.key("point").value(std::uint64_t(slots_[i]));
            w.key("label").value(labels_[i]);
            w.key("attempt").value(std::uint64_t(attempt));
        });
    }

    void
    onPointFinish(std::size_t i, const RunOutcome &o) override
    {
        std::lock_guard<std::mutex> g(mu_);
        std::shared_ptr<obs::prof::SelfProfile> prof;
        if (const auto it = rollups_.find(slots_[i]);
            it != rollups_.end()) {
            prof = std::move(it->second);
            rollups_.erase(it);
        }
        done_ += 1;
        const double pps = pointsPerSec();
        const double eta = clampedEtaSec(pps);
        emitLocked([&](JsonWriter &w) {
            w.key("event").value("point_finish");
            w.key("point").value(std::uint64_t(slots_[i]));
            w.key("label").value(labels_[i]);
            w.key("status").value(o.ok ? "ok" : "failed");
            w.key("attempts").value(std::uint64_t(o.attempts));
            if (!o.ok) {
                w.key("category").value(errorCategoryName(o.category));
                w.key("error").value(o.error);
            }
            w.key("wall_ms").value(o.wallMs);
            w.key("done").value(std::uint64_t(done_));
            w.key("total").value(std::uint64_t(slots_.size()));
            w.key("points_per_sec").value(pps);
            w.key("eta_sec").value(eta);
            if (prof && prof->valid) {
                w.key("selfprof").beginObject();
                w.key("total_us").value(prof->totalUs);
                w.key("phases").beginObject();
                for (std::size_t p = 0; p < obs::prof::kNumPhases; ++p)
                    if (prof->selfUsByPhase[p] > 0)
                        w.key(obs::prof::phaseName(obs::prof::Phase(p)))
                            .value(prof->selfUsByPhase[p]);
                w.endObject();
                w.endObject();
            }
        });
    }

    /** Self-profile to fold into slot @p slot's point_finish event
     *  (called from the point's own worker thread, before the runner
     *  fires onPointFinish). */
    void
    attachRollup(std::size_t slot,
                 std::shared_ptr<obs::prof::SelfProfile> prof)
    {
        std::lock_guard<std::mutex> g(mu_);
        rollups_[slot] = std::move(prof);
    }

    /** Final sweep_end event; the heartbeat stops first so no event
     *  ever follows sweep_end in the file. */
    void
    finish(std::size_t failures, bool aborted, bool cancelled)
    {
        stopHeartbeat();
        std::lock_guard<std::mutex> g(mu_);
        emitLocked([&](JsonWriter &w) {
            w.key("event").value("sweep_end");
            w.key("done").value(std::uint64_t(done_));
            w.key("total").value(std::uint64_t(slots_.size()));
            w.key("failures").value(std::uint64_t(failures));
            w.key("aborted").value(aborted);
            w.key("cancelled").value(cancelled);
            w.key("elapsed_sec").value(elapsedSec());
        });
    }

  private:
    template <typename Fn>
    void
    emitLocked(Fn &&fields) // mu_ held by the caller
    {
        if (!os_)
            return;
        JsonWriter w(*os_, /*pretty=*/false);
        w.beginObject();
        fields(w);
        w.endObject();
        *os_ << '\n';
        os_->flush(); // tail -f / validators see whole records
    }

    double
    elapsedSec() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - started_)
            .count();
    }

    double
    pointsPerSec() const // mu_ held
    {
        const double el = elapsedSec();
        return el > 0 ? double(done_) / el : 0.0;
    }

    double
    clampedEtaSec(double pps) // mu_ held
    {
        const std::size_t remaining =
            slots_.size() > done_ ? slots_.size() - done_ : 0;
        if (remaining == 0) {
            etaCap_ = 0.0;
            return 0.0;
        }
        if (pps <= 0)
            return -1.0; // no estimate until the first point lands
        double eta = double(remaining) / pps;
        if (eta > etaCap_)
            eta = etaCap_;
        etaCap_ = eta;
        return eta;
    }

    void
    heartbeatLoop(double period)
    {
        std::unique_lock<std::mutex> lk(hbMu_);
        while (!hbStop_) {
            if (hbCv_.wait_for(lk, std::chrono::duration<double>(period),
                               [this] { return hbStop_; }))
                return;
            beat();
        }
    }

    void
    beat()
    {
        std::lock_guard<std::mutex> g(mu_);
        const double pps = pointsPerSec();
        const double eta = clampedEtaSec(pps);
        emitLocked([&](JsonWriter &w) {
            w.key("event").value("heartbeat");
            w.key("done").value(std::uint64_t(done_));
            w.key("total").value(std::uint64_t(slots_.size()));
            w.key("points_per_sec").value(pps);
            w.key("eta_sec").value(eta);
            w.key("elapsed_sec").value(elapsedSec());
        });
        if (eta < 0)
            std::fprintf(stderr,
                         "sweep: %zu/%zu points, %.2f pts/s, eta ?\n",
                         done_, slots_.size(), pps);
        else
            std::fprintf(stderr,
                         "sweep: %zu/%zu points, %.2f pts/s, eta %.0f s\n",
                         done_, slots_.size(), pps, eta);
    }

    void
    stopHeartbeat()
    {
        {
            std::lock_guard<std::mutex> g(hbMu_);
            hbStop_ = true;
        }
        hbCv_.notify_all();
        if (heartbeat_.joinable())
            heartbeat_.join();
    }

    std::ostream *os_; //!< may be null (heartbeat-only operation)
    const std::vector<std::size_t> slots_;  //!< pending -> point index
    const std::vector<std::string> labels_; //!< pending -> display label
    const std::size_t total_;               //!< all points, incl. journaled
    const std::chrono::steady_clock::time_point started_;

    std::mutex mu_; //!< serialises events, pace state and rollups
    std::size_t done_ = 0;
    double etaCap_ = std::numeric_limits<double>::infinity();
    std::unordered_map<std::size_t,
                       std::shared_ptr<obs::prof::SelfProfile>>
        rollups_;

    std::thread heartbeat_;
    std::mutex hbMu_;
    std::condition_variable hbCv_;
    bool hbStop_ = false;
};

} // namespace

std::string
canonicalConfig(const ExperimentConfig &cfg)
{
    // Canonical text encoding of every fate-determining field.
    // cfg.instructions == 0 is resolved first so "default count" and
    // "explicitly the default count" journal identically even if the
    // BURSTSIM_INSTR override changes between runs.
    const std::uint64_t instr =
        cfg.instructions ? cfg.instructions : defaultInstructions();
    std::ostringstream os;
    os << "v2|" << cfg.workload << '|'
       << ctrl::mechanismName(cfg.mechanism) << '|' << instr << '|'
       << cfg.seed << '|' << cfg.threshold << '|'
       << int(cfg.pagePolicy) << '|' << int(cfg.addressMap) << '|'
       << int(cfg.device) << '|' << int(cfg.timingVariant) << '|'
       << int(cfg.engine) << '|'
       << cfg.channels << '|' << cfg.ranksPerChannel << '|'
       << cfg.banksPerRank << '|' << cfg.dynamicThreshold << '|'
       << cfg.sortBurstsBySize << '|' << cfg.criticalFirst << '|'
       << cfg.rankAware << '|' << cfg.coalesceWrites << '|'
       << cfg.robSize << '|' << cfg.issueWidth << '|'
       // Fault-policy fields: a point that failed a 10k-cycle watchdog
       // is a different journal identity from one run without it.
       << cfg.watchdogCycles << '|' << cfg.deadlineSec << '|'
       // Scheduler-factory identity. A set factory with no declared id
       // still flavours the key (the run is NOT a stock run), but two
       // anonymous factories cannot be told apart — name them.
       << (cfg.schedulerFactory
               ? (cfg.schedulerFactoryId.empty()
                      ? std::string("factory:?")
                      : "factory:" + cfg.schedulerFactoryId)
               : std::string());
    // Appended conditionally so every pre-existing journal key is
    // byte-stable: only points that actually enable the axis gain the
    // token (and thereby a distinct key).
    if (cfg.watermarkDrain)
        os << "|wd";
    std::string s = os.str();
    for (char &c : s)
        if (c == '"' || c == '\n' || c == '\r')
            c = '?'; // keep the journal echo one parseable line
    return s;
}

std::uint64_t
configKey(const ExperimentConfig &cfg)
{
    return fnv1a(canonicalConfig(cfg));
}

SweepSummary
summarize(const RunResult &r)
{
    SweepSummary s;
    s.execCpuCycles = r.execCpuCycles;
    s.readLatMean = r.ctrl.readLatency.mean();
    s.writeLatMean = r.ctrl.writeLatency.mean();
    s.rowHitRate = r.ctrl.rowHitRate();
    s.bandwidthGBs = r.bandwidthGBs;
    return s;
}

std::size_t
SweepReport::failures() const
{
    std::size_t n = 0;
    for (const SweepSlot &s : slots)
        if (!s.run.ok && s.run.attempts > 0)
            n += 1;
    return n;
}

std::size_t
SweepReport::journaled() const
{
    std::size_t n = 0;
    for (const SweepSlot &s : slots)
        if (s.fromJournal)
            n += 1;
    return n;
}

namespace
{

/** Parse a v2/v3 record *payload* ("P <key> attempts=..."). */
bool
parsePointPayload(const std::string &payload, std::uint64_t &key,
                  JournalRecord &rec)
{
    unsigned attempts = 0;
    unsigned long long exec = 0;
    double rdlat = 0, wrlat = 0, rowhit = 0, bw = 0;
    // %la parses C99 hexfloats (and any other strtod-able form).
    const int n = std::sscanf(
        payload.c_str(),
        "P %" SCNx64 " attempts=%u exec=%llu rdlat=%la wrlat=%la "
        "rowhit=%la bw=%la",
        &key, &attempts, &exec, &rdlat, &wrlat, &rowhit, &bw);
    if (n != 7)
        return false;
    rec.attempts = attempts;
    rec.summary.execCpuCycles = exec;
    rec.summary.readLatMean = rdlat;
    rec.summary.writeLatMean = wrlat;
    rec.summary.rowHitRate = rowhit;
    rec.summary.bandwidthGBs = bw;
    // Optional config echo: cfg="..." through the payload's last quote.
    const std::size_t open = payload.find(" cfg=\"");
    const std::size_t close = payload.rfind('"');
    if (open != std::string::npos && close > open + 6)
        rec.configEcho = payload.substr(open + 6, close - (open + 6));
    return true;
}

} // namespace

const char *
journalIssueKindName(JournalIssue::Kind kind)
{
    switch (kind) {
      case JournalIssue::Kind::Malformed: return "malformed";
      case JournalIssue::Kind::LengthMismatch: return "length_mismatch";
      case JournalIssue::Kind::CrcMismatch: return "crc_mismatch";
      case JournalIssue::Kind::TornTail: return "torn_tail";
    }
    return "?";
}

JournalScan
scanSweepJournal(const std::string &path)
{
    JournalScan scan;
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        scan.missing = true;
        return scan; // no journal yet: nothing to resume, nothing torn
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string content = buf.str();

    bool cleanPrefix = true;
    std::uint64_t lineno = 0;
    std::size_t pos = 0;
    while (pos < content.size()) {
        lineno += 1;
        const std::size_t nl = content.find('\n', pos);
        const bool terminated = nl != std::string::npos;
        const std::size_t lineEnd = terminated ? nl + 1 : content.size();
        const std::string line =
            content.substr(pos, (terminated ? nl : content.size()) - pos);
        const bool lastLine = lineEnd == content.size();

        const auto fail = [&](JournalIssue::Kind kind,
                              const std::string &detail) {
            // An unterminated or short final record is the expected
            // footprint of a crash mid-append, not corruption.
            JournalIssue issue;
            issue.kind = lastLine && kind != JournalIssue::Kind::CrcMismatch
                             ? JournalIssue::Kind::TornTail
                             : kind;
            issue.line = lineno;
            issue.detail = detail;
            scan.issues.push_back(std::move(issue));
            cleanPrefix = false;
        };

        if (line.empty() || line[0] == '#') {
            // Comment / blank: clean filler, extends the valid prefix.
        } else if (line.rfind("J3 ", 0) == 0) {
            std::size_t len = 0;
            std::uint32_t crc = 0;
            const std::size_t payloadAt = parseJournalFrame(line, len, crc);
            if (payloadAt == std::string::npos) {
                fail(JournalIssue::Kind::Malformed, "unparseable v3 frame");
            } else {
                const std::string payload = line.substr(payloadAt);
                std::uint64_t key = 0;
                JournalRecord rec;
                if (payload.size() != len) {
                    fail(JournalIssue::Kind::LengthMismatch,
                         "framed length " + std::to_string(len) +
                             ", actual " + std::to_string(payload.size()));
                } else if (crc32(payload) != crc) {
                    fail(JournalIssue::Kind::CrcMismatch,
                         "stored CRC does not match payload");
                } else if (!terminated) {
                    fail(JournalIssue::Kind::TornTail,
                         "record missing its trailing newline");
                } else if (!parsePointPayload(payload, key, rec)) {
                    fail(JournalIssue::Kind::Malformed,
                         "CRC-clean frame with unparseable payload");
                } else {
                    scan.v3Records += 1;
                    scan.records[key] = std::move(rec);
                }
            }
        } else if (line.rfind("P ", 0) == 0) {
            // Bare v2 record: accepted, but with no integrity check
            // beyond parseability.
            std::uint64_t key = 0;
            JournalRecord rec;
            if (!terminated) {
                fail(JournalIssue::Kind::TornTail,
                     "record missing its trailing newline");
            } else if (!parsePointPayload(line, key, rec)) {
                fail(JournalIssue::Kind::Malformed,
                     "unparseable legacy record");
            } else {
                scan.legacyRecords += 1;
                scan.records[key] = std::move(rec);
            }
        } else {
            fail(JournalIssue::Kind::Malformed, "unrecognized line");
        }

        if (cleanPrefix)
            scan.validPrefixBytes = lineEnd;
        pos = lineEnd;
    }
    return scan;
}

std::unordered_map<std::uint64_t, JournalRecord>
loadSweepJournal(const std::string &path)
{
    JournalScan scan = scanSweepJournal(path);
    for (const JournalIssue &issue : scan.issues)
        warn("sweep journal %s:%llu: skipping %s record (%s)",
             path.c_str(), (unsigned long long)issue.line,
             journalIssueKindName(issue.kind), issue.detail.c_str());
    return std::move(scan.records);
}

bool
repairSweepJournal(const std::string &path)
{
    const JournalScan scan = scanSweepJournal(path);
    if (scan.missing)
        return false;
    std::uintmax_t size = 0;
    {
        std::ifstream is(path, std::ios::binary | std::ios::ate);
        if (!is)
            throwSimError(ErrorCategory::Resource,
                          "cannot reopen journal '%s'", path.c_str());
        size = std::uintmax_t(is.tellg());
    }
    if (scan.validPrefixBytes >= size)
        return false; // nothing to drop
    if (::truncate(path.c_str(), off_t(scan.validPrefixBytes)) != 0)
        throwSimError(ErrorCategory::Resource,
                      "cannot truncate journal '%s' to %llu bytes (%s)",
                      path.c_str(),
                      (unsigned long long)scan.validPrefixBytes,
                      std::strerror(errno));
    return true;
}

std::vector<std::size_t>
shardSlots(std::size_t count, unsigned shards, unsigned shard)
{
    if (shards == 0)
        throwSimError(ErrorCategory::Config,
                      "shard count must be positive");
    if (shard >= shards)
        throwSimError(ErrorCategory::Config,
                      "shard id %u out of range (%u shards)", shard,
                      shards);
    const std::size_t base = count / shards;
    const std::size_t rem = count % shards;
    const std::size_t begin =
        std::size_t(shard) * base + std::min<std::size_t>(shard, rem);
    const std::size_t len = base + (shard < rem ? 1 : 0);
    std::vector<std::size_t> out;
    out.reserve(len);
    for (std::size_t i = 0; i < len; ++i)
        out.push_back(begin + i);
    return out;
}

SweepReport
runExperimentSweep(const std::vector<ExperimentConfig> &points,
                   const SweepOptions &opt)
{
    SweepReport rep;
    rep.slots.resize(points.size());

    const SweepFault fault =
        opt.fault.point >= 0 ? opt.fault : faultFromEnv();

    // Resume: restore journaled points, collect the rest for execution.
    std::vector<std::string> canon(points.size());
    std::vector<std::uint64_t> keys(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        canon[i] = canonicalConfig(points[i]);
        keys[i] = configKey(points[i]);
    }
    std::vector<std::size_t> pending;
    if (!opt.journal.empty()) {
        const auto journal = loadSweepJournal(opt.journal);
        for (std::size_t i = 0; i < points.size(); ++i) {
            const auto it = journal.find(keys[i]);
            if (it == journal.end()) {
                pending.push_back(i);
                continue;
            }
            if (!it->second.configEcho.empty() &&
                it->second.configEcho != canon[i]) {
                // Same 64-bit key, different config: a hash collision.
                // Trusting the record would silently report another
                // point's numbers — rerun this point instead.
                warn("sweep journal %s: key %016llx collides with a "
                     "different config; rerunning point %zu",
                     opt.journal.c_str(),
                     (unsigned long long)keys[i], i);
                pending.push_back(i);
                continue;
            }
            SweepSlot &s = rep.slots[i];
            s.run.ok = true;
            s.run.attempts = it->second.attempts;
            s.summary = it->second.summary;
            s.fromJournal = true;
        }
    } else {
        for (std::size_t i = 0; i < points.size(); ++i)
            pending.push_back(i);
    }

    // Open the journal for appending before any work starts, so an
    // unwritable path fails the sweep up front rather than after the
    // first completed point.
    JournalWriter journal_os("sweep");
    std::mutex journal_mu;
    if (!opt.journal.empty())
        journal_os.open(opt.journal, opt.journalSync);

    SweepRunner runner(opt.jobs);

    // Progress telemetry: JSONL sink (file or injected stream) plus the
    // optional stderr heartbeat. Built before any work starts so that
    // sweep_start is always the first record; an unwritable path fails
    // the sweep up front, exactly like the journal.
    std::ofstream progress_file;
    std::ostream *progress_os = opt.progressStream;
    if (!progress_os && !opt.progressPath.empty()) {
        progress_file.open(opt.progressPath);
        if (!progress_file)
            throwSimError(ErrorCategory::Resource,
                          "cannot open progress file '%s' for writing",
                          opt.progressPath.c_str());
        progress_os = &progress_file;
    }
    std::unique_ptr<SweepProgress> progress;
    if (progress_os || opt.heartbeatSec > 0) {
        std::vector<std::string> labels;
        labels.reserve(pending.size());
        for (const std::size_t i : pending)
            labels.push_back(pointLabel(points[i]));
        progress = std::make_unique<SweepProgress>(
            progress_os, pending, std::move(labels), points.size(),
            points.size() - pending.size(), runner.jobs(),
            opt.heartbeatSec);
    }

    // Per-point attempt counters for journal records: each point is
    // claimed by exactly one worker and retried on that same thread,
    // so plain (non-atomic) counters are safe.
    std::vector<unsigned> attempts(points.size(), 0);

    const CrashSpec crash = crashFromEnv();

    const auto runPoint = [&](std::size_t slot) {
        const unsigned attempt = ++attempts[slot];
        if (crash.armed()) {
            const bool match = crash.byKey
                                   ? keys[slot] == crash.key
                                   : crash.point == std::ptrdiff_t(slot);
            if (match && crashGateOpen(crash))
                executeCrash(crash.mode); // the process dies right here
        }
        if (fault.point == std::ptrdiff_t(slot) && attempt <= fault.times)
            throwSimError(fault.category,
                          "injected fault: point %zu attempt %u", slot,
                          attempt);
        const RunResult r = runExperiment(points[slot]);
        rep.slots[slot].summary = summarize(r);
        if (progress && r.selfprof)
            progress->attachRollup(slot, r.selfprof);
        if (journal_os.isOpen()) {
            char line[256];
            std::snprintf(line, sizeof(line),
                          "P %016" PRIx64
                          " attempts=%u exec=%llu rdlat=%a wrlat=%a "
                          "rowhit=%a bw=%a cfg=",
                          keys[slot], attempt,
                          (unsigned long long)
                              rep.slots[slot].summary.execCpuCycles,
                          rep.slots[slot].summary.readLatMean,
                          rep.slots[slot].summary.writeLatMean,
                          rep.slots[slot].summary.rowHitRate,
                          rep.slots[slot].summary.bandwidthGBs);
            const std::string payload =
                std::string(line) + '"' + canon[slot] + '"';
            std::lock_guard<std::mutex> g(journal_mu);
            journal_os.append(payload); // one atomic framed write
        }
    };

    FaultPolicy policy;
    policy.maxAttempts = opt.maxAttempts;
    policy.maxFailures = opt.maxFailures;
    policy.cancel = opt.cancel;

    const SweepRunner::GuardedReport gr = runner.guardedRun(
        pending.size(), [&](std::size_t j) { runPoint(pending[j]); },
        policy, progress.get());

    for (std::size_t j = 0; j < pending.size(); ++j)
        rep.slots[pending[j]].run = gr.points[j];
    rep.aborted = gr.aborted;
    rep.cancelled = gr.cancelled;
    if (progress)
        progress->finish(rep.failures(), rep.aborted, rep.cancelled);
    return rep;
}

void
writeSweepCsv(std::ostream &os,
              const std::vector<ExperimentConfig> &points,
              const SweepReport &rep)
{
    os << "workload,mechanism,status,attempts,category,error,"
          "exec_cycles,read_lat,write_lat,row_hit,bandwidth_gbs\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SweepSlot &s = rep.slots[i];
        os << points[i].workload << ','
           << ctrl::mechanismName(points[i].mechanism) << ',';
        if (s.run.ok) {
            os << "ok," << s.run.attempts << ",,,"
               << s.summary.execCpuCycles << ','
               << fmt("%.3f", s.summary.readLatMean) << ','
               << fmt("%.3f", s.summary.writeLatMean) << ','
               << fmt("%.6f", s.summary.rowHitRate) << ','
               << fmt("%.6f", s.summary.bandwidthGBs) << '\n';
        } else if (s.run.skipped()) {
            os << "skipped,0,,,,,,,\n";
        } else {
            os << "failed," << s.run.attempts << ','
               << errorCategoryName(s.run.category) << ','
               << csvQuote(s.run.error) << ",,,,,\n";
        }
    }
}

void
writeSweepTable(std::ostream &os,
                const std::vector<ExperimentConfig> &points,
                const SweepReport &rep)
{
    // Normalise against the first successful point, as the CLI's
    // original sweep normalised against its first row.
    double base = 0.0;
    for (const SweepSlot &s : rep.slots)
        if (s.run.ok) {
            base = double(s.summary.execCpuCycles);
            break;
        }

    Table t;
    t.header({"point", "status", "exec cycles", "norm", "read lat",
              "write lat", "row hit", "GB/s", "tries"});
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SweepSlot &s = rep.slots[i];
        if (s.run.ok) {
            t.row({pointLabel(points[i]), "ok",
                   std::to_string(s.summary.execCpuCycles),
                   base > 0
                       ? Table::num(
                             double(s.summary.execCpuCycles) / base, 3)
                       : "-",
                   Table::num(s.summary.readLatMean, 1),
                   Table::num(s.summary.writeLatMean, 1),
                   Table::pct(s.summary.rowHitRate),
                   Table::num(s.summary.bandwidthGBs, 2),
                   std::to_string(s.run.attempts)});
        } else {
            const std::string status =
                s.run.skipped()
                    ? "skipped"
                    : std::string("failed(") +
                          errorCategoryName(s.run.category) + ")";
            t.row({pointLabel(points[i]), status, "-", "-", "-", "-",
                   "-", "-", std::to_string(s.run.attempts)});
        }
    }
    t.print(os);
}

} // namespace bsim::sim
