#include "sim/fairness.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/crc32.hh"
#include "common/error.hh"
#include "common/hash.hh"
#include "common/journal.hh"
#include "common/log.hh"

namespace bsim::sim
{

namespace
{

std::string
fmt(const char *f, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), f, v);
    return buf;
}

std::string
mixLabel(const CmpConfig &cfg)
{
    std::string s;
    for (const auto &w : cfg.workloads) {
        if (!s.empty())
            s += '+';
        s += w;
    }
    return s;
}

/** Parse one record payload ("F <key> cores=..."). */
bool
parseFairnessPayload(const std::string &payload, std::uint64_t &key,
                     FairnessRecord &rec)
{
    unsigned long long cores = 0, exec = 0;
    double ws = 0, hs = 0, maxsd = 0;
    int at = 0;
    // %la parses the C99 hexfloats the writer emits (%a), so the
    // journal round-trips doubles bit for bit.
    if (std::sscanf(payload.c_str(),
                    "F %" SCNx64 " cores=%llu exec=%llu ws=%la hs=%la "
                    "maxsd=%la%n",
                    &key, &cores, &exec, &ws, &hs, &maxsd, &at) != 6)
        return false;
    rec.cores = cores;
    rec.execCpuCycles = exec;
    rec.weightedSpeedup = ws;
    rec.harmonicSpeedup = hs;
    rec.maxSlowdown = maxsd;
    rec.perCoreSlowdown.clear();
    const char *p = payload.c_str() + at;
    for (unsigned long long i = 0; i < cores; ++i) {
        unsigned idx = 0;
        double sd = 0;
        int n = 0;
        if (std::sscanf(p, " sd%u=%la%n", &idx, &sd, &n) != 2 ||
            idx != i)
            return false;
        rec.perCoreSlowdown.push_back(sd);
        p += n;
    }
    // Config echo: cfg="..." through the payload's last quote.
    const std::size_t open = payload.find(" cfg=\"");
    const std::size_t close = payload.rfind('"');
    if (open != std::string::npos && close > open + 6)
        rec.configEcho = payload.substr(open + 6, close - (open + 6));
    return true;
}

std::string
formatFairnessPayload(std::uint64_t key, const std::string &canon,
                      const FairnessRecord &rec)
{
    char head[192];
    std::snprintf(head, sizeof(head),
                  "F %016" PRIx64 " cores=%llu exec=%llu ws=%a hs=%a "
                  "maxsd=%a",
                  key, (unsigned long long)rec.cores,
                  (unsigned long long)rec.execCpuCycles,
                  rec.weightedSpeedup, rec.harmonicSpeedup,
                  rec.maxSlowdown);
    std::string payload = head;
    for (std::size_t i = 0; i < rec.perCoreSlowdown.size(); ++i) {
        char sd[64];
        std::snprintf(sd, sizeof(sd), " sd%zu=%a", i,
                      rec.perCoreSlowdown[i]);
        payload += sd;
    }
    payload += " cfg=\"" + canon + '"';
    return payload;
}

} // namespace

std::string
canonicalCmpConfig(const CmpConfig &cfg)
{
    const std::uint64_t instr =
        cfg.instructions ? cfg.instructions : defaultInstructions();
    std::ostringstream os;
    os << "cmp1|";
    for (std::size_t i = 0; i < cfg.workloads.size(); ++i) {
        if (i)
            os << ',';
        os << cfg.workloads[i];
    }
    os << '|' << ctrl::mechanismName(cfg.mechanism) << '|' << instr
       << '|' << cfg.threshold << '|' << int(cfg.engine) << '|'
       << int(cfg.watermarkDrain);
    std::string s = os.str();
    for (char &c : s)
        if (c == '"' || c == '\n' || c == '\r')
            c = '?'; // keep the journal echo one parseable line
    return s;
}

std::uint64_t
cmpConfigKey(const CmpConfig &cfg)
{
    return fnv1a(canonicalCmpConfig(cfg));
}

std::unordered_map<std::uint64_t, FairnessRecord>
loadFairnessJournal(const std::string &path)
{
    std::unordered_map<std::uint64_t, FairnessRecord> records;
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return records; // no journal yet: nothing to resume

    std::string line;
    std::uint64_t lineno = 0;
    while (std::getline(is, line)) {
        lineno += 1;
        if (line.empty() || line[0] == '#')
            continue;
        const auto skip = [&](const char *why) {
            warn("fairness journal %s:%llu: skipping record (%s)",
                 path.c_str(), (unsigned long long)lineno, why);
        };
        if (line.rfind("J3 ", 0) != 0) {
            skip("unrecognized line");
            continue;
        }
        std::size_t len = 0;
        std::uint32_t crc = 0;
        const std::size_t payloadAt = parseJournalFrame(line, len, crc);
        if (payloadAt == std::string::npos) {
            skip("unparseable v3 frame");
            continue;
        }
        const std::string payload = line.substr(payloadAt);
        if (payload.size() != len) {
            skip("framed length mismatch (torn tail?)");
            continue;
        }
        if (crc32(payload) != crc) {
            skip("CRC mismatch");
            continue;
        }
        std::uint64_t key = 0;
        FairnessRecord rec;
        if (!parseFairnessPayload(payload, key, rec)) {
            skip("CRC-clean frame with unparseable payload");
            continue;
        }
        records[key] = std::move(rec);
    }
    return records;
}

std::size_t
FairnessReport::journaled() const
{
    std::size_t n = 0;
    for (const FairnessSlot &s : slots)
        if (s.fromJournal)
            n += 1;
    return n;
}

FairnessReport
runFairnessSweep(const std::vector<CmpConfig> &points,
                 const FairnessSweepOptions &opt)
{
    FairnessReport rep;
    rep.slots.resize(points.size());

    std::vector<std::string> canon(points.size());
    std::vector<std::uint64_t> keys(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        canon[i] = canonicalCmpConfig(points[i]);
        keys[i] = fnv1a(canon[i]);
    }

    std::vector<std::size_t> pending;
    if (!opt.journal.empty()) {
        const auto journal = loadFairnessJournal(opt.journal);
        for (std::size_t i = 0; i < points.size(); ++i) {
            const auto it = journal.find(keys[i]);
            if (it == journal.end()) {
                pending.push_back(i);
                continue;
            }
            if (!it->second.configEcho.empty() &&
                it->second.configEcho != canon[i]) {
                // Same 64-bit key, different config: hash collision —
                // rerun rather than report another mix's numbers.
                warn("fairness journal %s: key %016llx collides with a "
                     "different config; rerunning mix %zu",
                     opt.journal.c_str(),
                     (unsigned long long)keys[i], i);
                pending.push_back(i);
                continue;
            }
            rep.slots[i].ok = true;
            rep.slots[i].fromJournal = true;
            rep.slots[i].record = it->second;
        }
    } else {
        for (std::size_t i = 0; i < points.size(); ++i)
            pending.push_back(i);
    }

    // Open for appending before any work, so an unwritable path fails
    // the sweep up front.
    JournalWriter journal_os("fairness");
    if (!opt.journal.empty())
        journal_os.open(opt.journal, opt.journalSync);

    for (const std::size_t i : pending) {
        const CmpResult r = runCmpFairness(points[i]);
        FairnessRecord &rec = rep.slots[i].record;
        rec.cores = r.workloads.size();
        rec.execCpuCycles = r.execCpuCycles;
        rec.weightedSpeedup = r.fairness.weightedSpeedup;
        rec.harmonicSpeedup = r.fairness.harmonicSpeedup;
        rec.maxSlowdown = r.fairness.maxSlowdown;
        rec.perCoreSlowdown = r.fairness.perCoreSlowdown;
        rec.configEcho = canon[i];
        rep.slots[i].ok = true;
        if (journal_os.isOpen())
            journal_os.append(
                formatFairnessPayload(keys[i], canon[i], rec));
    }
    return rep;
}

void
writeFairnessCsv(std::ostream &os, const std::vector<CmpConfig> &points,
                 const FairnessReport &rep)
{
    std::size_t n_cores = 0;
    for (const CmpConfig &p : points)
        n_cores = std::max(n_cores, p.workloads.size());

    os << "mix,mechanism,cores,watermark_drain,status,exec_cycles,"
          "weighted_speedup,harmonic_speedup,max_slowdown";
    for (std::size_t c = 0; c < n_cores; ++c)
        os << ",sd_core" << c;
    os << '\n';

    for (std::size_t i = 0; i < points.size(); ++i) {
        const FairnessSlot &s = rep.slots[i];
        os << mixLabel(points[i]) << ','
           << ctrl::mechanismName(points[i].mechanism) << ','
           << points[i].workloads.size() << ','
           << int(points[i].watermarkDrain) << ',';
        if (s.ok) {
            os << "ok," << s.record.execCpuCycles << ','
               << fmt("%.6f", s.record.weightedSpeedup) << ','
               << fmt("%.6f", s.record.harmonicSpeedup) << ','
               << fmt("%.6f", s.record.maxSlowdown);
            for (std::size_t c = 0; c < n_cores; ++c)
                os << ','
                   << (c < s.record.perCoreSlowdown.size()
                           ? fmt("%.6f", s.record.perCoreSlowdown[c])
                           : std::string());
        } else {
            os << "failed,,,,";
            for (std::size_t c = 0; c < n_cores; ++c)
                os << ',';
        }
        os << '\n';
    }
}

} // namespace bsim::sim
