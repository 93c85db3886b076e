#include "obs/critpath.hh"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "common/error.hh"
#include "common/hash.hh"
#include "common/json.hh"
#include "common/table.hh"

namespace bsim::obs
{

using dram::StallCause;
using dram::kNumStallCauses;
using dram::stallCauseName;

namespace
{

/** Top-K records retained for the report (text shows the first 8). */
constexpr std::size_t kTopK = 16;
constexpr std::size_t kTopText = 8;

std::uint64_t
sumCounts(const CritPathTracer::Counts &c)
{
    std::uint64_t s = 0;
    for (std::uint64_t n : c)
        s += n;
    return s;
}

/** Ranking order of the top-K list: latency descending, id ascending. */
bool
ranksAbove(const CritPathTracer::Completed &x,
           const CritPathTracer::Completed &y)
{
    if (x.latency != y.latency)
        return x.latency > y.latency;
    return x.id < y.id;
}

const char *
typeName(const CritPathTracer::Completed &c)
{
    return c.forwarded ? "fwd" : c.write ? "write" : "read";
}

void
writeBlame(JsonWriter &w, const CritPathTracer::Counts &blame)
{
    w.beginObject();
    for (std::size_t i = 0; i < kNumStallCauses; ++i)
        if (blame[i])
            w.key(stallCauseName(StallCause(i))).value(blame[i]);
    w.endObject();
}

void
writeCompleted(JsonWriter &w, const CritPathTracer::Completed &c)
{
    w.beginObject();
    w.key("id").value(c.id);
    w.key("core").value(c.tag);
    w.key("type").value(typeName(c));
    w.key("critical").value(c.critical);
    w.key("channel").value(int(c.coords.channel));
    w.key("rank").value(int(c.coords.rank));
    w.key("bank").value(int(c.coords.bank));
    w.key("row").value(std::uint64_t(c.coords.row));
    w.key("arrival").value(c.arrival);
    if (!c.forwarded) {
        w.key("col_issued").value(c.colIssuedAt);
        w.key("data_start").value(c.dataStart);
    }
    w.key("data_end").value(c.dataEnd);
    w.key("latency").value(c.latency);
    if (c.outcomeValid)
        w.key("outcome").value(dram::rowOutcomeName(c.outcome));
    w.key("blocked_by").value(c.blockedBy);
    w.key("blame");
    writeBlame(w, c.blame);
    w.endObject();
}

/** "t_faw 12, data_transfer 8" — the heaviest causes of a blame vector. */
std::string
blameSummary(const CritPathTracer::Counts &blame, std::size_t max_causes)
{
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < kNumStallCauses; ++i)
        if (blame[i])
            idx.push_back(i);
    std::sort(idx.begin(), idx.end(),
              [&](std::size_t a, std::size_t b) {
                  if (blame[a] != blame[b])
                      return blame[a] > blame[b];
                  return a < b;
              });
    if (idx.size() > max_causes)
        idx.resize(max_causes);
    std::string out;
    for (std::size_t i : idx) {
        if (!out.empty())
            out += ", ";
        out += stallCauseName(StallCause(i));
        out += ' ';
        out += std::to_string(blame[i]);
    }
    return out.empty() ? "-" : out;
}

} // namespace

CritPathTracer::CritPathTracer(const std::string &jsonl_path)
    : digest_(kFnv1aBasis)
{
    if (!jsonl_path.empty()) {
        stream_.open(jsonl_path, std::ios::trunc);
        if (!stream_)
            throwSimError(ErrorCategory::Resource,
                          "cannot open access trace '%s' for writing",
                          jsonl_path.c_str());
        streaming_ = true;
    }
}

void
CritPathTracer::onAdmit(const ctrl::MemAccess &a)
{
    live_.emplace(a.id, Live{});
}

void
CritPathTracer::noteIssue(const ctrl::MemAccess &a)
{
    auto it = live_.find(a.id);
    if (it != live_.end())
        it->second.ownIssues += 1;
}

void
CritPathTracer::noteSegment(const ctrl::MemAccess *victim,
                            StallCause attr, std::uint64_t cycles,
                            std::uint64_t owner)
{
    if (!victim)
        return;
    // PendingData means the queues were empty — there is no victim to
    // charge — and PrepIssue cannot occur on an idle slot.
    if (attr == StallCause::PendingData)
        return;
    auto it = live_.find(victim->id);
    if (it == live_.end())
        return; // admitted before tracing attached; nothing to blame
    Live &l = it->second;
    if (attr == StallCause::DataTransfer) {
        // The victim was not streaming (it is still queued): it waited
        // behind someone else's burst on the shared data bus.
        l.waits[std::size_t(StallCause::TimingDataBus)] += cycles;
        l.blockedBy = owner;
    } else {
        l.waits[std::size_t(attr)] += cycles;
    }
}

void
CritPathTracer::onComplete(const ctrl::MemAccess &a)
{
    auto it = live_.find(a.id);
    if (it == live_.end())
        throwSimError(ErrorCategory::Internal,
                      "critpath: access %llu completed without a blame "
                      "record",
                      static_cast<unsigned long long>(a.id));
    const Live l = it->second;
    live_.erase(it);

    Completed c;
    c.id = a.id;
    c.tag = a.tag;
    c.blockedBy = l.blockedBy;
    c.write = a.isWrite();
    c.forwarded = a.forwarded;
    c.critical = a.critical;
    c.coords = a.coords;
    c.outcome = a.outcome;
    c.outcomeValid = a.outcomeValid;
    c.arrival = a.arrival;
    c.colIssuedAt = a.colIssuedAt;
    c.dataStart = a.dataStart;
    c.dataEnd = a.dataEnd;
    c.latency = a.dataEnd - a.arrival;

    if (a.forwarded) {
        // Never scheduled: the whole (short) forward latency is time
        // spent waiting for data the write queue already held.
        if (l.ownIssues || sumCounts(l.waits))
            throwSimError(ErrorCategory::Internal,
                          "critpath: forwarded access %llu carries "
                          "scheduler charges",
                          static_cast<unsigned long long>(a.id));
        c.blame[std::size_t(StallCause::PendingData)] = c.latency;
    } else {
        // Queued phase [arrival, colIssuedAt]: own issues + victim
        // charges + arbitration residual.
        const std::uint64_t phase1 = a.colIssuedAt + 1 - a.arrival;
        const std::uint64_t charged = sumCounts(l.waits) + l.ownIssues;
        if (charged > phase1)
            throwSimError(
                ErrorCategory::Internal,
                "critpath: access %llu over-charged (%llu blame cycles "
                "in a %llu-cycle queue phase)",
                static_cast<unsigned long long>(a.id),
                static_cast<unsigned long long>(charged),
                static_cast<unsigned long long>(phase1));
        c.blame = l.waits;
        c.blame[std::size_t(StallCause::PrepIssue)] += l.ownIssues;
        c.blame[std::size_t(StallCause::ArbLoss)] += phase1 - charged;

        // Service tail (colIssuedAt, dataEnd): CAS/write-latency gap,
        // then the burst itself.
        const std::uint64_t phase2 = a.dataEnd - a.colIssuedAt - 1;
        std::uint64_t cas_gap = a.dataStart > a.colIssuedAt + 1
                                    ? a.dataStart - (a.colIssuedAt + 1)
                                    : 0;
        if (cas_gap > phase2)
            cas_gap = phase2;
        c.blame[std::size_t(StallCause::PendingData)] += cas_gap;
        c.blame[std::size_t(StallCause::DataTransfer)] +=
            phase2 - cas_gap;
    }

    if (sumCounts(c.blame) != c.latency)
        throwSimError(ErrorCategory::Internal,
                      "critpath: access %llu blame sums to %llu, "
                      "latency is %llu",
                      static_cast<unsigned long long>(a.id),
                      static_cast<unsigned long long>(sumCounts(c.blame)),
                      static_cast<unsigned long long>(c.latency));

    finalize(a, std::move(c));
}

void
CritPathTracer::finalize(const ctrl::MemAccess &a, Completed &&c)
{
    completed_ += 1;
    latencyTotal_ += c.latency;
    for (std::size_t i = 0; i < kNumStallCauses; ++i)
        blameTotals_[i] += c.blame[i];

    CoreRollup &r = rollups_[c.tag];
    r.count += 1;
    r.latencySum += c.latency;
    if (c.outcomeValid) {
        r.rowAccesses += 1;
        if (c.outcome == dram::RowOutcome::Hit)
            r.rowHits += 1;
    }
    for (std::size_t i = 0; i < kNumStallCauses; ++i)
        r.blame[i] += c.blame[i];

    if (top_.size() < kTopK || ranksAbove(c, top_.back())) {
        auto pos = std::lower_bound(top_.begin(), top_.end(), c,
                                    ranksAbove);
        top_.insert(pos, c);
        if (top_.size() > kTopK)
            top_.pop_back();
    }

    emit(c);
    if (retain_)
        retained_.push_back(std::move(c));
    (void)a;
}

void
CritPathTracer::emit(const Completed &c)
{
    std::ostringstream line;
    JsonWriter w(line, /*pretty=*/false);
    writeCompleted(w, c);
    line << '\n';
    const std::string s = line.str();
    digest_ = fnv1a(s, digest_);
    if (streaming_)
        stream_ << s;
}

void
CritPathTracer::flush()
{
    if (streaming_)
        stream_.flush();
}

bool
CritPathTracer::identityHolds() const
{
    return sumCounts(blameTotals_) == latencyTotal_;
}

void
CritPathTracer::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.key("accesses").value(completed_);
    w.key("latency_cycles").value(latencyTotal_);
    w.key("blame_totals");
    writeBlame(w, blameTotals_);
    w.key("top").beginArray();
    for (const Completed &c : top_)
        writeCompleted(w, c);
    w.endArray();
    w.key("per_core").beginArray();
    for (const auto &[tag, r] : rollups_) {
        w.beginObject();
        w.key("core").value(tag);
        w.key("count").value(r.count);
        w.key("latency_mean")
            .value(r.count ? double(r.latencySum) / double(r.count)
                           : 0.0);
        w.key("row_hit_rate")
            .value(r.rowAccesses
                       ? double(r.rowHits) / double(r.rowAccesses)
                       : 0.0);
        w.key("blame");
        writeBlame(w, r.blame);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
CritPathTracer::writeText(std::ostream &os) const
{
    os << "critical path (" << completed_ << " accesses; top "
       << std::min(top_.size(), kTopText) << " by latency)\n";
    Table t;
    t.header({"id", "core", "type", "latency", "ch/rk/bk", "outcome",
              "blame"});
    for (std::size_t i = 0; i < top_.size() && i < kTopText; ++i) {
        const Completed &c = top_[i];
        t.row({std::to_string(c.id), std::to_string(c.tag), typeName(c),
               std::to_string(c.latency),
               std::to_string(c.coords.channel) + "/" +
                   std::to_string(c.coords.rank) + "/" +
                   std::to_string(c.coords.bank),
               c.outcomeValid ? dram::rowOutcomeName(c.outcome) : "-",
               blameSummary(c.blame, 3)});
    }
    t.print(os);
    if (rollups_.empty())
        return;
    os << "\nper-core critical-path rollup\n";
    Table pc;
    pc.header({"core", "accesses", "mean latency", "row hit",
               "dominant blame"});
    for (const auto &[tag, r] : rollups_) {
        pc.row({std::to_string(tag), std::to_string(r.count),
                Table::num(r.count ? double(r.latencySum) /
                                         double(r.count)
                                   : 0.0,
                           1),
                r.rowAccesses
                    ? Table::pct(double(r.rowHits) /
                                 double(r.rowAccesses))
                    : "-",
                blameSummary(r.blame, 3)});
    }
    pc.print(os);
}

} // namespace bsim::obs
