#include "obs/stall_attribution.hh"

#include <iomanip>
#include <ostream>

#include "common/json.hh"
#include "obs/critpath.hh"

namespace bsim::obs
{

using dram::StallCause;
using dram::kNumStallCauses;
using dram::stallCauseName;

StallAttribution::StallAttribution(std::uint32_t channels,
                                   std::uint32_t banks_per_channel,
                                   std::vector<std::string> bank_labels)
    : chans_(channels), banksPerChannel_(banks_per_channel),
      bankLabels_(std::move(bank_labels)),
      bankCounts_(std::size_t(channels) * banks_per_channel)
{}

void
StallAttribution::noteBurst(std::uint32_t ch, Tick start, Tick end,
                            std::uint64_t owner)
{
    chans_[ch].pending.push_back({start, end, owner});
}

void
StallAttribution::promote(ChannelState &c, Tick now)
{
    while (!c.pending.empty() && c.pending.front().start <= now) {
        if (c.pending.front().end > c.busyUntil) {
            c.busyUntil = c.pending.front().end;
            c.owner = c.pending.front().owner;
        }
        c.pending.pop_front();
    }
}

void
StallAttribution::record(ChannelState &c, StallCause attr,
                         std::uint64_t n, const ctrl::MemAccess *victim)
{
    c.counts[std::size_t(attr)] += n;
    c.cycles += n;
    if (tracer_)
        tracer_->noteSegment(victim, attr, n, c.owner);
}

void
StallAttribution::account(std::uint32_t ch, Tick now, bool slot_used,
                          StallCause cause, const ctrl::MemAccess *victim)
{
    ChannelState &c = chans_[ch];
    promote(c, now);

    StallCause attr;
    if (now < c.busyUntil)
        attr = StallCause::DataTransfer;
    else if (slot_used)
        attr = StallCause::PrepIssue;
    else if (cause == StallCause::NoWork && !c.pending.empty())
        attr = StallCause::PendingData; // only waiting for booked data
    else
        attr = cause;
    record(c, attr, 1, victim);
}

void
StallAttribution::accountSpan(std::uint32_t ch, Tick from, Tick span,
                              StallCause cause,
                              const ctrl::MemAccess *victim)
{
    ChannelState &c = chans_[ch];
    Tick t = from;
    const Tick end = from + span;
    while (t < end) {
        promote(c, t);
        Tick seg_end;
        StallCause attr;
        if (t < c.busyUntil) {
            seg_end = c.busyUntil < end ? c.busyUntil : end;
            attr = StallCause::DataTransfer;
        } else {
            // The attribution can only change where the next booked
            // burst starts; run this segment up to that edge.
            seg_end = end;
            if (!c.pending.empty() && c.pending.front().start < end)
                seg_end = c.pending.front().start;
            attr = (cause == StallCause::NoWork && !c.pending.empty())
                       ? StallCause::PendingData
                       : cause;
        }
        record(c, attr, seg_end - t, victim);
        t = seg_end;
    }
}

void
StallAttribution::noteBankStall(std::uint32_t ch, std::uint32_t bank,
                                StallCause cause)
{
    bankCounts_[std::size_t(ch) * banksPerChannel_ + bank]
               [std::size_t(cause)] += bankWeight_;
}

StallAttribution::Counts
StallAttribution::totals() const
{
    Counts t{};
    for (const auto &c : chans_)
        for (std::size_t i = 0; i < kNumStallCauses; ++i)
            t[i] += c.counts[i];
    return t;
}

namespace
{

void
writeCounts(JsonWriter &w, const StallAttribution::Counts &counts)
{
    w.beginObject();
    for (std::size_t i = 0; i < kNumStallCauses; ++i)
        if (counts[i])
            w.key(stallCauseName(StallCause(i))).value(counts[i]);
    w.endObject();
}

} // namespace

void
StallAttribution::writeJson(std::ostream &os) const
{
    JsonWriter w(os);
    w.beginObject();

    w.key("totals");
    writeCounts(w, totals());

    w.key("channels").beginArray();
    for (std::size_t ch = 0; ch < chans_.size(); ++ch) {
        w.beginObject();
        w.key("channel").value(std::uint64_t(ch));
        w.key("cycles").value(chans_[ch].cycles);
        w.key("causes");
        writeCounts(w, chans_[ch].counts);
        w.endObject();
    }
    w.endArray();

    w.key("banks").beginArray();
    for (std::size_t b = 0; b < bankCounts_.size(); ++b) {
        bool any = false;
        for (std::size_t i = 0; i < kNumStallCauses; ++i)
            any = any || bankCounts_[b][i];
        if (!any)
            continue;
        w.beginObject();
        if (b < bankLabels_.size())
            w.key("bank").value(bankLabels_[b]);
        else
            w.key("bank").value(std::uint64_t(b));
        w.key("causes");
        writeCounts(w, bankCounts_[b]);
        w.endObject();
    }
    w.endArray();

    w.endObject();
    os << "\n";
}

void
StallAttribution::writeText(std::ostream &os) const
{
    os << "Cycle accounting (one cause per channel-cycle)\n";
    for (std::size_t ch = 0; ch < chans_.size(); ++ch) {
        const ChannelState &c = chans_[ch];
        os << "  channel " << ch << " (" << c.cycles << " cycles)\n";
        for (std::size_t i = 0; i < kNumStallCauses; ++i) {
            if (!c.counts[i])
                continue;
            const double pct =
                c.cycles ? 100.0 * double(c.counts[i]) / double(c.cycles)
                         : 0.0;
            os << "    " << std::setw(16) << std::left
               << stallCauseName(StallCause(i)) << std::right
               << std::setw(12) << c.counts[i] << "  " << std::fixed
               << std::setprecision(1) << std::setw(5) << pct << "%\n";
            os.unsetf(std::ios::floatfield);
        }
    }
}

} // namespace bsim::obs
