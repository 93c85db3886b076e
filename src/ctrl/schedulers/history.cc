#include "ctrl/schedulers/history.hh"

#include <algorithm>

#include "obs/stall_attribution.hh"

namespace bsim::ctrl
{

namespace
{
constexpr double kDecay = 0.995;
constexpr std::size_t kReorderWindow = 4;
}

AdaptiveHistoryScheduler::AdaptiveHistoryScheduler(
    const SchedulerContext &ctx)
    : Scheduler(ctx), queues_(numBanks()), ongoing_(numBanks(), nullptr)
{
}

void
AdaptiveHistoryScheduler::enqueue(MemAccess *a)
{
    queues_[bankIndex(a->coords)].push_back(a);
    if (a->isWrite()) {
        writes_ += 1;
        writeArrivals_ = writeArrivals_ * kDecay + 1.0;
        noteWriteEnqueued(a);
    } else {
        reads_ += 1;
        readArrivals_ = readArrivals_ * kDecay + 1.0;
    }
}

void
AdaptiveHistoryScheduler::arbitrate(std::uint32_t b)
{
    auto &q = queues_[b];
    if (ongoing_[b] || q.empty())
        return;
    auto pick = q.begin();
    const dram::Bank &bank = ctx_.mem->bank(q.front()->coords);
    if (bank.isOpen()) {
        const auto window_end = q.size() > kReorderWindow
                                    ? q.begin() + kReorderWindow
                                    : q.end();
        auto hit = std::find_if(q.begin(), window_end, [&](MemAccess *a) {
            return a->coords.row == bank.openRow();
        });
        if (hit != window_end)
            pick = hit;
    }
    ongoing_[b] = *pick;
    q.erase(pick);
    clearBound(b); // new probe candidate for this bank
}

double
AdaptiveHistoryScheduler::scoreOf(const MemAccess *a,
                                  std::uint32_t bank) const
{
    double score = 0.0;

    // Criterion 1: steer the scheduled mix toward the arrival mix. If
    // reads have been over-served relative to how they arrive, a write
    // is the matching choice, and vice versa.
    const double arrival_read_share =
        readArrivals_ / (readArrivals_ + writeArrivals_);
    const double sched_read_share =
        readsScheduled_ / (readsScheduled_ + writesScheduled_);
    const double imbalance = arrival_read_share - sched_read_share;
    score += (a->isRead() ? imbalance : -imbalance) * 8.0;

    // Criterion 2: spread consecutive services across banks so
    // transactions pipeline.
    if (bank != lastBank_)
        score += 1.0;
    if (bank != prevBank_)
        score += 0.5;

    // Criterion 3 (weak): prefer row hits — they finish sooner.
    if (ctx_.mem->classify(a->coords) == dram::RowOutcome::Hit)
        score += 0.75;

    return score;
}

Scheduler::Issued
AdaptiveHistoryScheduler::tick(Tick now)
{
    for (std::uint32_t b = 0; b < queues_.size(); ++b)
        arbitrate(b);

    MemAccess *best = nullptr;
    std::uint32_t best_bank = 0;
    double best_score = 0.0;
    for (std::uint32_t b = 0; b < ongoing_.size(); ++b) {
        MemAccess *a = ongoing_[b];
        if (!a || bankBound(b, a, now) > now)
            continue;
        const double s = scoreOf(a, b);
        // Oldest-first tie break keeps the policy starvation free.
        if (!best || s > best_score + 1e-9 ||
            (s > best_score - 1e-9 && a->arrival < best->arrival)) {
            best = a;
            best_bank = b;
            best_score = s;
        }
    }
    if (!best)
        return {};

    Issued out = issueFor(best, now);
    if (out.columnAccess) {
        ongoing_[best_bank] = nullptr;
        const double arrival_read_share =
            readArrivals_ / (readArrivals_ + writeArrivals_);
        const double sched_read_share =
            readsScheduled_ / (readsScheduled_ + writesScheduled_);
        if ((best->isRead() &&
             sched_read_share < arrival_read_share) ||
            (best->isWrite() && sched_read_share > arrival_read_share)) {
            mixSteered_ += 1;
        }
        if (best->isWrite()) {
            writes_ -= 1;
            writesScheduled_ = writesScheduled_ * kDecay + 1.0;
            readsScheduled_ *= kDecay;
        } else {
            reads_ -= 1;
            readsScheduled_ = readsScheduled_ * kDecay + 1.0;
            writesScheduled_ *= kDecay;
        }
        prevBank_ = lastBank_;
        lastBank_ = best_bank;
    }
    return out;
}

bool
AdaptiveHistoryScheduler::hasWork() const
{
    return reads_ + writes_ > 0;
}

dram::StallCause
AdaptiveHistoryScheduler::stallScan(Tick now,
                                    obs::StallAttribution &sink) const
{
    // tick() arbitrated every bank before coming up empty.
    dram::StallCause channel_cause = dram::StallCause::NoWork;
    Tick oldest = kTickMax;
    stallVictim_ = nullptr;
    for (std::uint32_t b = 0; b < std::uint32_t(ongoing_.size()); ++b) {
        const MemAccess *a = ongoing_[b];
        if (!a)
            continue;
        dram::StallCause c = blockOf(b, a, now);
        if (c == dram::StallCause::None)
            c = dram::StallCause::ArbLoss;
        sink.noteBankStall(ctx_.channel, b, c);
        if (a->arrival < oldest) {
            oldest = a->arrival;
            channel_cause = c;
            stallVictim_ = a;
        }
    }
    return channel_cause;
}

Tick
AdaptiveHistoryScheduler::nextEventTick(Tick now) const
{
    // Scores and decayed mixes change only when something issues or
    // arrives, so an idle tick is a pure no-op once every bank with
    // backlog has an ongoing candidate.
    obs::prof::Scope prof(obs::prof::Phase::SchedHorizon);
    for (std::uint32_t b = 0; b < std::uint32_t(ongoing_.size()); ++b)
        if (!ongoing_[b] && !queues_[b].empty()) {
            pin_ = HorizonPin::ArbFill;
            return now;
        }
    pin_ = HorizonPin::Timing;
    Tick horizon = kTickMax;
    for (std::uint32_t b = 0; b < std::uint32_t(ongoing_.size()); ++b) {
        const MemAccess *a = ongoing_[b];
        if (!a)
            continue;
        const Tick t = bankBound(b, a, now);
        if (t < horizon)
            horizon = t;
        if (horizon <= now)
            return now;
    }
    if (horizon == kTickMax)
        pin_ = HorizonPin::None;
    return horizon;
}

std::map<std::string, double>
AdaptiveHistoryScheduler::extraStats() const
{
    return {{"mix_steered", double(mixSteered_)}};
}

void
AdaptiveHistoryScheduler::queueOccupancy(
    std::vector<std::uint32_t> &reads,
    std::vector<std::uint32_t> &writes) const
{
    for (std::uint32_t b = 0; b < queues_.size(); ++b) {
        std::uint32_t r = 0, w = 0;
        for (const MemAccess *a : queues_[b])
            (a->isWrite() ? w : r) += 1;
        if (const MemAccess *a = ongoing_[b])
            (a->isWrite() ? w : r) += 1;
        reads.push_back(r);
        writes.push_back(w);
    }
}

} // namespace bsim::ctrl
