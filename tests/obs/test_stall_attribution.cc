/**
 * @file
 * Stall attribution unit tests: the classification priority (data
 * transfer beats command issue beats pending-data beats the scheduler's
 * cause), the telescoping identity, the per-bank breakdown, and the
 * determinism of the JSON export.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/json.hh"
#include "obs/stall_attribution.hh"

using namespace bsim;
using namespace bsim::dram;
using namespace bsim::obs;

namespace
{

StallAttribution
twoBankChannel()
{
    return StallAttribution(1, 2, {"ch0_r0_b0", "ch0_r0_b1"});
}

} // namespace

TEST(StallAttribution, ClassificationPriority)
{
    StallAttribution sa = twoBankChannel();

    // A read issues at 0 with its burst at [5, 9).
    sa.noteBurst(0, 5, 9, 1);
    sa.account(0, 0, true, StallCause::None); // prep_issue
    // 1-4: command slot idle, only the booked burst outstanding.
    for (Tick t = 1; t < 5; ++t)
        sa.account(0, t, false, StallCause::NoWork); // pending_data
    // 5-8: the bus streams; even an issuing slot counts as transfer.
    sa.account(0, 5, true, StallCause::None);
    for (Tick t = 6; t < 9; ++t)
        sa.account(0, t, false, StallCause::NoWork);
    // 9: nothing left at all.
    sa.account(0, 9, false, StallCause::NoWork);
    // 10: a timing stall passes through untouched.
    sa.account(0, 10, false, StallCause::TimingTRCD);

    EXPECT_EQ(sa.count(0, StallCause::PrepIssue), 1u);
    EXPECT_EQ(sa.count(0, StallCause::PendingData), 4u);
    EXPECT_EQ(sa.count(0, StallCause::DataTransfer), 4u);
    EXPECT_EQ(sa.count(0, StallCause::NoWork), 1u);
    EXPECT_EQ(sa.count(0, StallCause::TimingTRCD), 1u);
    EXPECT_EQ(sa.cycles(0), 11u);
}

TEST(StallAttribution, TelescopingIdentity)
{
    StallAttribution sa(2, 1, {"ch0_r0_b0", "ch1_r0_b0"});
    const StallCause causes[] = {StallCause::NoWork, StallCause::TimingTRP,
                                 StallCause::ArbLoss,
                                 StallCause::ThresholdGated};
    for (Tick t = 0; t < 1000; ++t)
        for (std::uint32_t ch = 0; ch < 2; ++ch)
            sa.account(ch, t, (t + ch) % 3 == 0, causes[(t + ch) % 4]);

    const auto totals = sa.totals();
    std::uint64_t sum = 0;
    for (auto n : totals)
        sum += n;
    EXPECT_EQ(sum, sa.cycles(0) + sa.cycles(1));
    for (std::uint32_t ch = 0; ch < 2; ++ch) {
        EXPECT_EQ(sa.cycles(ch), 1000u);
        std::uint64_t per = 0;
        for (std::size_t i = 0; i < kNumStallCauses; ++i)
            per += sa.count(ch, StallCause(i));
        EXPECT_EQ(per, sa.cycles(ch));
    }
}

TEST(StallAttribution, OverlappingBurstsExtendTheBusyHorizon)
{
    StallAttribution sa = twoBankChannel();
    // Back-to-back bursts [2, 6) and [6, 10): cycles 2-9 all transfer.
    sa.noteBurst(0, 2, 6, 1);
    sa.noteBurst(0, 6, 10, 2);
    for (Tick t = 0; t < 12; ++t)
        sa.account(0, t, false, StallCause::NoWork);
    EXPECT_EQ(sa.count(0, StallCause::DataTransfer), 8u);
    EXPECT_EQ(sa.count(0, StallCause::PendingData), 2u); // cycles 0-1
    EXPECT_EQ(sa.count(0, StallCause::NoWork), 2u);      // cycles 10-11
}

TEST(StallAttribution, BankBreakdownAppearsInJson)
{
    StallAttribution sa = twoBankChannel();
    sa.account(0, 0, false, StallCause::TimingTRP);
    sa.noteBankStall(0, 1, StallCause::TimingTRP);
    sa.noteBankStall(0, 1, StallCause::TimingTRP);

    std::ostringstream os;
    sa.writeJson(os);
    const auto v = parseJson(os.str());
    ASSERT_TRUE(v.has_value());
    const JsonValue &banks = *v->find("banks");
    ASSERT_EQ(banks.size(), 1u); // silent bank 0 omitted
    EXPECT_EQ(banks.array[0].find("bank")->string, "ch0_r0_b1");
    EXPECT_EQ(banks.array[0].find("causes")->find("t_rp")->number, 2.0);
}

TEST(StallAttribution, JsonIsDeterministic)
{
    auto run = [] {
        StallAttribution sa = twoBankChannel();
        sa.noteBurst(0, 3, 7, 1);
        for (Tick t = 0; t < 64; ++t)
            sa.account(0, t, t % 5 == 0,
                       t % 2 ? StallCause::TimingTRCD
                             : StallCause::NoWork);
        sa.noteBankStall(0, 0, StallCause::TimingTFAW);
        std::ostringstream os;
        sa.writeJson(os);
        return os.str();
    };
    EXPECT_EQ(run(), run());
}
