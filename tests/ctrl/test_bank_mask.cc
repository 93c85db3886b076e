/**
 * @file
 * BankMask: the bank sets the incremental arbiters keep. Visit order is
 * what keeps first-wins tie-breaking identical to the full scans, so it
 * is pinned here, across word boundaries too (channels may hold more
 * than 64 banks).
 */

#include <gtest/gtest.h>

#include <vector>

#include "ctrl/bank_mask.hh"

using bsim::ctrl::BankMask;

namespace
{

std::vector<std::uint32_t>
roundRobin(const BankMask &a, const BankMask &b, std::uint32_t start)
{
    std::vector<std::uint32_t> seen;
    BankMask::anyFrom(a, b, start, [&](std::uint32_t x) {
        seen.push_back(x);
        return false;
    });
    return seen;
}

} // namespace

TEST(BankMask, SetAllCoversExactlyTheBanks)
{
    for (std::uint32_t n : {1u, 16u, 64u, 65u, 130u}) {
        BankMask m(n);
        EXPECT_FALSE(m.any());
        m.setAll();
        EXPECT_EQ(m.count(), n);
        std::uint32_t next = 0;
        m.forEach([&](std::uint32_t b) { EXPECT_EQ(b, next++); });
        EXPECT_EQ(next, n);
        m.clear();
        EXPECT_FALSE(m.any());
    }
}

TEST(BankMask, AnyOfStopsAtTheFirstMatchInAscendingOrder)
{
    BankMask m(130);
    for (std::uint32_t b : {3u, 64u, 70u, 129u})
        m.set(b);
    std::vector<std::uint32_t> seen;
    EXPECT_TRUE(m.anyOf([&](std::uint32_t b) {
        seen.push_back(b);
        return b >= 64;
    }));
    EXPECT_EQ(seen, (std::vector<std::uint32_t>{3, 64}));
    m.reset(64);
    EXPECT_FALSE(m.test(64));
    EXPECT_EQ(m.count(), 3u);
}

TEST(BankMask, AnyFromVisitsTheUnionRoundRobin)
{
    BankMask a(130), b(130);
    for (std::uint32_t x : {1u, 63u, 100u})
        a.set(x);
    for (std::uint32_t x : {0u, 64u, 100u, 129u})
        b.set(x);
    EXPECT_EQ(roundRobin(a, b, 64),
              (std::vector<std::uint32_t>{64, 100, 129, 0, 1, 63}));
    EXPECT_EQ(roundRobin(a, b, 0),
              (std::vector<std::uint32_t>{0, 1, 63, 64, 100, 129}));
    EXPECT_EQ(roundRobin(a, b, 101),
              (std::vector<std::uint32_t>{129, 0, 1, 63, 64, 100}));

    BankMask c(16), d(16);
    c.set(5);
    d.set(2);
    EXPECT_EQ(roundRobin(c, d, 5), (std::vector<std::uint32_t>{5, 2}));
    EXPECT_EQ(roundRobin(c, d, 6), (std::vector<std::uint32_t>{2, 5}));
}
