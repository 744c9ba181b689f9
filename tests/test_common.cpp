/// Unit tests for the common substrate: PRNG determinism/statistics,
/// string formatting, and math helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <set>

#include "common/logging.hpp"
#include "common/math_util.hpp"
#include "common/prng.hpp"

namespace spatten {
namespace {

TEST(Prng, DeterministicAcrossInstances)
{
    Prng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Prng, DifferentSeedsDiffer)
{
    Prng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a() == b());
    EXPECT_LT(same, 4);
}

TEST(Prng, ReseedRestoresStream)
{
    Prng a(7);
    const auto x0 = a();
    const auto x1 = a();
    a.reseed(7);
    EXPECT_EQ(a(), x0);
    EXPECT_EQ(a(), x1);
}

TEST(Prng, UniformRange)
{
    Prng p(3);
    for (int i = 0; i < 1000; ++i) {
        const double u = p.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Prng, UniformMeanNearHalf)
{
    Prng p(11);
    double s = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        s += p.uniform();
    EXPECT_NEAR(s / n, 0.5, 0.01);
}

TEST(Prng, BelowIsInRangeAndHitsAll)
{
    Prng p(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i) {
        const auto x = p.below(7);
        EXPECT_LT(x, 7u);
        seen.insert(x);
    }
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Prng, RangeInclusive)
{
    Prng p(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto x = p.range(-3, 3);
        EXPECT_GE(x, -3);
        EXPECT_LE(x, 3);
        saw_lo |= (x == -3);
        saw_hi |= (x == 3);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

// Raw output pinned from seed 0x5eed: every trace, prompt and
// synthetic tensor in the repo is a function of these streams, so a
// rewrite of the generator (inlining, a faster bounded draw) must
// reproduce them bit for bit.
TEST(Prng, RawOutputGolden)
{
    const std::uint64_t next[] = {
        0xef33f17055244b74ULL, 0xe1f591112fb5051bULL, 0xd8ab05640214863aULL,
        0xf985e1f2fb897b03ULL, 0xaf87a5f7e6ce1408ULL, 0x86f28e3a0746ff9eULL,
        0x4e1acb1dbe288cacULL, 0x6c13fd25a3155716ULL};
    const std::uint64_t uniform_bits[] = {
        0x3fede67e2e0aa489ULL, 0x3fec3eb22225f6a0ULL, 0x3feb1560ac804290ULL,
        0x3fef30bc3e5f712fULL, 0x3fe5f0f4befcd9c2ULL, 0x3fe0de51c740e8dfULL,
        0x3fd386b2c76f8a22ULL, 0x3fdb04ff4968c554ULL};
    Prng raw(0x5eed), uni(0x5eed);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(raw(), next[i]) << "draw " << i;
        const double u = uni.uniform();
        std::uint64_t bits = 0;
        std::memcpy(&bits, &u, sizeof bits);
        EXPECT_EQ(bits, uniform_bits[i]) << "draw " << i;
    }
}

/// Bounds spanning the rejection regimes: none possible (1), rare
/// (small n, 2^32+1), about half of all draws (2^63+1) and UINT64_MAX.
const std::uint64_t kBelowBounds[] = {1,
                                      3,
                                      17,
                                      193,
                                      (1ULL << 32) + 1,
                                      (1ULL << 63) + 1,
                                      UINT64_MAX};

TEST(Prng, BelowGolden)
{
    const std::uint64_t golden[][8] = {
        {0, 0, 0, 0, 0, 0, 0, 0},
        {1, 1, 1, 1, 1, 1, 2, 2},
        {3, 8, 9, 3, 13, 12, 11, 13},
        {62, 170, 64, 149, 129, 32, 118, 106},
        {0x65f05a05ULL, 0x4dbf740bULL, 0x296980d7ULL, 0x02039911ULL,
         0x37466e11ULL, 0x80547165ULL, 0x700dc18fULL, 0x370159f1ULL},
        // The first six raw draws of the seed are rejected here.
        {0x4e1acb1dbe288cacULL, 0x6c13fd25a3155716ULL, 0x2cbcaebe58709106ULL,
         0x4f5dd53950ae0901ULL, 0x3f4c13e909495775ULL, 0x4cb6620fc1a9525cULL,
         0x6305ca72e745f365ULL, 0x73c2ea788c42310bULL},
        {0xef33f17055244b74ULL, 0xe1f591112fb5051bULL, 0xd8ab05640214863aULL,
         0xf985e1f2fb897b03ULL, 0xaf87a5f7e6ce1408ULL, 0x86f28e3a0746ff9eULL,
         0x4e1acb1dbe288cacULL, 0x6c13fd25a3155716ULL},
    };
    for (std::size_t b = 0; b < std::size(kBelowBounds); ++b) {
        Prng p(0x5eed);
        for (int i = 0; i < 8; ++i)
            EXPECT_EQ(p.below(kBelowBounds[b]), golden[b][i])
                << "n " << kBelowBounds[b] << " draw " << i;
    }
}

TEST(Prng, FixedBoundMatchesBelowDrawForDraw)
{
    for (const std::uint64_t n : kBelowBounds) {
        const Prng::Bound bound(n);
        Prng a(0xb0), b(0xb0);
        for (int i = 0; i < 10000; ++i)
            ASSERT_EQ(a.below(bound), b.below(n)) << "n " << n << " draw " << i;
        // Same rejections consumed the same raw draws.
        EXPECT_EQ(a(), b()) << "n " << n;
    }
}

TEST(Prng, RangeOverTheFullInt64SpanIsARawDraw)
{
    // hi - lo + 1 is 2^64: the span is computed unsigned and wraps to
    // 0, which means "every value" -- one raw draw, no below(0).
    constexpr std::int64_t lo = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t hi = std::numeric_limits<std::int64_t>::max();
    Prng p(0x5eed), raw(0x5eed);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(p.range(lo, hi), static_cast<std::int64_t>(raw()));
    // Spans past INT64_MAX stay in bounds and reach both halves.
    bool negative = false, positive = false;
    for (int i = 0; i < 256; ++i) {
        const std::int64_t x = p.range(lo + 1, hi);
        EXPECT_GT(x, lo);
        negative |= x < 0;
        positive |= x > 0;
    }
    EXPECT_TRUE(negative);
    EXPECT_TRUE(positive);
    EXPECT_EQ(p.range(hi, hi), hi);
    EXPECT_EQ(p.range(lo, lo), lo);
}

TEST(Prng, GaussianMoments)
{
    Prng p(13);
    double s = 0.0, s2 = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double g = p.gaussian();
        s += g;
        s2 += g * g;
    }
    EXPECT_NEAR(s / n, 0.0, 0.02);
    EXPECT_NEAR(s2 / n, 1.0, 0.03);
}

TEST(Prng, GaussianShifted)
{
    Prng p(17);
    double s = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        s += p.gaussian(5.0, 0.5);
    EXPECT_NEAR(s / n, 5.0, 0.02);
}

TEST(Strfmt, FormatsLikePrintf)
{
    EXPECT_EQ(strfmt("x=%d y=%s", 3, "ab"), "x=3 y=ab");
    EXPECT_EQ(strfmt("%.2f", 1.5), "1.50");
    EXPECT_EQ(strfmt("plain"), "plain");
}

TEST(MathUtil, CeilDiv)
{
    EXPECT_EQ(ceilDiv(10, 3), 4);
    EXPECT_EQ(ceilDiv(9, 3), 3);
    EXPECT_EQ(ceilDiv(1, 512), 1);
    EXPECT_EQ(ceilDiv(0, 5), 0);
}

TEST(MathUtil, RoundUp)
{
    EXPECT_EQ(roundUp(10, 8), 16);
    EXPECT_EQ(roundUp(16, 8), 16);
}

TEST(MathUtil, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0);
    EXPECT_EQ(ceilLog2(2), 1);
    EXPECT_EQ(ceilLog2(3), 2);
    EXPECT_EQ(ceilLog2(1024), 10);
    EXPECT_EQ(ceilLog2(1025), 11);
}

TEST(MathUtil, IsPow2)
{
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(512));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(3));
}

TEST(MathUtil, ClampTo)
{
    EXPECT_EQ(clampTo(5, 0, 10), 5);
    EXPECT_EQ(clampTo(-1, 0, 10), 0);
    EXPECT_EQ(clampTo(11, 0, 10), 10);
}

} // namespace
} // namespace spatten
