/// Tests for the simulation substrate: clock domains and the stats
/// registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "sim/clock.hpp"
#include "sim/stats.hpp"

namespace spatten {
namespace {

TEST(ClockDomain, Conversions)
{
    ClockDomain clk(1.0);
    EXPECT_DOUBLE_EQ(clk.toNs(1000), 1000.0);
    EXPECT_DOUBLE_EQ(clk.toSeconds(1000000000ULL), 1.0);
    EXPECT_EQ(clk.fromNs(10.0), 10u);

    ClockDomain hbm(2.0, "hbm");
    EXPECT_DOUBLE_EQ(hbm.toNs(1000), 500.0);
    EXPECT_EQ(hbm.fromNs(10.0), 20u);
}

TEST(ClockDomain, FromNsRoundsUp)
{
    ClockDomain clk(1.0);
    EXPECT_EQ(clk.fromNs(0.1), 1u);
    EXPECT_EQ(clk.fromNs(0.0), 0u);
}

TEST(StatSet, AddAndGet)
{
    StatSet s;
    s.add("x", 1.0);
    s.add("x", 2.0);
    EXPECT_DOUBLE_EQ(s.get("x"), 3.0);
    EXPECT_DOUBLE_EQ(s.get("missing"), 0.0);
    EXPECT_TRUE(s.has("x"));
    EXPECT_FALSE(s.has("missing"));
}

TEST(StatSet, SetOverwrites)
{
    StatSet s;
    s.add("x", 5.0);
    s.set("x", 1.0);
    EXPECT_DOUBLE_EQ(s.get("x"), 1.0);
}

TEST(StatSet, MergeSums)
{
    StatSet a, b;
    a.add("x", 1.0);
    b.add("x", 2.0);
    b.add("y", 3.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get("x"), 3.0);
    EXPECT_DOUBLE_EQ(a.get("y"), 3.0);
}

// Gauges (written via set(): utilizations, config echoes, reductions)
// must never be summed when result stats are merged into an aggregate —
// the regression was merge() treating every entry as a counter.
TEST(StatSet, MergeOverwritesGaugesInsteadOfSumming)
{
    StatSet a, b;
    a.set("pipeline.dram_reduction", 3.9);
    a.add("hbm.bytes_read", 100.0);
    b.set("pipeline.dram_reduction", 36.5);
    b.add("hbm.bytes_read", 50.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get("pipeline.dram_reduction"), 36.5)
        << "gauges adopt the merged-in value, never the sum";
    EXPECT_DOUBLE_EQ(a.get("hbm.bytes_read"), 150.0)
        << "counters still sum";
    EXPECT_TRUE(a.isGauge("pipeline.dram_reduction"));
    EXPECT_FALSE(a.isGauge("hbm.bytes_read"));
}

TEST(StatSet, AddAfterSetReclassifiesAsCounter)
{
    StatSet a, b;
    a.set("x", 1.0);
    a.add("x", 2.0); // Latest write style wins: x is a counter again.
    EXPECT_FALSE(a.isGauge("x"));
    b.add("x", 4.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get("x"), 7.0) << "counters sum on merge";
}

TEST(StatSet, MergingCounterOverGaugeReclassifiesAsCounter)
{
    StatSet a, b;
    a.set("x", 1.0);
    b.add("x", 2.0);
    a.merge(b); // Counter merged over a gauge: latest write style wins.
    EXPECT_DOUBLE_EQ(a.get("x"), 3.0);
    EXPECT_FALSE(a.isGauge("x"))
        << "a merged-in counter must clear the stale gauge mark";
}

TEST(StatSet, MergingGaugeIntoCounterlessSetKeepsGaugeKind)
{
    StatSet a, b;
    b.set("util", 0.5);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get("util"), 0.5);
    EXPECT_TRUE(a.isGauge("util"));
    StatSet c;
    c.set("util", 0.7);
    a.merge(c);
    EXPECT_DOUBLE_EQ(a.get("util"), 0.7);
}

TEST(StatSet, ToStringContainsNames)
{
    StatSet s;
    s.add("alpha", 1.0);
    const std::string out = s.toString();
    EXPECT_NE(out.find("alpha"), std::string::npos);
}

TEST(StatSet, InternedAndStringWritesShareEntriesInNameOrder)
{
    // Insertion order and write style (interned StatName or plain
    // string) never change the entries or their name order.
    static const StatName kZeta("zeta");
    StatSet a;
    a.add(kZeta, 1.0);
    a.set("mid", 2.0);
    a.add("alpha", 3.0);
    a.add("zeta", 4.0);
    StatSet b;
    b.add("alpha", 3.0);
    b.set(StatName("mid"), 2.0);
    b.add("zeta", 5.0);

    std::vector<std::pair<std::string, double>> rows_a, rows_b;
    for (const auto& [name, value] : a.all())
        rows_a.emplace_back(name, value);
    for (const auto& [name, value] : b.all())
        rows_b.emplace_back(name, value);
    const std::vector<std::pair<std::string, double>> want = {
        {"alpha", 3.0}, {"mid", 2.0}, {"zeta", 5.0}};
    EXPECT_EQ(rows_a, want);
    EXPECT_EQ(rows_b, want);
    EXPECT_TRUE(a.isGauge("mid"));
    EXPECT_FALSE(a.isGauge("zeta"));

    // Gauge writes of one name through both styles overwrite one entry.
    b.set("zeta", 7.0);
    b.set(kZeta, 8.0);
    EXPECT_EQ(b.all().size(), 3u);
    EXPECT_DOUBLE_EQ(b.get("zeta"), 8.0);
    EXPECT_TRUE(b.isGauge("zeta"));
}

using Rows = std::vector<std::tuple<std::string, double, bool>>;

/// (name, value, gauge) rows of @p s in name order.
Rows
statRows(const StatSet& s)
{
    Rows rows;
    for (const auto& [name, value] : s.all())
        rows.emplace_back(name, value, s.isGauge(name));
    return rows;
}

/// A set built along one fixed write path, so copies of it and other
/// sets built the same way share one interned layout.
StatSet
sharedLayoutSet()
{
    StatSet s;
    s.add("layout.counter", 1.0);
    s.set("layout.gauge", 2.0);
    return s;
}

TEST(StatSet, SetsSharingALayoutChangeIndependently)
{
    const Rows base = {{"layout.counter", 1.0, false},
                       {"layout.gauge", 2.0, true}};

    // A new key in one set.
    StatSet a = sharedLayoutSet(), b = sharedLayoutSet();
    a.add("layout.extra", 3.0);
    EXPECT_EQ(statRows(b), base);
    EXPECT_EQ(statRows(a), (Rows{{"layout.counter", 1.0, false},
                                 {"layout.extra", 3.0, false},
                                 {"layout.gauge", 2.0, true}}));

    // Gauge -> counter through add().
    StatSet c = sharedLayoutSet();
    c.add("layout.gauge", 1.0);
    EXPECT_EQ(statRows(c), (Rows{{"layout.counter", 1.0, false},
                                 {"layout.gauge", 3.0, false}}));
    EXPECT_EQ(statRows(b), base);

    // Counter -> gauge through set().
    StatSet d = sharedLayoutSet();
    d.set("layout.counter", 5.0);
    EXPECT_EQ(statRows(d), (Rows{{"layout.counter", 5.0, true},
                                 {"layout.gauge", 2.0, true}}));
    EXPECT_EQ(statRows(b), base);

    // A kind adopted through merge(): the merged-in counter turns e's
    // gauge into a counter; e's other key keeps its kind.
    StatSet e = sharedLayoutSet();
    StatSet other;
    other.add("layout.gauge", 4.0);
    e.merge(other);
    EXPECT_EQ(statRows(e), (Rows{{"layout.counter", 1.0, false},
                                 {"layout.gauge", 6.0, false}}));
    EXPECT_EQ(statRows(b), base);

    // Value writes to existing keys stay private to each copy.
    StatSet f = b;
    f.add("layout.counter", 10.0);
    f.set("layout.gauge", 20.0);
    EXPECT_EQ(statRows(b), base);
    EXPECT_EQ(statRows(f), (Rows{{"layout.counter", 11.0, false},
                                 {"layout.gauge", 20.0, true}}));
}

TEST(StatSet, SelfMergeDoublesCountersAndKeepsGauges)
{
    StatSet s = sharedLayoutSet();
    s.add("layout.more", 0.25);
    s.merge(s);
    EXPECT_DOUBLE_EQ(s.get("layout.counter"), 2.0);
    EXPECT_DOUBLE_EQ(s.get("layout.more"), 0.5);
    EXPECT_DOUBLE_EQ(s.get("layout.gauge"), 2.0);
    EXPECT_TRUE(s.isGauge("layout.gauge"));
    EXPECT_FALSE(s.isGauge("layout.counter"));
}

TEST(StatSet, ClearResetsTheSet)
{
    StatSet s = sharedLayoutSet();
    s.clear();
    EXPECT_EQ(s.all().size(), 0u);
    EXPECT_FALSE(s.has("layout.counter"));
    EXPECT_DOUBLE_EQ(s.get("layout.gauge"), 0.0);
    EXPECT_EQ(s.toString(), "");
    // Reusable from empty: the old keys do not come back.
    s.add("layout.gauge", 1.0);
    EXPECT_EQ(statRows(s), (Rows{{"layout.gauge", 1.0, false}}));
}

// A copy shares its source's value block; the first write to either
// side copies it, so the other side keeps exactly its old values and
// kinds. Each mutator runs once on the source and once on the copy,
// and must leave the mutated side as it leaves an unshared set.
TEST(StatSet, CopyOnWriteLeavesTheOtherSideUntouched)
{
    static const StatName kCounter("layout.counter");
    static const StatName kGauge("layout.gauge");
    using Mutation = std::pair<const char*, void (*)(StatSet&, StatSet&)>;
    const std::vector<Mutation> mutations = {
        {"add", [](StatSet& s, StatSet&) { s.add("layout.counter", 0.25); }},
        {"add(StatName)", [](StatSet& s, StatSet&) { s.add(kCounter, 4.0); }},
        {"set", [](StatSet& s, StatSet&) { s.set("layout.gauge", 9.0); }},
        {"set(StatName)", [](StatSet& s, StatSet&) { s.set(kGauge, -0.0); }},
        {"new key", [](StatSet& s, StatSet&) { s.add("layout.fresh", 3.0); }},
        {"kind change",
         [](StatSet& s, StatSet&) { s.set("layout.counter", 5.0); }},
        {"merge into",
         [](StatSet& s, StatSet&) {
             StatSet in;
             in.add("layout.counter", 0.5);
             in.set("layout.donor", 7.0);
             s.merge(in);
         }},
        {"merge from its sharer",
         [](StatSet& s, StatSet& sharer) { s.merge(sharer); }},
        {"self-merge", [](StatSet& s, StatSet&) { s.merge(s); }},
        {"reserve", [](StatSet& s, StatSet&) { s.reserve(64); }},
        {"clear", [](StatSet& s, StatSet&) { s.clear(); }},
    };
    const Rows base = statRows(sharedLayoutSet());
    for (const auto& [what, mutate] : mutations) {
        for (const bool on_copy : {false, true}) {
            StatSet source = sharedLayoutSet();
            StatSet copy = source;
            ASSERT_TRUE(copy.sharesValuesWith(source)) << what;
            StatSet& target = on_copy ? copy : source;
            StatSet& other = on_copy ? source : copy;

            StatSet alone = sharedLayoutSet();
            StatSet alone_sharer = sharedLayoutSet();
            mutate(alone, alone_sharer);
            mutate(target, other);

            EXPECT_EQ(statRows(other), base) << what << " on_copy=" << on_copy;
            EXPECT_EQ(statRows(target), statRows(alone))
                << what << " on_copy=" << on_copy;
            EXPECT_FALSE(target.sharesValuesWith(other)) << what;
            EXPECT_TRUE(target.sameValues(alone)) << what;
        }
    }
}

// Both sides stay independent over a chain of writes: a set copied,
// written, copied again and written again never shows another's write.
TEST(StatSet, CopiesOfCopiesStayIndependent)
{
    StatSet a = sharedLayoutSet();
    StatSet b = a;
    StatSet c = b;
    b.add("layout.counter", 1.0);
    StatSet d = b;
    d.set("layout.gauge", 8.0);
    c.add("layout.more", 2.0);
    EXPECT_EQ(statRows(a), statRows(sharedLayoutSet()));
    EXPECT_DOUBLE_EQ(b.get("layout.counter"), 2.0);
    EXPECT_DOUBLE_EQ(b.get("layout.gauge"), 2.0);
    EXPECT_DOUBLE_EQ(d.get("layout.counter"), 2.0);
    EXPECT_DOUBLE_EQ(d.get("layout.gauge"), 8.0);
    EXPECT_EQ(statRows(c), (Rows{{"layout.counter", 1.0, false},
                                 {"layout.gauge", 2.0, true},
                                 {"layout.more", 2.0, false}}));
    // Assignment shares; moving hands the block over.
    a = d;
    EXPECT_TRUE(a.sharesValuesWith(d));
    StatSet e = std::move(a);
    EXPECT_TRUE(e.sharesValuesWith(d));
    EXPECT_EQ(statRows(e), statRows(d));
}

// sameValues() is exact bit equality of (layout, values), and
// valueHash() agrees with it: -0.0 and +0.0 differ, a NaN matches only
// the same NaN bits, and a set matches a copy and an equal rebuild.
TEST(StatSet, SameValuesComparesLayoutAndValueBits)
{
    const auto with = [](double v) {
        StatSet s = sharedLayoutSet();
        s.set("layout.gauge", v);
        return s;
    };
    const StatSet a = with(1.5), b = with(1.5);
    EXPECT_FALSE(a.sharesValuesWith(b));
    EXPECT_TRUE(a.sameValues(b));
    EXPECT_EQ(a.valueHash(), b.valueHash());
    EXPECT_TRUE(a.sameValues(StatSet(a)));
    EXPECT_FALSE(with(0.0).sameValues(with(-0.0)));
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(with(nan).sameValues(with(nan)));
    EXPECT_EQ(with(nan).valueHash(), with(nan).valueHash());
    EXPECT_FALSE(with(nan).sameValues(with(-nan)));
    // Equal values under another layout (a counter, not a gauge).
    StatSet counter = sharedLayoutSet();
    counter.add("layout.gauge", -0.5);
    EXPECT_FALSE(counter.sameValues(a));
    EXPECT_TRUE(StatSet().sameValues(StatSet()));
    StatSet cleared = a;
    cleared.clear();
    EXPECT_TRUE(cleared.sameValues(StatSet()));
}

// ---------------------------------------------------------------------
// sortedQuantile: linear interpolation between adjacent ranks
// ---------------------------------------------------------------------

TEST(SortedQuantile, EmptyAndSingleton)
{
    EXPECT_DOUBLE_EQ(sortedQuantile({}, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(sortedQuantile({7.0}, 0.0), 7.0);
    EXPECT_DOUBLE_EQ(sortedQuantile({7.0}, 0.5), 7.0);
    EXPECT_DOUBLE_EQ(sortedQuantile({7.0}, 1.0), 7.0);
}

TEST(SortedQuantile, MedianInterpolatesEvenSamples)
{
    EXPECT_DOUBLE_EQ(sortedQuantile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
    EXPECT_DOUBLE_EQ(sortedQuantile({1.0, 2.0, 3.0}, 0.5), 2.0);
}

TEST(SortedQuantile, P99InterpolatesSmallSamples)
{
    // 10 samples: rank = 0.99 * 9 = 8.91 -> between the 9th and 10th
    // order statistics, NOT the 9th (the old nearest-rank "p89" bug).
    std::vector<double> ten;
    for (int i = 1; i <= 10; ++i)
        ten.push_back(static_cast<double>(i));
    EXPECT_NEAR(sortedQuantile(ten, 0.99), 9.91, 1e-12);
    EXPECT_GT(sortedQuantile(ten, 0.99), ten[8])
        << "p99 of 10 samples must exceed the 9th order statistic";

    // 64 samples (one per request of the serving bench trace):
    // rank = 0.99 * 63 = 62.37 -> 63.37 over the values 1..64, strictly
    // above the old nearest-rank answer of 62 (~p98.4).
    std::vector<double> sixty_four;
    for (int i = 1; i <= 64; ++i)
        sixty_four.push_back(static_cast<double>(i));
    EXPECT_NEAR(sortedQuantile(sixty_four, 0.99), 63.37, 1e-12);
}

TEST(SortedQuantile, ExtremesAndClamping)
{
    const std::vector<double> v{1.0, 5.0, 9.0};
    EXPECT_DOUBLE_EQ(sortedQuantile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(sortedQuantile(v, 1.0), 9.0);
    EXPECT_DOUBLE_EQ(sortedQuantile(v, -0.5), 1.0);
    EXPECT_DOUBLE_EQ(sortedQuantile(v, 1.5), 9.0);
}

TEST(SortedQuantile, MonotoneInQ)
{
    const std::vector<double> v{0.5, 1.0, 2.0, 4.0, 8.0, 16.0};
    double prev = sortedQuantile(v, 0.0);
    for (double q = 0.05; q <= 1.0; q += 0.05) {
        const double cur = sortedQuantile(v, q);
        EXPECT_GE(cur, prev);
        prev = cur;
    }
}

// ---------------------------------------------------------------------
// selectQuantiles: exact selection, bit-identical to the sorted copy
// ---------------------------------------------------------------------

std::uint64_t
bitsOf(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

constexpr std::array<double, 4> kSelectQs{0.0, 0.5, 0.99, 1.0};

/// Selection over @p samples (never sorted) against sortedQuantile
/// over a sorted copy, compared bit for bit at every q in kSelectQs.
void
expectSelectionMatchesSort(const std::vector<double>& samples,
                           const char* what)
{
    const auto got = selectQuantiles(
        samples.size(), kSelectQs, [&](const auto& visit) {
            for (const double v : samples)
                visit(v);
        });
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t m = 0; m < kSelectQs.size(); ++m) {
        const double want = sortedQuantile(sorted, kSelectQs[m]);
        EXPECT_EQ(bitsOf(got[m]), bitsOf(want))
            << what << " q=" << kSelectQs[m] << ": " << got[m] << " vs "
            << want;
    }
}

TEST(SelectQuantiles, EmptySampleYieldsZero)
{
    expectSelectionMatchesSort({}, "empty");
    const auto got = selectQuantiles(0, kSelectQs, [](const auto&) {});
    for (const double v : got)
        EXPECT_EQ(bitsOf(v), bitsOf(0.0));
}

TEST(SelectQuantiles, SingletonAndAllEqual)
{
    expectSelectionMatchesSort({7.25}, "one element");
    expectSelectionMatchesSort({-3.5}, "one negative element");
    expectSelectionMatchesSort(std::vector<double>(257, 1e-4), "all equal");
}

TEST(SelectQuantiles, ManyTiesAndPositiveZero)
{
    // A staircase of a few distinct values, like the decode gaps of a
    // memoized step: most ranks land inside a run of equal values.
    Prng rng(0x7135);
    std::vector<double> stairs;
    for (int i = 0; i < 1000; ++i)
        stairs.push_back(1e-4 * static_cast<double>(1 + rng.below(4)));
    expectSelectionMatchesSort(stairs, "many ties");

    // +0.0 is what t - t gives: a zero gap or an unqueued admission.
    std::vector<double> zeros(50, 0.0);
    for (int i = 0; i < 50; ++i)
        zeros.push_back(rng.uniform(0.0, 1e-3));
    expectSelectionMatchesSort(zeros, "half +0.0");
    expectSelectionMatchesSort({0.0, 0.0, 0.0}, "all +0.0");
}

TEST(SelectQuantiles, RandomSamples)
{
    Prng rng(0x5e1ec7);
    for (const std::size_t n : {2u, 3u, 10u, 64u, 101u, 4096u}) {
        std::vector<double> wide, signed_mixed;
        for (std::size_t i = 0; i < n; ++i) {
            // Magnitudes over 30 decades, so the exponent digits as
            // well as the mantissa digits decide the order.
            wide.push_back(std::pow(10.0, rng.uniform(-15.0, 15.0)));
            signed_mixed.push_back(rng.gaussian(0.0, 1e-3));
        }
        expectSelectionMatchesSort(wide, "log-uniform");
        expectSelectionMatchesSort(signed_mixed, "signed gaussian");
    }
}

TEST(SelectQuantiles, OrderedBitsPreserveOrderAndRoundTrip)
{
    const std::vector<double> ascending{
        -std::numeric_limits<double>::infinity(),
        -1e300,
        -1.0,
        -std::numeric_limits<double>::denorm_min(),
        -0.0,
        0.0,
        std::numeric_limits<double>::denorm_min(),
        1e-300,
        1.0,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::infinity()};
    for (std::size_t i = 0; i < ascending.size(); ++i) {
        EXPECT_EQ(bitsOf(fromOrderedBits(orderedBits(ascending[i]))),
                  bitsOf(ascending[i]));
        if (i > 0) {
            EXPECT_LT(orderedBits(ascending[i - 1]),
                      orderedBits(ascending[i]));
        }
    }
}

// ---------------------------------------------------------------------
// maxOverlap: the peak of half-open intervals
// ---------------------------------------------------------------------

/// The (time, +/-1) event sweep maxOverlap replaces: ends sort before
/// starts at equal times.
std::size_t
eventSweepPeak(const std::vector<std::pair<double, double>>& intervals)
{
    std::vector<std::pair<double, int>> events;
    for (const auto& [start, end] : intervals) {
        events.emplace_back(start, +1);
        events.emplace_back(end, -1);
    }
    std::sort(events.begin(), events.end());
    std::ptrdiff_t depth = 0, peak = 0;
    for (const auto& [time, delta] : events) {
        depth += delta;
        peak = std::max(peak, depth);
    }
    return static_cast<std::size_t>(peak);
}

TEST(MaxOverlap, HalfOpenIntervals)
{
    using Intervals = std::vector<std::pair<double, double>>;
    Intervals none;
    EXPECT_EQ(maxOverlap(none), 0u);
    Intervals empty{{1.0, 1.0}, {1.0, 1.0}};
    EXPECT_EQ(maxOverlap(empty), 0u);
    Intervals touching{{1.0, 2.0}, {0.0, 1.0}, {2.0, 3.0}};
    EXPECT_EQ(maxOverlap(touching), 1u);
    Intervals nested{{0.0, 10.0}, {1.0, 2.0}, {1.5, 3.0}, {2.0, 2.0}};
    EXPECT_EQ(maxOverlap(nested), 3u);
}

TEST(MaxOverlap, MatchesEventSweep)
{
    // Integer times make ties common: equal starts, equal ends, an end
    // meeting a start, and zero-length intervals.
    Prng rng(0x0de7);
    for (int round = 0; round < 200; ++round) {
        std::vector<std::pair<double, double>> intervals;
        const std::uint64_t n = rng.below(40);
        for (std::uint64_t i = 0; i < n; ++i) {
            const auto start = static_cast<double>(rng.below(20));
            const auto len = static_cast<double>(rng.below(6));
            intervals.emplace_back(start, start + len);
        }
        const std::size_t want = eventSweepPeak(intervals);
        EXPECT_EQ(maxOverlap(intervals), want) << "round " << round;
    }
}

} // namespace
} // namespace spatten
