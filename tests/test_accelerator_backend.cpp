/// The AcceleratorBackend serving contract: capability/capacity
/// reporting of all four backend types, dense-KV session semantics of
/// the baseline adapters (A3, MNNFast, platforms), the session protocol
/// every backend's sessions share (prefill entry points, the prefix
/// cap, misuse deaths), concurrent stat interning from sessions on
/// many threads, equivalence of one backend shared by every slot and
/// one backend per slot, heterogeneous SpAtten+A3 fleets end-to-end
/// (completion, thread-count bit-identity, KV pressure with per-type
/// budgets), capability-aware placement, the shard policy holding for
/// every admission under preemption (re-admissions included), and the
/// tie-break regression: permuting equal-load fleet
/// slots (distinct but identical backend instances) never changes
/// placement, because every selection point breaks ties by slot index,
/// never by instance identity.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "accel/decode_session.hpp"
#include "accel/spatten_accelerator.hpp"
#include "baselines/baseline_backends.hpp"
#include "serve/continuous_batch_scheduler.hpp"
#include "sim/stats.hpp"

namespace spatten {
namespace {

/// A small 4-layer model keeps each run to milliseconds of host time.
ModelSpec
tinyModel()
{
    return {"tiny", 4, 4, 64, 4};
}

WorkloadSpec
tinyWorkload(std::size_t prompt = 64, std::size_t output = 4)
{
    WorkloadSpec w;
    w.name = "tiny-backend";
    w.model = tinyModel();
    w.summarize_len = prompt;
    w.generate_len = output;
    return w;
}

ArrivalTraceConfig
tinyTraceConfig(std::size_t n = 16, std::uint64_t seed = 0x5eed)
{
    ArrivalTraceConfig tc;
    tc.num_requests = n;
    tc.mean_interarrival_s = 0.2e-3;
    tc.seed = seed;
    tc.model = tinyModel();
    tc.min_prompt = 48;
    tc.max_prompt = 160;
    tc.min_output = 2;
    tc.max_output = 8;
    return tc;
}

/// Every backend type under test, freshly constructed.
std::vector<std::shared_ptr<const AcceleratorBackend>>
allBackends()
{
    return {std::make_shared<const SpAttenAccelerator>(),
            std::make_shared<const A3Backend>(),
            std::make_shared<const MnnFastBackend>(),
            std::make_shared<const PlatformBackend>()};
}

// ---------------------------------------------------------------------
// Static contract: names, capabilities, capacities, KV widths
// ---------------------------------------------------------------------

TEST(AcceleratorBackend, CapabilityAndCapacityContract)
{
    const SpAttenAccelerator spatten;
    EXPECT_EQ(spatten.backendName(), "spatten");
    EXPECT_TRUE(spatten.capabilities().cascade_pruning);
    EXPECT_EQ(spatten.capacityBytes(),
              spatten.config().hbm.capacityBytes());
    EXPECT_EQ(spatten.kvBytesPerElem(), 2u);

    const A3Backend a3;
    EXPECT_EQ(a3.backendName(), "a3");
    EXPECT_FALSE(a3.capabilities().cascade_pruning);
    EXPECT_EQ(a3.capacityBytes(), kBaselineCapacityBytes);
    EXPECT_EQ(a3.kvBytesPerElem(), 2u);

    const MnnFastBackend mnnfast;
    EXPECT_EQ(mnnfast.backendName(), "mnnfast");
    EXPECT_FALSE(mnnfast.capabilities().cascade_pruning);

    const PlatformBackend gpu(PlatformSpec::titanXp());
    EXPECT_EQ(gpu.backendName(), "titan-xp");
    EXPECT_FALSE(gpu.capabilities().cascade_pruning);
    EXPECT_EQ(gpu.kvBytesPerElem(), 4u) << "fp32 platform KV";

    const A3Backend small_a3(A3Config{}, 1ull << 20);
    EXPECT_EQ(small_a3.capacityBytes(), 1ull << 20)
        << "capacity override must stick";
}

TEST(AcceleratorBackend, KvBytesPerTokenFollowsElemWidth)
{
    const ModelSpec m = tinyModel(); // 2*4*4*64 = 2048 elems per token.
    const A3Backend a3;
    const PlatformBackend gpu(PlatformSpec::titanXp());
    EXPECT_EQ(a3.kvBytesPerToken(m), 2048u * 2);
    EXPECT_EQ(gpu.kvBytesPerToken(m), 2048u * 4)
        << "fp32 KV charges double the fp16-equivalent layout";
}

// ---------------------------------------------------------------------
// Dense-KV baseline sessions
// ---------------------------------------------------------------------

} // namespace

/// Prints a backend parameter as its name. gtest's default shared_ptr
/// printer shows the heap address, which ctest test discovery bakes
/// into the case names, so they changed from one build to the next.
/// Declared in namespace spatten, not the anonymous one, so that
/// argument-dependent lookup finds it from gtest's printer.
static void
PrintTo(const std::shared_ptr<const AcceleratorBackend>& backend,
        std::ostream* os)
{
    *os << backend->backendName();
}

namespace {

class BaselineSessionTest
    : public ::testing::TestWithParam<
          std::shared_ptr<const AcceleratorBackend>>
{
};

INSTANTIATE_TEST_SUITE_P(
    Baselines, BaselineSessionTest,
    ::testing::Values(std::make_shared<const A3Backend>(),
                      std::make_shared<const MnnFastBackend>(),
                      std::make_shared<const PlatformBackend>(
                          PlatformSpec::titanXp()),
                      std::make_shared<const PlatformBackend>(
                          PlatformSpec::xeon())),
    [](const auto& param_info) {
        std::string name = param_info.param->backendName();
        for (char& c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST_P(BaselineSessionTest, DenseKvGrowsByExactlyOnePerStep)
{
    const auto& backend = GetParam();
    const WorkloadSpec w = tinyWorkload(64, 6);
    const auto s = backend->makeSession(w, PruningPolicy{}, 1);
    EXPECT_FALSE(s->prefilled());
    EXPECT_FALSE(s->done());
    EXPECT_GT(s->prefill(), 0.0);
    EXPECT_TRUE(s->prefilled());
    EXPECT_EQ(s->kvLength(), w.summarize_len)
        << "no prompt pruning on a dense-KV baseline";
    for (std::size_t t = 0; t < w.generate_len; ++t) {
        EXPECT_FALSE(s->done());
        EXPECT_GT(s->decodeStep(), 0.0);
        EXPECT_EQ(s->kvLength(), w.summarize_len + t + 1)
            << "dense KV grows by exactly one token per step";
    }
    EXPECT_TRUE(s->done());
    ASSERT_EQ(s->kvTrace().size(), w.generate_len + 1);
}

TEST_P(BaselineSessionTest, FinalizeIsCoherentAndShowsNoDramSavings)
{
    const auto& backend = GetParam();
    const WorkloadSpec w = tinyWorkload(96, 4);
    const auto s = backend->makeSession(w, PruningPolicy{}, 1);
    double elapsed = s->prefill();
    while (!s->done())
        elapsed += s->decodeStep();
    const RunResult r = s->finalize();
    EXPECT_EQ(r.workload, w.name);
    EXPECT_NEAR(r.seconds, elapsed, 1e-15);
    EXPECT_GT(r.summarize_seconds, 0.0);
    EXPECT_GT(r.generate_seconds, 0.0);
    EXPECT_NEAR(r.seconds, r.summarize_seconds + r.generate_seconds,
                1e-15);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.attention_flops, 0.0);
    EXPECT_LE(r.attention_flops, r.attention_flops_dense)
        << "executed work can only shrink vs dense";
    EXPECT_GT(r.dram_bytes, 0.0);
    EXPECT_DOUBLE_EQ(r.dramReduction(), 1.0)
        << "baselines fetch everything before pruning decisions";
    EXPECT_GT(r.energy.totalJ(), 0.0);
    EXPECT_NEAR(r.energy.seconds, r.seconds, 1e-15);
}

TEST_P(BaselineSessionTest, SessionsAreDeterministic)
{
    const auto& backend = GetParam();
    const WorkloadSpec w = tinyWorkload(80, 5);
    const auto run = [&] {
        const auto s = backend->makeSession(w, PruningPolicy{}, 7);
        std::vector<double> times{s->prefill()};
        while (!s->done())
            times.push_back(s->decodeStep());
        return std::make_pair(times, s->finalize());
    };
    const auto [ta, ra] = run();
    const auto [tb, rb] = run();
    EXPECT_EQ(ta, tb);
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.dram_bytes, rb.dram_bytes);
    EXPECT_EQ(ra.energy.totalJ(), rb.energy.totalJ());
}

TEST_P(BaselineSessionTest, SkipSummarizationChargesNoPrefill)
{
    const auto& backend = GetParam();
    WorkloadSpec w = tinyWorkload(96, 2);
    w.skip_summarization = true;
    const auto s = backend->makeSession(w, PruningPolicy{}, 1);
    EXPECT_EQ(s->prefill(), 0.0);
    EXPECT_EQ(s->kvLength(), w.summarize_len)
        << "the pre-summarized prompt KV is resident regardless";
    EXPECT_GT(s->decodeStep(), 0.0);
}

TEST_P(BaselineSessionTest, ZeroTokenRequestIsDoneAtPrefill)
{
    const auto& backend = GetParam();
    const WorkloadSpec w = tinyWorkload(48, 0);
    const auto s = backend->makeSession(w, PruningPolicy{}, 1);
    s->prefill();
    EXPECT_TRUE(s->done());
}

TEST(BaselineSessions, DecodeStepCostGrowsWithContext)
{
    // Dense attention: a later step attends to a strictly larger
    // context, so per-step cost is non-decreasing — the opposite of
    // SpAtten's pruned-KV trajectory.
    for (const auto& backend : {allBackends()[1], allBackends()[2]}) {
        const WorkloadSpec w = tinyWorkload(64, 8);
        const auto s = backend->makeSession(w, PruningPolicy{}, 1);
        s->prefill();
        double prev = 0.0;
        while (!s->done()) {
            const double step = s->decodeStep();
            EXPECT_GE(step, prev) << backend->backendName();
            prev = step;
        }
    }
}

using StatRow = std::tuple<std::string, double, bool>;

/// (name, value, gauge) rows of @p s in name order.
std::vector<StatRow>
rowsOf(const StatSet& s)
{
    std::vector<StatRow> rows;
    for (const auto& [name, value] : s.all())
        rows.emplace_back(name, value, s.isGauge(name));
    return rows;
}

/// One worker's stat registry: names every worker shares, names unique
/// to @p tid, and a finalized SpAtten session's stats merged on top.
std::vector<StatRow>
buildWorkerStats(std::size_t tid)
{
    StatSet s;
    for (std::size_t i = 0; i < 32; ++i) {
        const double v = static_cast<double>(tid * 100 + i);
        s.add("stat_race.shared." + std::to_string(i), v + 0.5);
        s.set("stat_race.worker" + std::to_string(tid) + "." +
                  std::to_string(i),
              v);
    }
    DecodeSession session(SpAttenConfig{}, tinyWorkload(64 + 16 * tid, 3),
                          PruningPolicy{}, tid);
    session.prefill();
    while (!session.done())
        session.decodeStep();
    s.merge(session.finalize().stats);
    s.add("stat_race.shared.0", 1.0);
    return rowsOf(s);
}

// StatSet names are interned in one process-wide table. Workers that
// intern fresh names concurrently (the shared ones racing each other)
// must each end up with exactly the single-threaded registry; under
// TSan this is the race check of the intern table and of the layouts'
// lock-free successor hints (every worker steps through the shared
// names and a finalized session's fixed path at once).
TEST(SessionStats, ConcurrentStatSetsMatchSingleThreadedReference)
{
    constexpr std::size_t kWorkers = 8;
    std::vector<std::vector<StatRow>> got(kWorkers);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kWorkers; ++t)
        threads.emplace_back([&got, t] { got[t] = buildWorkerStats(t); });
    for (auto& th : threads)
        th.join();
    // References run after the workers, so the workers are the ones
    // that interned the stat_race.* names.
    for (std::size_t t = 0; t < kWorkers; ++t) {
        const std::vector<StatRow> want = buildWorkerStats(t);
        ASSERT_EQ(got[t].size(), want.size()) << "worker " << t;
        EXPECT_TRUE(got[t] == want) << "worker " << t;
        EXPECT_TRUE(std::is_sorted(want.begin(), want.end()));
    }
}

// Copies of a finalized set share its value block and copy it on their
// first write. Workers that copy one set, write their copy and drop it
// while the others do the same must each see only their own writes,
// and the source must keep its values; then workers that are the only
// holders of one block race to write it, so the last to write finds it
// unshared and writes in place. Under TSan this is the race check of
// the block's reference count and of the uniqueness test before a
// write.
TEST(SessionStats, CopiesOfOneFinalizedSetWriteIndependentlyAcrossThreads)
{
    DecodeSession session(SpAttenConfig{}, tinyWorkload(64, 3),
                          PruningPolicy{}, 1);
    session.prefill();
    while (!session.done())
        session.decodeStep();
    const StatSet source = session.finalize().stats;
    const std::vector<StatRow> want = rowsOf(source);
    ASSERT_GE(want.size(), 2u);
    const std::string key = std::get<0>(want.front());
    const double base = std::get<1>(want.front());

    constexpr std::size_t kWorkers = 8;
    std::vector<std::size_t> wrong(kWorkers, 0);
    const auto check = [&wrong](std::size_t t, bool ok) {
        if (!ok)
            ++wrong[t];
    };
    const auto expect = [&check, &key, base](std::size_t t,
                                             const StatSet& mine) {
        check(t, mine.get(key) == base + static_cast<double>(t + 1));
        check(t, mine.get("stat_cow.worker") == static_cast<double>(t));
    };
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kWorkers; ++t)
        threads.emplace_back([&, t] {
            for (int round = 0; round < 100; ++round) {
                StatSet mine = source;
                const StatSet held = mine;
                check(t, mine.sharesValuesWith(source));
                mine.add(key, static_cast<double>(t + 1));
                mine.set("stat_cow.worker", static_cast<double>(t));
                expect(t, mine);
                check(t, !mine.sharesValuesWith(source));
                check(t, held.sharesValuesWith(source));
            }
        });
    for (auto& th : threads)
        th.join();
    threads.clear();

    for (int round = 0; round < 20; ++round) {
        StatSet fresh = session.finalize().stats;
        std::vector<StatSet> copies(kWorkers, fresh);
        fresh.clear(); // Only the workers hold the block now.
        for (std::size_t t = 0; t < kWorkers; ++t)
            threads.emplace_back([&, t] {
                check(t, rowsOf(copies[t]) == want);
                copies[t].add(key, static_cast<double>(t + 1));
                copies[t].set("stat_cow.worker", static_cast<double>(t));
                expect(t, copies[t]);
            });
        for (auto& th : threads)
            th.join();
        threads.clear();
    }
    for (std::size_t t = 0; t < kWorkers; ++t)
        EXPECT_EQ(wrong[t], 0u) << "worker " << t;
    EXPECT_TRUE(rowsOf(source) == want);
}

// ---------------------------------------------------------------------
// Session protocol conformance: every backend's sessions honour the
// same prefill entry points, prefix cap and misuse checks
// ---------------------------------------------------------------------

class SessionProtocolTest
    : public ::testing::TestWithParam<
          std::shared_ptr<const AcceleratorBackend>>
{
  protected:
    /// What one prefill + full decode of a session leaves observable.
    struct Outcome
    {
        double prefill_s = 0;
        std::vector<std::size_t> kv_trace;
        Cycles cycles = 0;
        double dram_bytes = 0;
        double energy_j = 0;
    };

    template <typename Prefill>
    Outcome serve(const WorkloadSpec& w, Prefill&& prefill) const
    {
        const auto s = open(w);
        Outcome o;
        o.prefill_s = prefill(*s);
        EXPECT_TRUE(s->prefilled());
        while (!s->done())
            s->decodeStep();
        o.kv_trace = s->kvTrace();
        const RunResult r = s->finalize();
        o.cycles = r.cycles;
        o.dram_bytes = r.dram_bytes;
        o.energy_j = r.energy.totalJ();
        return o;
    }

    static void expectSame(const Outcome& a, const Outcome& b,
                           const char* what)
    {
        EXPECT_EQ(a.prefill_s, b.prefill_s) << what;
        EXPECT_EQ(a.kv_trace, b.kv_trace) << what;
        EXPECT_EQ(a.cycles, b.cycles) << what;
        EXPECT_EQ(a.dram_bytes, b.dram_bytes) << what;
        EXPECT_EQ(a.energy_j, b.energy_j) << what;
    }

    std::unique_ptr<BackendSession> open(const WorkloadSpec& w) const
    {
        return GetParam()->makeSession(w, PruningPolicy{}, 3);
    }
};

INSTANTIATE_TEST_SUITE_P(
    AllBackends, SessionProtocolTest,
    ::testing::ValuesIn(allBackends()),
    [](const auto& param_info) {
        std::string name = param_info.param->backendName();
        for (char& c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST_P(SessionProtocolTest, PrefillEntryPointsAgree)
{
    const WorkloadSpec w = tinyWorkload(72, 4);
    const Outcome whole =
        serve(w, [](BackendSession& s) { return s.prefill(); });
    EXPECT_GT(whole.prefill_s, 0.0);
    expectSame(whole,
               serve(w,
                     [](BackendSession& s) {
                         return s.prefillWithCachedPrefix(0);
                     }),
               "prefillWithCachedPrefix(0)");
    expectSame(whole,
               serve(w,
                     [&w](BackendSession& s) {
                         return s.prefillChunk(0, w.summarize_len);
                     }),
               "prefillChunk(0, prompt)");
}

TEST_P(SessionProtocolTest, OversizedCachedPrefixRecomputesLastToken)
{
    const WorkloadSpec w = tinyWorkload(72, 4);
    const std::size_t p = w.summarize_len;
    const Outcome capped = serve(w, [p](BackendSession& s) {
        return s.prefillWithCachedPrefix(p - 1);
    });
    EXPECT_GT(capped.prefill_s, 0.0)
        << "a fully cached prompt still runs its last token";
    for (const std::size_t cached : {p, p + 1, 4 * p})
        expectSame(capped,
                   serve(w,
                         [cached](BackendSession& s) {
                             return s.prefillWithCachedPrefix(cached);
                         }),
                   "cached prefix >= prompt");
    expectSame(capped,
               serve(w,
                     [p](BackendSession& s) {
                         return s.prefillChunk(p - 1, 1);
                     }),
               "prefillChunk(prompt - 1, 1)");
}

TEST_P(SessionProtocolTest, MisuseDies)
{
    const WorkloadSpec w = tinyWorkload(64, 2);
    EXPECT_DEATH(
        {
            const auto s = open(w);
            s->prefill();
            s->prefill();
        },
        "prefill\\(\\) called twice");
    EXPECT_DEATH(
        {
            const auto s = open(w);
            s->prefillChunk(0, 16);
            s->prefillChunk(24, 8);
        },
        "non-contiguous chunk at 24 \\(expected 16\\)");
    EXPECT_DEATH(
        {
            const auto s = open(w);
            s->prefillChunk(60, 8);
        },
        "chunk \\[60, 68\\) outside the 64-token prompt");
    EXPECT_DEATH(
        {
            const auto s = open(w);
            s->prefill();
            s->prefillChunk(0, 8);
        },
        "prefillChunk\\(\\) after prefill completed");
    EXPECT_DEATH(
        {
            const auto s = open(w);
            s->decodeStep();
        },
        "decodeStep\\(\\) before prefill\\(\\)");
    EXPECT_DEATH(
        {
            const auto s = open(w);
            s->prefill();
            for (std::size_t t = 0; t <= w.generate_len; ++t)
                s->decodeStep();
        },
        "decodeStep\\(\\) past generate_len");
}

// ---------------------------------------------------------------------
// One backend shared by every slot == one backend per slot
// ---------------------------------------------------------------------

TEST(HeterogeneousFleet, SharedBackendMatchesPerSlotBackends)
{
    // Sessions carry all per-request state, so slots may share one
    // backend instance: the schedule must equal that of a fleet whose
    // slots each own a separately constructed, identical backend.
    const auto trace = generatePoissonTrace(tinyTraceConfig(16));
    ContinuousBatchConfig sc;
    sc.max_active = 4;
    const AcceleratorFleet shared(
        3, std::make_shared<const SpAttenAccelerator>());
    const ServeReport one_backend =
        ContinuousBatchScheduler(shared, sc).run(trace);

    AcceleratorFleet fleet;
    for (std::size_t a = 0; a < 3; ++a)
        fleet.push_back(std::make_shared<const SpAttenAccelerator>());
    const ServeReport per_slot =
        ContinuousBatchScheduler(fleet, sc).run(trace);

    ASSERT_EQ(per_slot.requests.size(), one_backend.requests.size());
    for (std::size_t i = 0; i < one_backend.requests.size(); ++i) {
        const ServedRequest& a = one_backend.requests[i];
        const ServedRequest& b = per_slot.requests[i];
        EXPECT_EQ(a.accel, b.accel);
        EXPECT_EQ(a.admit_s, b.admit_s);
        EXPECT_EQ(a.finish_s, b.finish_s);
        EXPECT_EQ(a.token_times_s, b.token_times_s);
        EXPECT_EQ(a.sim.cycles, b.sim.cycles);
        EXPECT_EQ(a.kv_trace, b.kv_trace);
    }
    EXPECT_EQ(one_backend.makespan_s, per_slot.makespan_s);
    EXPECT_EQ(one_backend.total_cycles, per_slot.total_cycles);
    EXPECT_EQ(per_slot.accel_names,
              (std::vector<std::string>{"spatten", "spatten", "spatten"}));
}

// ---------------------------------------------------------------------
// Mixed fleets end-to-end
// ---------------------------------------------------------------------

AcceleratorFleet
mixedFleet()
{
    return {std::make_shared<const SpAttenAccelerator>(
                SpAttenConfig::eighth()),
            std::make_shared<const SpAttenAccelerator>(
                SpAttenConfig::eighth()),
            std::make_shared<const A3Backend>()};
}

TEST(HeterogeneousFleet, MixedSpattenA3FleetServesEveryRequest)
{
    const auto trace = generatePoissonTrace(tinyTraceConfig(20));
    ContinuousBatchConfig sc;
    sc.max_active = 4;
    const ServeReport r =
        ContinuousBatchScheduler(mixedFleet(), sc).run(trace);
    EXPECT_EQ(r.accel_names,
              (std::vector<std::string>{"spatten", "spatten", "a3"}));
    std::size_t on_a3 = 0;
    for (const ServedRequest& req : r.requests) {
        EXPECT_EQ(req.phase, RequestPhase::Finished);
        EXPECT_EQ(req.tokens, trace[req.id].workload.generate_len);
        ASSERT_GE(req.accel, 0);
        ASSERT_LT(req.accel, 3);
        if (req.accel == 2) {
            ++on_a3;
            // A dense-KV slot: the KV trace grows by one per token.
            for (std::size_t t = 1; t < req.kv_trace.size(); ++t)
                EXPECT_EQ(req.kv_trace[t], req.kv_trace[t - 1] + 1);
        }
    }
    EXPECT_GT(on_a3, 0u) << "least-loaded must route work to every slot";
}

TEST(HeterogeneousFleet, MixedFleetBitIdenticalAcrossThreadCounts)
{
    const auto trace = generatePoissonTrace(tinyTraceConfig(16));
    ContinuousBatchConfig sc;
    sc.max_active = 4;
    sc.num_threads = 1;
    const auto fleet = mixedFleet();
    const ServeReport ref =
        ContinuousBatchScheduler(fleet, sc).run(trace);
    for (const std::size_t threads : {2u, 8u}) {
        sc.num_threads = threads;
        const ServeReport r =
            ContinuousBatchScheduler(fleet, sc).run(trace);
        EXPECT_EQ(r.makespan_s, ref.makespan_s);
        for (std::size_t i = 0; i < r.requests.size(); ++i) {
            EXPECT_EQ(r.requests[i].accel, ref.requests[i].accel);
            EXPECT_EQ(r.requests[i].finish_s, ref.requests[i].finish_s);
            EXPECT_EQ(r.requests[i].token_times_s,
                      ref.requests[i].token_times_s);
            EXPECT_EQ(r.requests[i].sim.cycles,
                      ref.requests[i].sim.cycles);
        }
    }
}

TEST(HeterogeneousFleet, PerSlotBudgetsDeriveFromEachBackend)
{
    const AcceleratorFleet fleet{
        std::make_shared<const SpAttenAccelerator>(),
        std::make_shared<const A3Backend>(A3Config{}, 3ull << 30)};
    ContinuousBatchConfig sc;
    const auto trace = generatePoissonTrace(tinyTraceConfig(4));
    const ServeReport r =
        ContinuousBatchScheduler(fleet, sc).run(trace);
    EXPECT_EQ(r.kv_capacity_bytes, 0u)
        << "no uniform budget exists for unequal capacities";
    ASSERT_EQ(r.accel_kv_capacity_bytes.size(), 2u);
    EXPECT_EQ(r.accel_kv_capacity_bytes[0],
              SpAttenConfig{}.hbm.capacityBytes());
    EXPECT_EQ(r.accel_kv_capacity_bytes[1], 3ull << 30);
}

TEST(HeterogeneousFleet, MixedFleetUnderKvPressurePreemptsAndFinishes)
{
    // Saturating dense-output demand under a budget sized 1.5x the
    // worst request at the widest KV element of the fleet (2 B here):
    // the dense-KV A3 slot must hit growth pressure and recover.
    auto tc = tinyTraceConfig(12);
    tc.mean_interarrival_s = 1e-6;
    tc.policy = PruningPolicy::disabled();
    tc.min_output = 16;
    tc.max_output = 32;
    const auto trace = generatePoissonTrace(tc);
    ContinuousBatchConfig sc;
    sc.max_active = 6;
    sc.kv_block_tokens = 4;
    sc.kv_capacity_bytes = kvBudgetForWorstRequest(trace, 1.5, sc, 2);
    const ServeReport r =
        ContinuousBatchScheduler(mixedFleet(), sc).run(trace);
    EXPECT_GE(r.preemptions, 1u)
        << "dense KV growth must outgrow the capped pools";
    for (const ServedRequest& req : r.requests) {
        EXPECT_EQ(req.phase, RequestPhase::Finished);
        EXPECT_EQ(req.tokens, trace[req.id].workload.generate_len);
    }
    for (std::size_t a = 0; a < r.kv_peak_bytes.size(); ++a)
        EXPECT_LE(r.kv_peak_bytes[a], sc.kv_capacity_bytes)
            << "no pool may exceed its budget";
}

TEST(HeterogeneousFleet, SparseTraceIdsAreServedByPosition)
{
    // A trace sliced out of a larger one keeps its original ids, so
    // ids need not be dense 0..n-1 positions: every internal structure
    // (round-robin pins, capability classes, KV preconditions) must
    // index by position, never by TracedRequest::id.
    const auto tiny = std::make_shared<const RequestTemplate>(
        RequestTemplate{tinyModel(), PruningPolicy{}});
    std::vector<TracedRequest> trace;
    for (std::size_t i = 0; i < 3; ++i) {
        TracedRequest req;
        req.id = 5 + 4 * i; // ids {5, 9, 13} in a 3-element trace.
        req.arrival_s = 1e-6 * static_cast<double>(i + 1);
        req.workload = {i == 0 ? std::size_t{192} : std::size_t{64}, 2};
        req.tmpl = tiny;
        req.seed = 17 + i;
        trace.push_back(req);
    }
    for (const ShardPolicy shard :
         {ShardPolicy::RoundRobin, ShardPolicy::LeastLoaded,
          ShardPolicy::CapabilityAware}) {
        ContinuousBatchConfig sc;
        sc.shard = shard;
        sc.long_prompt_threshold = 128;
        const ServeReport r =
            ContinuousBatchScheduler(mixedFleet(), sc).run(trace);
        ASSERT_EQ(r.requests.size(), trace.size());
        for (std::size_t i = 0; i < trace.size(); ++i) {
            EXPECT_EQ(r.requests[i].id, trace[i].id);
            EXPECT_EQ(r.requests[i].phase, RequestPhase::Finished);
            EXPECT_EQ(r.requests[i].tokens,
                      trace[i].workload.generate_len);
        }
    }
}

// ---------------------------------------------------------------------
// Capability-aware placement
// ---------------------------------------------------------------------

TEST(HeterogeneousFleet, CapabilityAwareKeepsLongPromptsOnPruningSlots)
{
    auto tc = tinyTraceConfig(24);
    tc.min_prompt = 32;
    tc.max_prompt = 256;
    const auto trace = generatePoissonTrace(tc);
    ContinuousBatchConfig sc;
    sc.max_active = 4;
    sc.shard = ShardPolicy::CapabilityAware;
    sc.long_prompt_threshold = 128;
    const auto fleet = mixedFleet(); // Slots 0-1 prune, slot 2 (a3) not.
    const ServeReport r = ContinuousBatchScheduler(fleet, sc).run(trace);
    bool any_long = false, any_on_a3 = false;
    for (const ServedRequest& req : r.requests) {
        EXPECT_EQ(req.phase, RequestPhase::Finished);
        const bool is_long =
            trace[req.id].workload.summarize_len >=
            sc.long_prompt_threshold;
        any_long |= is_long;
        any_on_a3 |= req.accel == 2;
        if (is_long) {
            EXPECT_LT(req.accel, 2)
                << "long prompt " << req.id
                << " must land on a cascade-pruning slot";
        }
    }
    EXPECT_TRUE(any_long) << "the probe trace must contain long prompts";
    EXPECT_TRUE(any_on_a3) << "short prompts must reach the dense slot";
}

TEST(HeterogeneousFleet, CapabilityAwareDegradesToLeastLoadedWithoutPruners)
{
    // An all-dense fleet has no pruning slot: every request is
    // short-class and the schedule must equal plain LeastLoaded.
    const auto trace = generatePoissonTrace(tinyTraceConfig(12));
    const AcceleratorFleet fleet(2,
                                 std::make_shared<const A3Backend>());
    ContinuousBatchConfig sc;
    sc.max_active = 2;
    sc.long_prompt_threshold = 1; // Everything would be "long".
    sc.shard = ShardPolicy::CapabilityAware;
    const ServeReport cap =
        ContinuousBatchScheduler(fleet, sc).run(trace);
    sc.shard = ShardPolicy::LeastLoaded;
    const ServeReport ll =
        ContinuousBatchScheduler(fleet, sc).run(trace);
    ASSERT_EQ(cap.requests.size(), ll.requests.size());
    for (std::size_t i = 0; i < cap.requests.size(); ++i) {
        EXPECT_EQ(cap.requests[i].accel, ll.requests[i].accel);
        EXPECT_EQ(cap.requests[i].finish_s, ll.requests[i].finish_s);
    }
}

// ---------------------------------------------------------------------
// Routing under preemption: re-admissions obey the shard policy too
// ---------------------------------------------------------------------

/// One admission as a fleet slot saw it: the slot and the request seed.
struct Admission
{
    std::size_t slot = 0;
    std::uint64_t seed = 0;
};

/// Forwards every call to @p inner and logs each makeSession() (one per
/// admission, re-admissions after a preemption included). Admission is
/// the coordinator's job, so the log is only written from one thread.
class RecordingBackend : public AcceleratorBackend
{
  public:
    RecordingBackend(std::shared_ptr<const AcceleratorBackend> inner,
                     std::size_t slot, std::vector<Admission>& log)
        : inner_(std::move(inner)), slot_(slot), log_(log)
    {
    }
    std::string backendName() const override
    {
        return inner_->backendName();
    }
    BackendCapabilities capabilities() const override
    {
        return inner_->capabilities();
    }
    std::uint64_t capacityBytes() const override
    {
        return inner_->capacityBytes();
    }
    std::size_t kvBytesPerElem() const override
    {
        return inner_->kvBytesPerElem();
    }
    std::unique_ptr<BackendSession>
    makeSession(const WorkloadSpec& workload, const PruningPolicy& policy,
                std::uint64_t request_seed) const override
    {
        log_.push_back({slot_, request_seed});
        return inner_->makeSession(workload, policy, request_seed);
    }
    void stepDecodeBatch(const std::vector<BackendSession*>& lanes,
                         std::vector<double>& seconds_out) const override
    {
        inner_->stepDecodeBatch(lanes, seconds_out);
    }

  private:
    std::shared_ptr<const AcceleratorBackend> inner_;
    std::size_t slot_;
    std::vector<Admission>& log_;
};

class RoutingUnderPreemptionTest
    : public ::testing::TestWithParam<ShardPolicy>
{
};

INSTANTIATE_TEST_SUITE_P(
    AllShards, RoutingUnderPreemptionTest,
    ::testing::Values(ShardPolicy::RoundRobin, ShardPolicy::LeastLoaded,
                      ShardPolicy::CapabilityAware),
    [](const auto& param_info) {
        switch (param_info.param) {
        case ShardPolicy::RoundRobin:
            return std::string("RoundRobin");
        case ShardPolicy::LeastLoaded:
            return std::string("LeastLoaded");
        case ShardPolicy::CapabilityAware:
            break;
        }
        return std::string("CapabilityAware");
    });

TEST_P(RoutingUnderPreemptionTest, EveryAdmissionLandsOnAnAllowedSlot)
{
    // Saturating dense demand with mixed prompt lengths on a KV-capped
    // SpAtten-1/8 x2 + A3 fleet: requests are preempted and re-admitted,
    // and each admission — first or repeated — must land on a slot the
    // shard policy allows for that request.
    auto tc = tinyTraceConfig(18);
    tc.mean_interarrival_s = 1e-6;
    tc.policy = PruningPolicy::disabled();
    tc.min_prompt = 32;
    tc.max_prompt = 256;
    tc.min_output = 16;
    tc.max_output = 32;
    const auto trace = generatePoissonTrace(tc);
    std::vector<std::pair<std::uint64_t, std::size_t>> by_seed;
    for (std::size_t i = 0; i < trace.size(); ++i)
        by_seed.emplace_back(trace[i].seed, i);
    std::sort(by_seed.begin(), by_seed.end());
    for (std::size_t k = 1; k < by_seed.size(); ++k)
        ASSERT_NE(by_seed[k].first, by_seed[k - 1].first)
            << "request seeds must identify requests";

    std::vector<Admission> log;
    AcceleratorFleet fleet;
    const auto inner = mixedFleet(); // Slots 0-1 prune, slot 2 (a3) not.
    for (std::size_t a = 0; a < inner.size(); ++a)
        fleet.push_back(
            std::make_shared<const RecordingBackend>(inner[a], a, log));
    ContinuousBatchConfig sc;
    sc.max_active = 6;
    sc.shard = GetParam();
    sc.long_prompt_threshold = 128;
    sc.kv_block_tokens = 4;
    sc.kv_capacity_bytes = kvBudgetForWorstRequest(trace, 1.5, sc, 2);
    const ServeReport r = ContinuousBatchScheduler(fleet, sc).run(trace);

    ASSERT_GE(r.preemptions, 1u) << "the scenario must have pressure";
    for (const ServedRequest& req : r.requests)
        EXPECT_EQ(req.phase, RequestPhase::Finished);
    ASSERT_EQ(log.size(), trace.size() + r.preemptions)
        << "one makeSession per admission";
    bool any_long = false;
    for (const Admission& adm : log) {
        const auto it = std::lower_bound(
            by_seed.begin(), by_seed.end(),
            std::make_pair(adm.seed, std::size_t{0}));
        ASSERT_TRUE(it != by_seed.end() && it->first == adm.seed);
        const std::size_t i = it->second;
        const bool is_long = trace[i].workload.summarize_len >=
                             sc.long_prompt_threshold;
        any_long |= is_long;
        switch (GetParam()) {
        case ShardPolicy::RoundRobin:
            // The trace arrives in id order: canonical position == i.
            EXPECT_EQ(adm.slot, i % fleet.size())
                << "request " << i << " left its round-robin slot";
            break;
        case ShardPolicy::LeastLoaded:
            EXPECT_LT(adm.slot, fleet.size());
            break;
        case ShardPolicy::CapabilityAware:
            if (is_long) {
                EXPECT_LT(adm.slot, 2u)
                    << "long prompt " << i
                    << " admitted on the non-pruning slot";
            }
            break;
        }
    }
    EXPECT_TRUE(any_long) << "the trace must contain long prompts";
}

// ---------------------------------------------------------------------
// Tie-breaking: placement is a function of the slot index only
// ---------------------------------------------------------------------

TEST(HeterogeneousFleet, EqualLoadTieBreakIsDeterministicBySlotIndex)
{
    // Equal-load slots: distinct (separately constructed) but identical
    // backend instances. If any selection point tie-broke on instance
    // identity (e.g. a pointer), constructing the instances in a
    // different order could flip placements; by contract placement
    // depends on the slot index alone, so the full reports must match
    // bit for bit — including under least-loaded ties from a burst of
    // simultaneous arrivals.
    auto tc = tinyTraceConfig(16);
    tc.mean_interarrival_s = 1e-6; // Everyone arrives ~at once.
    const auto trace = generatePoissonTrace(tc);
    ContinuousBatchConfig sc;
    sc.max_active = 2;
    sc.shard = ShardPolicy::LeastLoaded;

    AcceleratorFleet first, second;
    for (std::size_t a = 0; a < 3; ++a)
        first.push_back(std::make_shared<const SpAttenAccelerator>());
    // "Permute" the equal-load slots: same configs, instances created
    // in reverse and inserted front-most-recent.
    for (std::size_t a = 0; a < 3; ++a)
        second.insert(second.begin(),
                      std::make_shared<const SpAttenAccelerator>());

    const ServeReport ra = ContinuousBatchScheduler(first, sc).run(trace);
    const ServeReport rb =
        ContinuousBatchScheduler(second, sc).run(trace);
    ASSERT_EQ(ra.requests.size(), rb.requests.size());
    for (std::size_t i = 0; i < ra.requests.size(); ++i) {
        EXPECT_EQ(ra.requests[i].accel, rb.requests[i].accel)
            << "placement of request " << i
            << " changed under an equal-load slot permutation";
        EXPECT_EQ(ra.requests[i].admit_s, rb.requests[i].admit_s);
        EXPECT_EQ(ra.requests[i].finish_s, rb.requests[i].finish_s);
    }
    EXPECT_EQ(ra.makespan_s, rb.makespan_s);
    EXPECT_EQ(ra.accel_requests, rb.accel_requests);

    // And the assignment itself is the lowest-index-first fill the
    // index tie-break implies: with simultaneous arrivals the first
    // admissions land on slot 0, then 1, then 2.
    std::vector<std::size_t> order(ra.requests.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return ra.requests[a].admit_s <
                         ra.requests[b].admit_s;
              });
    EXPECT_EQ(ra.requests[order[0]].accel, 0);
}

} // namespace
} // namespace spatten
