/// Allocation guards. Every served request keeps its finalized
/// RunResult, so a RunResult copy must stay a handful of allocations,
/// not one heap node per stat. The names and kinds live once in the
/// shared interned layout, and the values in one reference-counted
/// block that a copy shares, so copying a result allocates only its
/// workload name, however many stats it carries.
///
/// The serving report must not cost a second copy of what its records
/// hold: the live-byte high-water mark of a scheduler run may rise only
/// a little above what the returned report keeps. Records whose stats
/// are bit-equal share one value block, so the report's stat bytes
/// follow the trace's distinct request shapes, not its length.
///
/// A served record's RunResult holds no copy of its request's name,
/// so copying it allocates nothing at all.
///
/// A trace request stores only its own data and points at one shared
/// template, so generating or copying a trace costs its vector, not an
/// allocation per request. A shared-prefix trace keeps its prompt
/// content as (start, seed) runs, so what it retains per request does
/// not grow with the prompts, and the KV pool walks a prompt's block
/// chain in reused scratch.
///
/// The binary replaces the global operator new with a counting one, so
/// it lives alone rather than in a shared test executable.
#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "accel/decode_session.hpp"
#include "accel/spatten_accelerator.hpp"
#include "baselines/baseline_backends.hpp"
#include "serve/accelerator_backend.hpp"
#include "serve/continuous_batch_scheduler.hpp"
#include "serve/kv_pool.hpp"
#include "workload/arrival_trace.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_bytes{0};
/// Heap bytes live through operator new, counted at their usable size.
std::atomic<std::size_t> g_live{0};
/// The most g_live has reached since the last resetHighWater().
std::atomic<std::size_t> g_high_water{0};

void
countLive(void* p)
{
    const std::size_t size = malloc_usable_size(p);
    const std::size_t live =
        g_live.fetch_add(size, std::memory_order_relaxed) + size;
    std::size_t seen = g_high_water.load(std::memory_order_relaxed);
    while (live > seen && !g_high_water.compare_exchange_weak(
                              seen, live, std::memory_order_relaxed)) {
    }
}

void
release(void* p) noexcept
{
    g_live.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
    std::free(p);
}

void
resetHighWater()
{
    g_high_water.store(g_live.load());
}

} // namespace

// The replacements stay out of line: inlined into their callers, GCC
// would pair malloc()/free() against new/delete expressions and flag
// them as mismatched.
[[gnu::noinline]] void*
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size)) {
        countLive(p);
        return p;
    }
    throw std::bad_alloc();
}

[[gnu::noinline]] void*
operator new[](std::size_t size)
{
    return ::operator new(size);
}

// libstdc++'s own nothrow form already calls the counted one above, but
// the ASan runtime supplies its own, which would hand std::stable_sort's
// temporary buffer an uncounted block that the counted sized delete
// then frees (ASan reports alloc-dealloc-mismatch).
[[gnu::noinline]] void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    try {
        return ::operator new(size);
    } catch (const std::bad_alloc&) {
        return nullptr;
    }
}

[[gnu::noinline]] void
operator delete(void* p) noexcept
{
    release(p);
}

[[gnu::noinline]] void
operator delete[](void* p) noexcept
{
    release(p);
}

[[gnu::noinline]] void
operator delete(void* p, std::size_t) noexcept
{
    release(p);
}

[[gnu::noinline]] void
operator delete[](void* p, std::size_t) noexcept
{
    release(p);
}

namespace spatten {
namespace {

/// Heap allocations made by copying @p r.
std::size_t
copyAllocations(const RunResult& r)
{
    const std::size_t before = g_allocations.load();
    const RunResult copy = r;
    const std::size_t after = g_allocations.load();
    EXPECT_EQ(copy.stats.all().size(), r.stats.all().size());
    return after - before;
}

/// Heap bytes requested by copying @p r.
std::size_t
copyBytes(const RunResult& r)
{
    const std::size_t before = g_bytes.load();
    const RunResult copy = r;
    const std::size_t after = g_bytes.load();
    EXPECT_EQ(copy.stats.all().size(), r.stats.all().size());
    return after - before;
}

/// The most a RunResult copy may allocate: the name's characters with
/// their terminator. The stat values are shared, not copied.
std::size_t
copyBudget(const RunResult& r)
{
    return r.workload.size() + 1;
}

/// A name too long for the small-string buffer, so the copy of the
/// name is the one allowed allocation.
WorkloadSpec
gpt2(std::size_t prompt, std::size_t generate)
{
    WorkloadSpec w;
    w.name = "gpt2-small-stat-allocation-guard";
    w.model = ModelSpec::gpt2Small();
    w.summarize_len = prompt;
    w.generate_len = generate;
    return w;
}

/// A SpAtten session run to completion, ready to finalize.
std::unique_ptr<DecodeSession>
finishedSession()
{
    auto session = std::make_unique<DecodeSession>(
        SpAttenConfig{}, gpt2(128, 4), PruningPolicy{});
    session->prefill();
    while (!session->done())
        session->decodeStep();
    return session;
}

TEST(StatAlloc, CopyingARunResultAllocatesTheNameOnly)
{
    SpAttenAccelerator accel;
    const RunResult r = accel.run(gpt2(512, 16), PruningPolicy{});
    ASSERT_GE(r.stats.all().size(), 37u);
    EXPECT_LE(copyAllocations(r), 1u);
}

TEST(StatAlloc, CopyingAFinalizedSessionAllocatesTheNameOnly)
{
    const RunResult r = finishedSession()->finalize();
    ASSERT_GE(r.stats.all().size(), 37u);
    EXPECT_LE(copyAllocations(r), 1u);
}

TEST(StatAlloc, CopyingAFinalizedResultAllocatesTheNameBytesOnly)
{
    SpAttenAccelerator accel;
    const RunResult ran = accel.run(gpt2(512, 16), PruningPolicy{});
    const RunResult finalized = finishedSession()->finalize();
    for (const RunResult* r : {&ran, &finalized}) {
        ASSERT_GE(r->stats.all().size(), 37u);
        EXPECT_LE(copyBytes(*r), copyBudget(*r));
    }
}

// finalize() sizes the stat array once for every entry it writes, so
// landing 37 stats grows the array in a single allocation. The first
// finalize in a process also interns the stat names; that one-time cost
// is paid before counting.
TEST(StatAlloc, FinalizeAllocatesTheStatArrayOnce)
{
    finishedSession()->finalize();
    const auto session = finishedSession();
    const std::size_t before = g_allocations.load();
    const RunResult r = session->finalize();
    const std::size_t after = g_allocations.load();
    ASSERT_GE(r.stats.all().size(), 37u);
    EXPECT_LE(after - before, 2u);
}

/// A backend whose sessions cost next to nothing to simulate: a prompt
/// token takes 1 us and a decode step 10 us of simulated time, and the
/// KV stays dense. A test can serve 10^5 tokens with it in well under a
/// second of host time.
class FlatSession final : public ProtocolSession
{
  public:
    explicit FlatSession(const WorkloadSpec& w) : ProtocolSession(w) {}
    RunResult finalize() const override { return {}; }

  private:
    double chunkPass(std::size_t, std::size_t len) override
    {
        return 1e-6 * static_cast<double>(len);
    }
    double decodePass(std::size_t) override { return 10e-6; }
};

class FlatBackend final : public AcceleratorBackend
{
  public:
    std::string backendName() const override { return "flat"; }
    std::uint64_t capacityBytes() const override { return 1ull << 40; }
    std::size_t kvBytesPerElem() const override { return 1; }
    std::unique_ptr<BackendSession>
    makeSession(const WorkloadSpec& w, const PruningPolicy&,
                std::uint64_t) const override
    {
        return std::make_unique<FlatSession>(w);
    }
};

// The report's records already hold every inter-token time, so the
// aggregation must not copy them: the run's live-byte high-water mark
// may exceed what the returned report keeps by far less than one
// double per pooled gap (the sorted gap array this replaced).
TEST(ServeAlloc, RunHighWaterStaysFarBelowAPooledGapCopy)
{
    const RequestShape w{32, 257};
    const auto tiny = std::make_shared<const RequestTemplate>(
        RequestTemplate{{"tiny", 4, 4, 64, 4}, PruningPolicy{}});
    std::vector<TracedRequest> trace(2048);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        trace[i].id = i;
        trace[i].arrival_s = 1e-6 * static_cast<double>(i);
        trace[i].workload = w;
        trace[i].tmpl = tiny;
        trace[i].seed = i;
    }
    ContinuousBatchConfig sc;
    sc.max_active = 64;
    ContinuousBatchScheduler sched(
        AcceleratorFleet{std::make_shared<const FlatBackend>()}, sc);

    resetHighWater();
    const std::size_t before = g_live.load();
    const ServeReport r = sched.run(trace);
    const std::size_t after = g_live.load();
    const std::size_t peak = g_high_water.load();

    std::size_t gaps = 0;
    for (const ServedRequest& req : r.requests) {
        ASSERT_EQ(req.tokens, w.generate_len);
        gaps += req.token_times_s.size() - 1;
    }
    const std::size_t gap_copy = gaps * sizeof(double);
    ASSERT_GE(gap_copy, 4u << 20) << "the guard needs a MiB-scale copy";
    ASSERT_GT(after, before);
    EXPECT_LT(peak - after, gap_copy / 4)
        << "run() peaked " << (peak - after) << " B above the "
        << (after - before) << " B its report keeps; a copy of the "
        << gaps << " pooled gaps is " << gap_copy << " B";
}

// A session is a pure function of its shape, so the records of equal
// shapes finalize to bit-equal stats, and the scheduler hands them one
// value block: the report's stat bytes follow the trace's distinct
// (prompt, output) shapes, not its request count. Each record still
// reads exactly what a fresh session of its request finalizes to.
TEST(ServeAlloc, RecordsWithEqualStatsShareOneBlock)
{
    const std::array<std::pair<std::size_t, std::size_t>, 3> shapes = {
        {{32, 2}, {48, 3}, {32, 4}}};
    const auto tiny = std::make_shared<const RequestTemplate>(
        RequestTemplate{{"tiny", 4, 4, 64, 4}, PruningPolicy{}});
    std::vector<TracedRequest> trace(96);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        trace[i].workload = {shapes[i % shapes.size()].first,
                             shapes[i % shapes.size()].second};
        trace[i].tmpl = tiny;
        trace[i].id = i;
        trace[i].arrival_s = 1e-5 * static_cast<double>(i);
        trace[i].seed = i;
    }
    const auto accel = std::make_shared<const SpAttenAccelerator>();
    ContinuousBatchConfig sc;
    sc.max_active = 8;
    ServeReport r = ContinuousBatchScheduler(AcceleratorFleet{accel}, sc)
                        .run(trace);

    std::vector<const StatSet*> distinct;
    for (std::size_t i = 0; i < r.requests.size(); ++i) {
        const ServedRequest& req = r.requests[i];
        ASSERT_EQ(req.phase, RequestPhase::Finished);
        const StatSet& stats = req.sim.stats;
        ASSERT_GE(stats.all().size(), 37u);
        const TracedRequest& t = trace[i];
        const auto session =
            accel->makeSession(t.sessionSpec(), t.policy(), t.seed);
        session->prefill();
        while (!session->done())
            session->decodeStep();
        EXPECT_TRUE(stats.sameValues(session->finalize().stats))
            << "request " << i;
        bool seen = false;
        for (const StatSet* d : distinct) {
            const bool equal = d->sameValues(stats);
            EXPECT_EQ(d->sharesValuesWith(stats), equal) << "request " << i;
            seen = seen || equal;
        }
        if (!seen)
            distinct.push_back(&stats);
    }
    EXPECT_EQ(distinct.size(), shapes.size());

    // What the records' stats keep: the bytes dropping them frees.
    const std::size_t values = r.requests.front().sim.stats.all().size();
    const std::size_t with = g_live.load();
    for (ServedRequest& req : r.requests)
        req.sim.stats = StatSet();
    const std::size_t freed = with - g_live.load();
    EXPECT_LE(freed, shapes.size() * (values * sizeof(double) + 64))
        << freed << " B of stats kept by " << r.requests.size()
        << " records of " << shapes.size() << " shapes";
}

// The scheduler opens sessions with an unnamed spec, so no served
// record holds a copy of its request's name: copying a record's result,
// SpAtten's or a baseline's, shares the stat block and allocates
// nothing. The name stays readable from the trace.
TEST(ServeAlloc, CopyingAServedRecordsResultAllocatesNothing)
{
    ArrivalTraceConfig tc;
    tc.num_requests = 8;
    tc.model = {"tiny", 4, 4, 64, 4};
    tc.min_prompt = 32;
    tc.max_prompt = 64;
    tc.min_output = 2;
    tc.max_output = 4;
    std::vector<TracedRequest> trace = generateArrivalTrace(tc);
    // Names past the small-string buffer, so a copied name would show.
    const auto named = std::make_shared<const RequestTemplate>(
        RequestTemplate{tc.model, tc.policy, false, "served-record"});
    for (TracedRequest& t : trace)
        t.tmpl = named;
    ContinuousBatchConfig sc;
    sc.shard = ShardPolicy::RoundRobin;
    const ServeReport r =
        ContinuousBatchScheduler(
            AcceleratorFleet{std::make_shared<const SpAttenAccelerator>(),
                             std::make_shared<const A3Backend>()},
            sc)
            .run(trace);
    ASSERT_EQ(r.requests.size(), trace.size());
    bool served_by[2] = {false, false};
    for (std::size_t i = 0; i < r.requests.size(); ++i) {
        const ServedRequest& req = r.requests[i];
        ASSERT_EQ(req.phase, RequestPhase::Finished);
        served_by[req.accel] = true;
        EXPECT_TRUE(req.sim.workload.empty()) << "request " << i;
        EXPECT_EQ(copyAllocations(req.sim), 0u) << "request " << i;
        ASSERT_GE(trace[i].name().size(), 16u);
    }
    EXPECT_TRUE(served_by[0] && served_by[1]);
}

/// Heap allocations made by @p gen().
template <class Gen>
std::size_t
allocationsOf(Gen&& gen)
{
    const std::size_t before = g_allocations.load();
    gen();
    return g_allocations.load() - before;
}

// A generated request points at its trace's one template and computes
// its name when read, so a trace of any length allocates its vector
// and its template: no heap name, model or policy per request.
TEST(TraceAlloc, GeneratingATraceAllocatesNothingPerRequest)
{
    ArrivalTraceConfig tc;
    tc.num_requests = 4096;
    tc.process = ArrivalProcess::OnOffBurst;
    tc.prompt_dist = PromptLengthDist::BoundedPareto;
    tc.priority_levels = 3;
    EXPECT_LE(allocationsOf([&] { return generateArrivalTrace(tc); }), 4u);
    DiurnalTraceConfig dc;
    dc.base.num_requests = 4096;
    EXPECT_LE(allocationsOf([&] { return generateDiurnalTrace(dc); }), 4u);
}

// A shared-prefix trace adds one run list per conversation (its shared
// block and its exact-size storage) and a constant of scratch.
TEST(TraceAlloc, SharedPrefixTraceAllocatesOneRunListPerConversation)
{
    SharedPrefixTraceConfig sp;
    sp.base.num_requests = 4096;
    sp.followup_prob = 0.5;
    std::vector<TracedRequest> trace;
    const std::size_t allocations = allocationsOf(
        [&] { trace = generateSharedPrefixTrace(sp); });
    std::vector<const PromptTokens::Runs*> lists;
    for (const TracedRequest& r : trace)
        lists.push_back(r.prompt_tokens.runs().get());
    std::sort(lists.begin(), lists.end());
    const std::size_t conversations =
        static_cast<std::size_t>(std::unique(lists.begin(), lists.end()) -
                                 lists.begin());
    ASSERT_GT(conversations, 64u);
    ASSERT_LT(conversations, trace.size());
    EXPECT_LE(allocations, 2 * conversations + 16)
        << allocations << " allocations for " << conversations
        << " conversations of " << trace.size() << " requests";
}

// Templates and prompt run lists are shared, so a copy of a trace
// allocates only its own vector.
TEST(TraceAlloc, CopyingATraceAllocatesOnlyItsVector)
{
    ArrivalTraceConfig tc;
    tc.num_requests = 4096;
    const std::vector<TracedRequest> plain = generateArrivalTrace(tc);
    SharedPrefixTraceConfig sp;
    sp.base.num_requests = 4096;
    const std::vector<TracedRequest> prefixed = generateSharedPrefixTrace(sp);
    for (const std::vector<TracedRequest>* trace : {&plain, &prefixed}) {
        std::vector<TracedRequest> copy;
        EXPECT_EQ(allocationsOf([&] { copy = *trace; }), 1u);
        ASSERT_EQ(copy.size(), trace->size());
        EXPECT_EQ(copy.back().name(), trace->back().name());
    }
}

// tryReservePrefix walks the prompt's block chain in pool-owned
// scratch. Once that has grown, an admission that fails the budget
// check, and so rolls back and reserves nothing, allocates nothing at
// all; a full prefix hit allocates only its reservation (the held-map
// node and its block list).
TEST(KvAlloc, RepeatedPrefixChainWalkAllocatesNoScratch)
{
    const ModelSpec model{"tiny", 4, 4, 64, 4};
    KvPoolConfig cfg;
    cfg.capacity_bytes = KvPool(cfg).bytesForTokens(model, 128);
    KvPool pool(cfg);
    std::vector<std::uint64_t> prompt(512);
    for (std::size_t i = 0; i < prompt.size(); ++i)
        prompt[i] = 1000 + i;
    const TokenSpan head(prompt.data(), 64);
    ASSERT_TRUE(pool.tryReservePrefix(1, model, head).ok);
    const std::uint64_t used = pool.usedBytes();

    ASSERT_FALSE(pool.tryReservePrefix(2, model, prompt).ok); // Grows it.
    const std::size_t before = g_allocations.load();
    for (int i = 0; i < 8; ++i)
        ASSERT_FALSE(pool.tryReservePrefix(2, model, prompt).ok);
    EXPECT_EQ(g_allocations.load() - before, 0u);
    EXPECT_EQ(pool.usedBytes(), used);

    const std::size_t hit_before = g_allocations.load();
    const KvPool::PrefixReservation hit = pool.tryReservePrefix(3, model, head);
    EXPECT_LE(g_allocations.load() - hit_before, 2u);
    ASSERT_TRUE(hit.ok);
    EXPECT_EQ(hit.cached_tokens, 64u);
}

/// Live bytes @p trace keeps for its prompt content: what clearing
/// every request's view gives back.
std::size_t
promptContentBytes(std::vector<TracedRequest>& trace)
{
    const std::size_t with = g_live.load();
    for (TracedRequest& r : trace)
        r.prompt_tokens = PromptTokens();
    return with - g_live.load();
}

// A prefix-tiered-shaped trace (8 system prompts of 192 tokens, half
// the requests follow up) keeps a few 16-byte runs per request for its
// prompts, whatever the prompt cap; a token id per stored position
// cost ~1.2 KB per request at the default cap, and more as it grows.
TEST(TraceAlloc, PromptContentCostsRunsNotTokens)
{
    for (const std::size_t cap : {std::size_t{768}, std::size_t{4096}}) {
        SharedPrefixTraceConfig sp;
        sp.base.num_requests = 4096;
        sp.base.min_output = 16;
        sp.base.max_output = 32;
        sp.num_system_prompts = 8;
        sp.system_prompt_tokens = 192;
        sp.followup_prob = 0.5;
        sp.max_prompt_tokens = cap;
        auto trace = generateSharedPrefixTrace(sp);
        std::size_t tokens = 0;
        for (const TracedRequest& r : trace)
            tokens += r.prompt_tokens.size();
        const std::size_t bytes = promptContentBytes(trace);
        EXPECT_LE(bytes, 64 * trace.size())
            << "cap " << cap << ": " << bytes << " B kept for "
            << trace.size() << " requests of " << tokens << " tokens";
    }
}

} // namespace
} // namespace spatten
