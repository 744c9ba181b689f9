/// Property tests for the continuous-batching serving stack: arrival
/// traces, DecodeSession KV-carry semantics, the scheduler's determinism
/// contract (thread-count and shard-count bit-identity), FIFO fairness,
/// bounded queue delay, metric coherence, and the KV-capacity layer
/// (KvPool accounting, admission control, preemption-and-recompute,
/// priority / shortest-prompt-first queue policies), and the report's
/// percentiles and peak concurrency against a sort-and-sweep oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "accel/decode_session.hpp"
#include "accel/spatten_accelerator.hpp"
#include "baselines/baseline_backends.hpp"
#include "serve/continuous_batch_scheduler.hpp"
#include "serve/kv_pool.hpp"

namespace spatten {
namespace {

/// A small 4-layer model keeps each scheduler run to a few milliseconds
/// of host time while exercising every code path.
ModelSpec
tinyModel()
{
    return {"tiny", 4, 4, 64, 4};
}

/// A hand-built request's template: the tiny model under @p policy.
std::shared_ptr<const RequestTemplate>
tinyTemplate(const PruningPolicy& policy = PruningPolicy{})
{
    return std::make_shared<const RequestTemplate>(
        RequestTemplate{tinyModel(), policy});
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

/// Serve @p trace on @p accels default SpAtten slots.
ServeReport
serve(const std::vector<TracedRequest>& trace, ContinuousBatchConfig sc,
      std::size_t accels = 1)
{
    const AcceleratorFleet fleet(
        accels, std::make_shared<const SpAttenAccelerator>());
    return ContinuousBatchScheduler(fleet, sc).run(trace);
}

/// Per-request *service* state (placement-independent by contract).
void
expectSameService(const ServedRequest& a, const ServedRequest& b)
{
    EXPECT_EQ(a.sim.cycles, b.sim.cycles);
    EXPECT_EQ(a.sim.seconds, b.sim.seconds);
    EXPECT_EQ(a.sim.dram_bytes, b.sim.dram_bytes);
    EXPECT_EQ(a.sim.attention_flops, b.sim.attention_flops);
    EXPECT_EQ(a.sim.energy.totalJ(), b.sim.energy.totalJ());
    EXPECT_EQ(a.service_seconds, b.service_seconds);
    EXPECT_EQ(a.kv_trace, b.kv_trace);
    EXPECT_EQ(a.tokens, b.tokens);
}

// ---------------------------------------------------------------------
// Arrival traces
// ---------------------------------------------------------------------

TEST(ArrivalTrace, DeterministicFromSeed)
{
    const auto a = generatePoissonTrace(tinyTraceConfig(32, 7));
    const auto b = generatePoissonTrace(tinyTraceConfig(32, 7));
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);
        EXPECT_EQ(a[i].seed, b[i].seed);
        EXPECT_EQ(a[i].workload.summarize_len, b[i].workload.summarize_len);
        EXPECT_EQ(a[i].workload.generate_len, b[i].workload.generate_len);
    }
    const auto c = generatePoissonTrace(tinyTraceConfig(32, 8));
    bool any_diff = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        any_diff |= a[i].arrival_s != c[i].arrival_s;
    EXPECT_TRUE(any_diff) << "different seeds must yield different traces";
}

TEST(ArrivalTrace, RespectsConfiguredBounds)
{
    const auto tc = tinyTraceConfig(64);
    const auto trace = generatePoissonTrace(tc);
    ASSERT_EQ(trace.size(), tc.num_requests);
    double prev = 0.0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(trace[i].id, i);
        EXPECT_GE(trace[i].arrival_s, prev) << "arrivals must be sorted";
        prev = trace[i].arrival_s;
        EXPECT_GE(trace[i].workload.summarize_len, tc.min_prompt);
        EXPECT_LE(trace[i].workload.summarize_len, tc.max_prompt);
        EXPECT_GE(trace[i].workload.generate_len, tc.min_output);
        EXPECT_LE(trace[i].workload.generate_len, tc.max_output);
    }
    EXPECT_GT(trace.front().arrival_s, 0.0);
}

TEST(ArrivalTrace, MeanInterarrivalMatchesPoissonRate)
{
    auto tc = tinyTraceConfig(512);
    tc.mean_interarrival_s = 1e-3;
    const auto trace = generatePoissonTrace(tc);
    const double mean =
        trace.back().arrival_s / static_cast<double>(trace.size());
    // 512 exponential draws: the sample mean lands well within 20%.
    EXPECT_GT(mean, 0.8e-3);
    EXPECT_LT(mean, 1.25e-3);
}

// ---------------------------------------------------------------------
// DecodeSession: cascade-pruned KV carried across decode steps
// ---------------------------------------------------------------------

TEST(DecodeSession, KvMonotoneNonIncreasingUnderCascadePruning)
{
    WorkloadSpec w;
    w.name = "kv-monotone";
    w.model = ModelSpec::gpt2Small();
    w.summarize_len = 256;
    w.generate_len = 16;
    const SpAttenAccelerator accel;
    const DecodeResult r = accel.runDecode(w, PruningPolicy{});
    ASSERT_EQ(r.kv_lengths.size(), w.generate_len + 1);
    EXPECT_LT(r.kv_lengths.front(), w.summarize_len)
        << "prefill must prune the prompt KV";
    for (std::size_t i = 1; i < r.kv_lengths.size(); ++i)
        EXPECT_LE(r.kv_lengths[i], r.kv_lengths[i - 1])
            << "KV must be non-increasing at step " << i;
    EXPECT_GE(r.kv_lengths.back(), 1u);
    // Under pruning the resident peak is the un-pruned prompt KV held
    // during prefill, not any post-prune survivor count.
    EXPECT_EQ(r.peak_kv_bytes,
              w.summarize_len * kvBytesPerToken(w.model));
}

TEST(DecodeSession, KvGrowsByExactlyOneWithoutPruning)
{
    WorkloadSpec w;
    w.name = "kv-dense";
    w.model = tinyModel();
    w.summarize_len = 64;
    w.generate_len = 6;
    const SpAttenAccelerator accel;
    const DecodeResult r = accel.runDecode(w, PruningPolicy::disabled());
    ASSERT_EQ(r.kv_lengths.size(), w.generate_len + 1);
    EXPECT_EQ(r.kv_lengths.front(), w.summarize_len);
    for (std::size_t i = 1; i < r.kv_lengths.size(); ++i)
        EXPECT_EQ(r.kv_lengths[i], r.kv_lengths[i - 1] + 1);
    // Dense KV only grows, so the peak is the final grown cache.
    EXPECT_EQ(r.peak_kv_bytes, (w.summarize_len + w.generate_len) *
                                   kvBytesPerToken(w.model));
}

TEST(DecodeSession, LifecycleAndTokenAccounting)
{
    WorkloadSpec w;
    w.model = tinyModel();
    w.summarize_len = 48;
    w.generate_len = 3;
    DecodeSession s(SpAttenConfig{}, w, PruningPolicy{});
    EXPECT_FALSE(s.prefilled());
    EXPECT_FALSE(s.done());
    EXPECT_GT(s.prefill(), 0.0);
    EXPECT_TRUE(s.prefilled());
    for (std::size_t t = 0; t < w.generate_len; ++t) {
        EXPECT_FALSE(s.done());
        EXPECT_GT(s.decodeStep(), 0.0);
        EXPECT_EQ(s.tokensGenerated(), t + 1);
    }
    EXPECT_TRUE(s.done());
    EXPECT_EQ(s.kvTrace().size(), w.generate_len + 1);
    const RunResult res = s.finalize();
    EXPECT_GT(res.seconds, 0.0);
    EXPECT_GT(res.summarize_seconds, 0.0);
    EXPECT_GT(res.generate_seconds, 0.0);
    EXPECT_NEAR(res.seconds,
                res.summarize_seconds + res.generate_seconds, 1e-15);
}

TEST(DecodeSession, ZeroTokenRequestIsDoneAtPrefill)
{
    WorkloadSpec w;
    w.model = tinyModel();
    w.summarize_len = 48;
    w.generate_len = 0;
    DecodeSession s(SpAttenConfig{}, w, PruningPolicy{});
    s.prefill();
    EXPECT_TRUE(s.done());
    EXPECT_EQ(s.tokensGenerated(), 0u);
}

TEST(DecodeSession, SkipSummarizationEntersDecodeWithFullPromptKv)
{
    WorkloadSpec w;
    w.model = tinyModel();
    w.summarize_len = 96;
    w.generate_len = 4;
    w.skip_summarization = true;
    DecodeSession s(SpAttenConfig{}, w, PruningPolicy{});
    EXPECT_EQ(s.prefill(), 0.0) << "pre-summarized prompts cost nothing";
    EXPECT_EQ(s.kvLength(), w.summarize_len);
    EXPECT_GT(s.decodeStep(), 0.0);
    EXPECT_LT(s.kvLength(), w.summarize_len + 1);
}

// ---------------------------------------------------------------------
// Scheduler determinism
// ---------------------------------------------------------------------

TEST(ContinuousScheduler, BitIdenticalAcrossThreadCounts)
{
    const auto trace = generatePoissonTrace(tinyTraceConfig(20));
    ContinuousBatchConfig sc;
    sc.max_active = 4;
    sc.num_threads = 1;
    const ServeReport ref = serve(trace, sc, 2);
    for (const std::size_t threads : {2u, 4u, 8u}) {
        sc.num_threads = threads;
        const ServeReport r = serve(trace, sc, 2);
        ASSERT_EQ(r.requests.size(), ref.requests.size());
        for (std::size_t i = 0; i < r.requests.size(); ++i) {
            expectSameService(r.requests[i], ref.requests[i]);
            EXPECT_EQ(r.requests[i].admit_s, ref.requests[i].admit_s)
                << "request " << i << " at " << threads << " threads";
            EXPECT_EQ(r.requests[i].first_token_s,
                      ref.requests[i].first_token_s);
            EXPECT_EQ(r.requests[i].finish_s, ref.requests[i].finish_s);
            EXPECT_EQ(r.requests[i].token_times_s,
                      ref.requests[i].token_times_s);
            EXPECT_EQ(r.requests[i].accel, ref.requests[i].accel);
        }
        EXPECT_EQ(r.makespan_s, ref.makespan_s);
        EXPECT_EQ(r.ttft_p99_s, ref.ttft_p99_s);
        EXPECT_EQ(r.itl_p99_s, ref.itl_p99_s);
        EXPECT_EQ(r.goodput_rps, ref.goodput_rps);
    }
}

TEST(ContinuousScheduler, ServiceResultsBitIdenticalAcrossShardCounts)
{
    const auto trace = generatePoissonTrace(tinyTraceConfig(20));
    ContinuousBatchConfig sc;
    const ServeReport one = serve(trace, sc);
    for (const std::size_t accels : {2u, 4u}) {
        for (const ShardPolicy policy :
             {ShardPolicy::RoundRobin, ShardPolicy::LeastLoaded}) {
            sc.shard = policy;
            const ServeReport r = serve(trace, sc, accels);
            for (std::size_t i = 0; i < r.requests.size(); ++i)
                expectSameService(r.requests[i], one.requests[i]);
        }
    }
}

TEST(ContinuousScheduler, RepeatedRunsAreIdentical)
{
    const auto trace = generatePoissonTrace(tinyTraceConfig(12));
    ContinuousBatchConfig sc;
    const ServeReport a = serve(trace, sc, 3);
    const ServeReport b = serve(trace, sc, 3);
    EXPECT_EQ(a.makespan_s, b.makespan_s);
    EXPECT_EQ(a.total_cycles, b.total_cycles);
    EXPECT_EQ(a.total_energy_j, b.total_energy_j);
    for (std::size_t i = 0; i < a.requests.size(); ++i)
        EXPECT_EQ(a.requests[i].finish_s, b.requests[i].finish_s);
}

// ---------------------------------------------------------------------
// Sharding and fairness
// ---------------------------------------------------------------------

TEST(ContinuousScheduler, RoundRobinPinsRequestsModulo)
{
    const auto trace = generatePoissonTrace(tinyTraceConfig(16));
    ContinuousBatchConfig sc;
    sc.shard = ShardPolicy::RoundRobin;
    const ServeReport r = serve(trace, sc, 4);
    // The trace arrives in id order, so arrival position == id.
    for (std::size_t i = 0; i < r.requests.size(); ++i)
        EXPECT_EQ(r.requests[i].accel, static_cast<int>(i % 4));
}

TEST(ContinuousScheduler, LeastLoadedAdmitsInFifoArrivalOrder)
{
    const auto trace = generatePoissonTrace(tinyTraceConfig(24));
    ContinuousBatchConfig sc;
    sc.max_active = 2;
    sc.shard = ShardPolicy::LeastLoaded;
    const ServeReport r = serve(trace, sc, 3);
    for (std::size_t i = 1; i < r.requests.size(); ++i)
        EXPECT_GE(r.requests[i].admit_s, r.requests[i - 1].admit_s)
            << "equal-priority FIFO: admission must follow arrival order";
}

TEST(ContinuousScheduler, NoRequestStarvedBeyondBoundedQueueDelay)
{
    // Saturating trace: tight arrivals on one accelerator with a narrow
    // batch, the worst case for queueing.
    auto tc = tinyTraceConfig(24);
    tc.mean_interarrival_s = 1e-6;
    const auto trace = generatePoissonTrace(tc);
    ContinuousBatchConfig sc;
    sc.max_active = 2;
    sc.shard = ShardPolicy::LeastLoaded;
    const ServeReport r = serve(trace, sc, 1);
    for (std::size_t i = 0; i < r.requests.size(); ++i) {
        const ServedRequest& req = r.requests[i];
        ASSERT_EQ(req.phase, RequestPhase::Finished);
        // FIFO bound: a request waits at most for the full service of
        // everything that arrived before it (single-accelerator worst
        // case; pooling only shrinks the wait).
        double earlier_service = 0.0;
        for (std::size_t j = 0; j < r.requests.size(); ++j)
            if (r.requests[j].arrival_s <= req.arrival_s && j != i)
                earlier_service += r.requests[j].service_seconds;
        EXPECT_LE(req.queueDelaySeconds(), earlier_service + 1e-12)
            << "request " << i << " starved";
    }
}

TEST(ContinuousScheduler, MaxActiveBoundsConcurrency)
{
    auto tc = tinyTraceConfig(16);
    tc.mean_interarrival_s = 1e-6; // everyone arrives ~at once
    const auto trace = generatePoissonTrace(tc);
    ContinuousBatchConfig sc;
    sc.max_active = 3;
    const ServeReport r = serve(trace, sc, 2);
    for (const ServedRequest& req : r.requests) {
        // Requests concurrently resident with req on its accelerator:
        // admitted no later, not yet finished at req's admission.
        std::size_t resident = 0;
        for (const ServedRequest& other : r.requests)
            if (other.accel == req.accel &&
                other.admit_s <= req.admit_s &&
                other.finish_s > req.admit_s)
                ++resident;
        EXPECT_LE(resident, sc.max_active);
    }
}

// ---------------------------------------------------------------------
// Lifecycle and metrics
// ---------------------------------------------------------------------

TEST(ContinuousScheduler, TimestampsRespectLifecycleOrder)
{
    const auto trace = generatePoissonTrace(tinyTraceConfig(16));
    ContinuousBatchConfig sc;
    const ServeReport r = serve(trace, sc, 2);
    for (const ServedRequest& req : r.requests) {
        EXPECT_GE(req.admit_s, req.arrival_s);
        EXPECT_GT(req.first_token_s, req.admit_s);
        EXPECT_GE(req.finish_s, req.first_token_s);
        EXPECT_GE(req.queueDelaySeconds(), 0.0);
        EXPECT_GT(req.ttftSeconds(), 0.0);
    }
}

TEST(ContinuousScheduler, TokensMatchTraceAndIncreaseMonotonically)
{
    const auto trace = generatePoissonTrace(tinyTraceConfig(12));
    const ServeReport r = serve(trace, ContinuousBatchConfig{});
    std::size_t expected_total = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const ServedRequest& req = r.requests[i];
        EXPECT_EQ(req.tokens, trace[i].workload.generate_len);
        ASSERT_EQ(req.token_times_s.size(), req.tokens);
        for (std::size_t t = 1; t < req.token_times_s.size(); ++t)
            EXPECT_GT(req.token_times_s[t], req.token_times_s[t - 1]);
        EXPECT_EQ(req.kv_trace.size(), req.tokens + 1);
        expected_total += trace[i].workload.generate_len;
    }
    EXPECT_EQ(r.total_tokens, expected_total);
}

TEST(ContinuousScheduler, ZeroTokenRequestFinishesAtPrefill)
{
    TracedRequest req;
    req.id = 0;
    req.arrival_s = 1e-3;
    req.workload = {64, 0};
    req.tmpl = tinyTemplate();
    const ServeReport r = serve({req}, ContinuousBatchConfig{});
    ASSERT_EQ(r.requests.size(), 1u);
    const ServedRequest& s = r.requests.front();
    EXPECT_EQ(s.phase, RequestPhase::Finished);
    EXPECT_EQ(s.tokens, 0u);
    EXPECT_EQ(s.first_token_s, s.finish_s);
    EXPECT_GT(s.finish_s, req.arrival_s);
}

TEST(ContinuousScheduler, MetricsAreCoherent)
{
    const auto trace = generatePoissonTrace(tinyTraceConfig(20));
    ContinuousBatchConfig sc;
    const ServeReport r = serve(trace, sc, 2);
    EXPECT_LE(r.ttft_p50_s, r.ttft_p99_s);
    EXPECT_LE(r.itl_p50_s, r.itl_p99_s);
    EXPECT_GT(r.throughput_rps, 0.0);
    EXPECT_GT(r.tokens_per_s, 0.0);
    EXPECT_GT(r.dram_reduction, 1.0);
    double max_finish = 0.0, service_sum = 0.0;
    std::vector<double> busy(r.accel_busy_s.size(), 0.0);
    for (const ServedRequest& req : r.requests) {
        max_finish = std::max(max_finish, req.finish_s);
        service_sum += req.service_seconds;
        ASSERT_GE(req.accel, 0);
        busy[static_cast<std::size_t>(req.accel)] += req.service_seconds;
    }
    EXPECT_EQ(r.makespan_s, max_finish);
    for (std::size_t a = 0; a < busy.size(); ++a) {
        EXPECT_NEAR(r.accel_busy_s[a], busy[a], 1e-12);
        EXPECT_GE(r.accel_util[a], 0.0);
        EXPECT_LE(r.accel_util[a], 1.0 + 1e-12);
    }
    std::size_t assigned = 0;
    for (std::size_t c : r.accel_requests)
        assigned += c;
    EXPECT_EQ(assigned, trace.size());
}

TEST(ContinuousScheduler, UtilizationExcludesIdleLeadInBeforeFirstArrival)
{
    // One request arriving after a long idle lead-in: utilization must
    // be measured over [first arrival, makespan], not the full makespan
    // (the old denominator reported ~0 for sparse traces).
    TracedRequest req;
    req.id = 0;
    req.arrival_s = 10.0; // Seconds of idle before any demand exists.
    req.workload = {64, 4};
    req.tmpl = tinyTemplate();
    const ServeReport r = serve({req}, ContinuousBatchConfig{});
    ASSERT_EQ(r.requests.size(), 1u);
    const double window = r.makespan_s - req.arrival_s;
    ASSERT_GT(window, 0.0);
    EXPECT_DOUBLE_EQ(r.accel_util[0], r.accel_busy_s[0] / window);
    // The sole request is served back to back, so utilization is ~1,
    // not service/makespan ~ 1e-5.
    EXPECT_GT(r.accel_util[0], 0.99);
    EXPECT_LE(r.accel_util[0], 1.0 + 1e-12);
}

TEST(ContinuousScheduler, UtilizationWindowIsPerAccelUnderRoundRobin)
{
    // Round-robin pins request 1 (arriving late) to accelerator 1: that
    // accelerator's utilization window starts at ITS first demand, so
    // serving its only request back to back reads as ~full utilization.
    std::vector<TracedRequest> trace;
    for (std::size_t i = 0; i < 2; ++i) {
        TracedRequest req;
        req.id = i;
        req.arrival_s = i == 0 ? 1e-3 : 10.0;
        req.workload = {64, 4};
        req.tmpl = tinyTemplate();
        req.seed = 3 + i;
        trace.push_back(req);
    }
    ContinuousBatchConfig sc;
    sc.shard = ShardPolicy::RoundRobin;
    const ServeReport r = serve(trace, sc, 2);
    ASSERT_EQ(r.requests[1].accel, 1);
    EXPECT_GT(r.accel_util[1], 0.99)
        << "accel 1's idle wait for its first pinned arrival is demand "
           "absence, not idleness";
    EXPECT_LE(r.accel_util[1], 1.0 + 1e-12);
}

TEST(ContinuousScheduler, GoodputCountsOnlySloMeetingRequests)
{
    const auto trace = generatePoissonTrace(tinyTraceConfig(12));
    ContinuousBatchConfig sc;
    sc.slo_ttft_s = 1e9; // Everything meets a generous SLO.
    sc.slo_itl_s = 1e9;
    const ServeReport generous = serve(trace, sc);
    EXPECT_EQ(generous.slo_met, trace.size());
    EXPECT_DOUBLE_EQ(generous.goodput_rps, generous.throughput_rps);

    sc.slo_ttft_s = 0.0; // Nothing meets an impossible SLO.
    sc.slo_itl_s = 0.0;
    const ServeReport impossible = serve(trace, sc);
    EXPECT_EQ(impossible.slo_met, 0u);
    EXPECT_EQ(impossible.goodput_rps, 0.0);
}

TEST(ContinuousScheduler, EmptyTraceYieldsEmptyReport)
{
    const ServeReport r = serve({}, ContinuousBatchConfig{});
    EXPECT_TRUE(r.requests.empty());
    EXPECT_EQ(r.makespan_s, 0.0);
    EXPECT_EQ(r.throughput_rps, 0.0);
    EXPECT_EQ(r.total_tokens, 0u);
}

// ---------------------------------------------------------------------
// KvPool accounting
// ---------------------------------------------------------------------

TEST(KvPool, BlockGranularReservationAndRelease)
{
    const ModelSpec m = tinyModel(); // 2*4*4*64*2 = 4096 B per token.
    ASSERT_EQ(kvBytesPerToken(m), 4096u);
    KvPool pool({16 * 16 * 4096, 16}); // 16-block budget.
    EXPECT_EQ(pool.bytesForTokens(m, 0), 0u);
    EXPECT_EQ(pool.bytesForTokens(m, 1), 16u * 4096);  // 1 block.
    EXPECT_EQ(pool.bytesForTokens(m, 16), 16u * 4096); // Still 1.
    EXPECT_EQ(pool.bytesForTokens(m, 17), 2u * 16 * 4096);

    EXPECT_TRUE(pool.tryReserve(0, m, 16 * 15)); // 15 blocks.
    EXPECT_FALSE(pool.tryReserve(1, m, 17)) << "2 blocks > 1 free";
    EXPECT_TRUE(pool.tryReserve(1, m, 16));
    EXPECT_EQ(pool.usedBytes(), pool.capacityBytes());
    EXPECT_EQ(pool.residentRequests(), 2u);

    EXPECT_FALSE(pool.tryResize(1, m, 17)) << "full pool cannot grow";
    EXPECT_TRUE(pool.tryResize(0, m, 16)) << "shrink always succeeds";
    EXPECT_TRUE(pool.tryResize(1, m, 17)) << "freed blocks are reusable";
    pool.release(0);
    pool.release(1);
    EXPECT_EQ(pool.usedBytes(), 0u);
    EXPECT_EQ(pool.peakBytes(), pool.capacityBytes())
        << "peak tracks the high-water mark";
}

TEST(KvPool, UnlimitedPoolNeverRejectsButStillAccounts)
{
    const ModelSpec m = tinyModel();
    KvPool pool({0, 16});
    EXPECT_TRUE(pool.unlimited());
    EXPECT_TRUE(pool.tryReserve(0, m, 1u << 20));
    EXPECT_TRUE(pool.tryResize(0, m, 1u << 21));
    EXPECT_EQ(pool.usedBytes(), pool.bytesForTokens(m, 1u << 21));
    EXPECT_GT(pool.peakBytes(), 0u);
}

TEST(KvPool, SubBlockCapacityAdmitsNothingButZeroTokenReservations)
{
    // capacity_bytes == 0 means *unlimited* by convention, so the true
    // zero-capacity regime is a budget smaller than one block: every
    // non-empty reservation must bounce, and a bounced reserve must
    // leave the pool untouched.
    const ModelSpec m = tinyModel();
    KvPool pool({1, 16}); // 1-byte budget < any whole block.
    EXPECT_FALSE(pool.unlimited());
    EXPECT_FALSE(pool.tryReserve(0, m, 1));
    EXPECT_EQ(pool.usedBytes(), 0u);
    EXPECT_EQ(pool.peakBytes(), 0u);
    EXPECT_EQ(pool.residentRequests(), 0u);
    // A 0-token reservation needs no blocks and must still be allowed
    // (a request can exist with its cache fully pruned away).
    EXPECT_TRUE(pool.tryReserve(0, m, 0));
    EXPECT_EQ(pool.usedBytes(), 0u);
    EXPECT_EQ(pool.residentRequests(), 1u);
    pool.release(0);
    EXPECT_EQ(pool.residentRequests(), 0u);
}

TEST(KvPool, ReservationShrinksToZeroAfterFullPruneAndRegrows)
{
    const ModelSpec m = tinyModel();
    KvPool pool({16 * 16 * 4096, 16});
    ASSERT_TRUE(pool.tryReserve(7, m, 32));
    const std::uint64_t before = pool.usedBytes();
    EXPECT_GT(before, 0u);
    // Cascade pruning can leave zero survivors: the reservation must
    // shrink to zero bytes yet stay resident (the request still owns
    // its slot and will grow again next decode step).
    EXPECT_TRUE(pool.tryResize(7, m, 0));
    EXPECT_EQ(pool.usedBytes(), 0u);
    EXPECT_EQ(pool.residentRequests(), 1u);
    EXPECT_EQ(pool.peakBytes(), before) << "peak is a high-water mark";
    EXPECT_TRUE(pool.tryResize(7, m, 1)) << "regrowth from zero";
    EXPECT_EQ(pool.usedBytes(), pool.bytesForTokens(m, 1));
    pool.release(7);
    EXPECT_EQ(pool.usedBytes(), 0u);
}

TEST(KvPool, SingleRequestExceedingWholeBudgetBouncesCleanly)
{
    const ModelSpec m = tinyModel(); // 4096 B per token.
    KvPool pool({4 * 16 * 4096, 16}); // 4-block budget.
    // 5 blocks > the whole budget: rejected with no side effects, and
    // the pool must remain fully usable for requests that do fit.
    EXPECT_FALSE(pool.tryReserve(0, m, 16 * 5));
    EXPECT_EQ(pool.usedBytes(), 0u);
    EXPECT_EQ(pool.peakBytes(), 0u);
    EXPECT_EQ(pool.residentRequests(), 0u);
    EXPECT_TRUE(pool.tryReserve(0, m, 16 * 4))
        << "an exactly-budget-sized request must fit";
    EXPECT_EQ(pool.usedBytes(), pool.capacityBytes());
    // And a resident request can never grow past the whole budget.
    EXPECT_FALSE(pool.tryResize(0, m, 16 * 5));
    EXPECT_EQ(pool.usedBytes(), pool.capacityBytes());
}

TEST(KvPool, WiderKvElementsChargeProportionallyMoreBytes)
{
    // The fp32 platform backends reserve at bytes_per_elem = 4: the
    // same token count must charge exactly twice the fp16-equivalent
    // bytes, halving how many requests a shared budget admits.
    const ModelSpec m = tinyModel();
    const KvPool fp16({0, 16, 2});
    const KvPool fp32({0, 16, 4});
    EXPECT_EQ(fp32.bytesForTokens(m, 16), 2 * fp16.bytesForTokens(m, 16));
    KvPool pool({2 * 16 * 4096 * 2, 16, 4}); // 2 fp32 blocks.
    EXPECT_TRUE(pool.tryReserve(0, m, 16));
    EXPECT_FALSE(pool.tryReserve(1, m, 32))
        << "fp32 blocks are twice as expensive";
}

// ---------------------------------------------------------------------
// KV capacity: admission control, preemption, pruning headroom
// ---------------------------------------------------------------------

/// A saturating trace (everyone arrives ~at once) with dense KV and
/// long outputs so the caches only grow — the worst case for capacity.
std::vector<TracedRequest>
denseSaturatingTrace(std::size_t n = 16)
{
    auto tc = tinyTraceConfig(n);
    tc.mean_interarrival_s = 1e-6;
    tc.policy = PruningPolicy::disabled();
    tc.min_output = 16;
    tc.max_output = 32;
    return generatePoissonTrace(tc);
}

/// Fine 4-token blocks + 1.25x-worst budget: admission packs the pool
/// nearly full and decode growth crosses block boundaries often, so
/// preemption pressure is guaranteed.
ContinuousBatchConfig
cappedConfig(const std::vector<TracedRequest>& trace)
{
    ContinuousBatchConfig sc;
    sc.max_active = 8;
    sc.kv_block_tokens = 4;
    sc.kv_capacity_bytes = kvBudgetForWorstRequest(trace, 1.25, sc);
    return sc;
}

TEST(ContinuousScheduler, WorstRequestBudgetIsThePerRequestMaximum)
{
    // Two models interleaved, plus a request on the default template:
    // the tiny model's requests are the longest, but gpt2's 9x wider
    // tokens make one of its shorter requests the worst.
    const auto tiny = generatePoissonTrace(tinyTraceConfig(24, 0xa1));
    auto gc = tinyTraceConfig(24, 0xa2);
    gc.model = ModelSpec::gpt2Small();
    gc.min_prompt = 16;
    gc.max_prompt = 24;
    gc.min_output = 1;
    gc.max_output = 4;
    const auto gpt2 = generatePoissonTrace(gc);
    std::vector<TracedRequest> trace;
    for (std::size_t i = 0; i < tiny.size(); ++i) {
        trace.push_back(tiny[i]);
        trace.push_back(gpt2[i]);
    }
    TracedRequest bare;
    bare.workload = {8, 0};
    trace.push_back(bare);

    for (const std::size_t block : {1u, 4u, 16u}) {
        ContinuousBatchConfig sc;
        sc.kv_block_tokens = block;
        const KvPool probe({0, block, 2});
        std::uint64_t worst = 0, longest_bytes = 0;
        std::size_t longest = 0;
        for (const TracedRequest& r : trace) {
            const std::size_t tokens =
                r.workload.summarize_len + r.workload.generate_len;
            const std::uint64_t bytes = probe.bytesForTokens(r.model(), tokens);
            worst = std::max(worst, bytes);
            if (tokens > longest) {
                longest = tokens;
                longest_bytes = bytes;
            }
        }
        ASSERT_LT(longest_bytes, worst) << "the longest request must not "
                                           "be the worst one";
        EXPECT_EQ(kvBudgetForWorstRequest(trace, 1.0, sc), worst);
        EXPECT_EQ(kvBudgetForWorstRequest(trace, 1.25, sc),
                  static_cast<std::uint64_t>(static_cast<double>(worst) *
                                             1.25));
    }
    EXPECT_EQ(kvBudgetForWorstRequest({}, 1.25), 0u);
}

TEST(ContinuousScheduler, MemoryCappedRunPreemptsAndFinishesEveryone)
{
    const auto trace = denseSaturatingTrace();
    ContinuousBatchConfig sc = cappedConfig(trace);
    const ServeReport r = serve(trace, sc);
    EXPECT_GE(r.preemptions, 1u)
        << "a 1.25x-worst-request budget must force preemption";
    EXPECT_GE(r.recompute_tokens, 1u);
    for (const ServedRequest& req : r.requests) {
        EXPECT_EQ(req.phase, RequestPhase::Finished);
        EXPECT_EQ(req.tokens, trace[req.id].workload.generate_len)
            << "preempted requests must still complete in full";
    }
    std::size_t preempted = 0, recompute = 0;
    for (const ServedRequest& req : r.requests) {
        preempted += req.preemptions;
        recompute += req.recompute_tokens;
    }
    EXPECT_EQ(preempted, r.preemptions);
    EXPECT_EQ(recompute, r.recompute_tokens);
    ASSERT_EQ(r.kv_peak_bytes.size(), 1u);
    EXPECT_LE(r.kv_peak_bytes[0], sc.kv_capacity_bytes)
        << "the pool must never exceed its budget";
    EXPECT_GT(r.kv_peak_bytes[0], 0u);
    EXPECT_GT(r.kv_mean_bytes[0], 0.0);
    EXPECT_LE(r.kv_mean_bytes[0],
              static_cast<double>(r.kv_peak_bytes[0]));
    EXPECT_EQ(r.kv_capacity_bytes, sc.kv_capacity_bytes);
}

TEST(ContinuousScheduler, UncappedRunNeverPreempts)
{
    const auto trace = denseSaturatingTrace();
    const ServeReport r = serve(trace, ContinuousBatchConfig{});
    EXPECT_EQ(r.preemptions, 0u);
    EXPECT_EQ(r.recompute_tokens, 0u);
    for (const ServedRequest& req : r.requests)
        EXPECT_EQ(req.preemptions, 0u);
}

TEST(ContinuousScheduler, CascadePruningAdmitsHigherConcurrency)
{
    // Same demand, same KV budget; the only difference is the policy.
    // Pruned prompts shrink after prefill (and keep shrinking during
    // decode), so strictly more requests fit the pool at once.
    auto tc = tinyTraceConfig(16);
    tc.mean_interarrival_s = 1e-6;
    tc.policy = PruningPolicy::disabled();
    const auto dense_trace = generatePoissonTrace(tc);
    tc.policy = PruningPolicy{};
    const auto pruned_trace = generatePoissonTrace(tc);

    ContinuousBatchConfig sc;
    sc.max_active = 8;
    sc.kv_capacity_bytes = kvBudgetForWorstRequest(dense_trace, 2.0, sc);
    const ServeReport dense = serve(dense_trace, sc);
    const ServeReport pruned = serve(pruned_trace, sc);
    EXPECT_GT(pruned.peak_concurrency, dense.peak_concurrency)
        << "pruning must free KV blocks and admit more concurrency";
    EXPECT_LE(pruned.preemptions, dense.preemptions);
}

TEST(ContinuousScheduler, MemoryCappedRunBitIdenticalAcrossThreads)
{
    const auto trace = denseSaturatingTrace();
    ContinuousBatchConfig sc = cappedConfig(trace);
    sc.num_threads = 1;
    const ServeReport ref = serve(trace, sc);
    ASSERT_GE(ref.preemptions, 1u) << "the scenario must have pressure";
    for (const std::size_t threads : {2u, 8u}) {
        sc.num_threads = threads;
        const ServeReport r = serve(trace, sc);
        EXPECT_EQ(r.preemptions, ref.preemptions);
        EXPECT_EQ(r.recompute_tokens, ref.recompute_tokens);
        EXPECT_EQ(r.peak_concurrency, ref.peak_concurrency);
        EXPECT_EQ(r.kv_peak_bytes, ref.kv_peak_bytes);
        EXPECT_EQ(r.kv_mean_bytes, ref.kv_mean_bytes);
        EXPECT_EQ(r.makespan_s, ref.makespan_s);
        for (std::size_t i = 0; i < r.requests.size(); ++i) {
            EXPECT_EQ(r.requests[i].preemptions,
                      ref.requests[i].preemptions);
            EXPECT_EQ(r.requests[i].finish_s, ref.requests[i].finish_s);
            EXPECT_EQ(r.requests[i].token_times_s,
                      ref.requests[i].token_times_s);
            EXPECT_EQ(r.requests[i].service_seconds,
                      ref.requests[i].service_seconds);
        }
    }
}

TEST(ContinuousScheduler, PreemptedRequestsRespectCausalityAcrossAccels)
{
    // A preempted request re-enters the queue eligible from its
    // *eviction* time, so an idle accelerator with a lagging clock can
    // never re-admit it in the simulated past. The violated invariant
    // was physical: busy service time cannot exceed wall-clock lifetime.
    const auto trace = denseSaturatingTrace();
    for (const std::size_t accels : {2u, 3u}) {
        ContinuousBatchConfig sc = cappedConfig(trace);
        sc.shard = ShardPolicy::LeastLoaded;
        const ServeReport r = serve(trace, sc, accels);
        ASSERT_GE(r.preemptions, 1u) << "the scenario must have pressure";
        for (const ServedRequest& req : r.requests) {
            EXPECT_LE(req.service_seconds,
                      req.finish_s - req.arrival_s + 1e-12)
                << "request " << req.id << " on " << accels
                << " accels served longer than it existed";
            EXPECT_GE(req.admit_s, req.arrival_s);
            EXPECT_GT(req.first_token_s, req.admit_s);
            EXPECT_GE(req.finish_s, req.first_token_s);
        }
    }
}

TEST(ContinuousScheduler, MemoryCappedRepeatedRunsAreIdentical)
{
    const auto trace = denseSaturatingTrace(12);
    ContinuousBatchConfig sc = cappedConfig(trace);
    const ServeReport a = serve(trace, sc);
    const ServeReport b = serve(trace, sc);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.makespan_s, b.makespan_s);
    EXPECT_EQ(a.kv_peak_bytes, b.kv_peak_bytes);
    for (std::size_t i = 0; i < a.requests.size(); ++i)
        EXPECT_EQ(a.requests[i].finish_s, b.requests[i].finish_s);
}

// ---------------------------------------------------------------------
// Queue policies and preemption victim selection
// ---------------------------------------------------------------------

/// Four simultaneous arrivals with hand-set priorities and prompt
/// lengths chosen so FIFO, Priority, and SPF all disagree.
std::vector<TracedRequest>
policyProbeTrace()
{
    std::vector<TracedRequest> trace;
    const std::size_t prompts[] = {160, 48, 96, 64};
    const int priorities[] = {0, 1, 3, 2};
    for (std::size_t i = 0; i < 4; ++i) {
        TracedRequest req;
        req.id = i;
        req.arrival_s = 1e-6; // Simultaneous (beyond id order).
        req.workload = {prompts[i], 2};
        req.tmpl = tinyTemplate();
        req.priority = priorities[i];
        req.seed = 7 + i;
        trace.push_back(req);
    }
    return trace;
}

/// Trace order sorted by final admission time (max_active = 1 makes
/// admissions strictly sequential).
std::vector<std::size_t>
admissionOrder(const ServeReport& r)
{
    std::vector<std::size_t> order(r.requests.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return r.requests[a].admit_s < r.requests[b].admit_s;
              });
    return order;
}

TEST(ContinuousScheduler, FifoPolicyAdmitsInArrivalIdOrder)
{
    ContinuousBatchConfig sc;
    sc.max_active = 1;
    const ServeReport r = serve(policyProbeTrace(), sc);
    EXPECT_EQ(admissionOrder(r), (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(ContinuousScheduler, PriorityPolicyAdmitsHighestFirst)
{
    ContinuousBatchConfig sc;
    sc.max_active = 1;
    sc.queue = QueuePolicy::Priority;
    const ServeReport r = serve(policyProbeTrace(), sc);
    // Priorities {0,1,3,2} -> ids in descending priority: 2, 3, 1, 0.
    EXPECT_EQ(admissionOrder(r), (std::vector<std::size_t>{2, 3, 1, 0}));
}

TEST(ContinuousScheduler, ShortestPromptFirstAdmitsByPromptLength)
{
    ContinuousBatchConfig sc;
    sc.max_active = 1;
    sc.queue = QueuePolicy::ShortestPromptFirst;
    const ServeReport r = serve(policyProbeTrace(), sc);
    // Prompts {160,48,96,64} -> ids by ascending prompt: 1, 3, 2, 0.
    EXPECT_EQ(admissionOrder(r), (std::vector<std::size_t>{1, 3, 2, 0}));
}

TEST(ContinuousScheduler, PreemptionEvictsTheLowestPriorityRequest)
{
    // Two dense simultaneous requests on a budget that admits both
    // prompts but cannot hold both grown caches: the low-priority one
    // must be the victim, and both must still finish.
    std::vector<TracedRequest> trace;
    for (std::size_t i = 0; i < 2; ++i) {
        TracedRequest req;
        req.id = i;
        req.arrival_s = 1e-6;
        req.workload = {64, 32};
        req.tmpl = tinyTemplate(PruningPolicy::disabled());
        req.priority = i == 0 ? 0 : 5;
        req.seed = 11 + i;
        trace.push_back(req);
    }
    ContinuousBatchConfig sc;
    sc.max_active = 2;
    sc.kv_capacity_bytes = kvBudgetForWorstRequest(trace, 1.5, sc);
    const ServeReport r = serve(trace, sc);
    ASSERT_GE(r.preemptions, 1u) << "the scenario must have pressure";
    EXPECT_GE(r.requests[0].preemptions, 1u)
        << "priority 0 must be the victim";
    EXPECT_EQ(r.requests[1].preemptions, 0u)
        << "priority 5 must never be evicted";
    for (const ServedRequest& req : r.requests) {
        EXPECT_EQ(req.phase, RequestPhase::Finished);
        EXPECT_EQ(req.tokens, trace[req.id].workload.generate_len);
    }
}

TEST(ContinuousScheduler, SingleIdleRequestMatchesRunDecodeFacade)
{
    WorkloadSpec w;
    w.name = "solo";
    w.model = tinyModel();
    w.summarize_len = 96;
    w.generate_len = 5;
    const std::uint64_t seed = 42;

    const SpAttenAccelerator accel;
    const DecodeResult direct = accel.runDecode(w, PruningPolicy{}, seed);

    TracedRequest req;
    req.id = 0;
    req.arrival_s = 0.5e-3;
    req.workload = {w.summarize_len, w.generate_len};
    req.tmpl = tinyTemplate();
    req.seed = seed;
    const ServeReport r = serve({req}, ContinuousBatchConfig{});
    ASSERT_EQ(r.requests.size(), 1u);
    const ServedRequest& s = r.requests.front();

    // An idle accelerator adds no queueing: the scheduler's per-request
    // result must be the facade's, bit for bit, shifted by the arrival.
    EXPECT_EQ(s.sim.cycles, direct.result.cycles);
    EXPECT_EQ(s.sim.seconds, direct.result.seconds);
    EXPECT_EQ(s.sim.energy.totalJ(), direct.result.energy.totalJ());
    EXPECT_EQ(std::vector<std::size_t>(s.kv_trace.begin(), s.kv_trace.end()),
              direct.kv_lengths);
    EXPECT_EQ(s.admit_s, req.arrival_s);
    EXPECT_NEAR(s.first_token_s,
                req.arrival_s + direct.prefill_seconds +
                    direct.step_seconds.front(),
                1e-12);
    EXPECT_NEAR(s.finish_s, req.arrival_s + direct.result.seconds, 1e-12);
    EXPECT_NEAR(s.service_seconds, direct.result.seconds, 1e-15);
}

/// What a finished record's result must match bit for bit.
void
expectSameSim(const RunResult& a, const RunResult& b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.dram_bytes, b.dram_bytes);
    EXPECT_EQ(a.attention_flops, b.attention_flops);
    EXPECT_EQ(a.energy.totalJ(), b.energy.totalJ());
    EXPECT_TRUE(a.stats.sameValues(b.stats));
}

// Requests of one trace may point at different templates (quickstart
// mixes two policies): each must be served under its own model and
// policy, exactly as a one-request trace of that template is, not
// under a neighbour's. Equal lengths and seeds leave the template as
// the only difference between requests.
TEST(ContinuousScheduler, MixedTemplatesServeEachRequestUnderItsOwn)
{
    const ModelSpec models[] = {tinyModel(), {"tiny-deep", 6, 4, 64, 4}};
    const PruningPolicy policies[] = {PruningPolicy{},
                                      PruningPolicy::disabled()};
    std::vector<std::shared_ptr<const RequestTemplate>> templates;
    for (const ModelSpec& m : models)
        for (const PruningPolicy& p : policies)
            templates.push_back(std::make_shared<const RequestTemplate>(
                RequestTemplate{m, p}));

    std::vector<TracedRequest> trace(2 * templates.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        trace[i].id = i;
        trace[i].arrival_s = 1e-6 * static_cast<double>(i);
        trace[i].workload = {64, 4};
        trace[i].tmpl = templates[i % templates.size()];
        trace[i].seed = 21;
    }
    const ServeReport mixed = serve(trace, ContinuousBatchConfig{});
    ASSERT_EQ(mixed.requests.size(), trace.size());

    std::vector<RunResult> solo;
    for (std::size_t k = 0; k < templates.size(); ++k) {
        const ServeReport one = serve({trace[k]}, ContinuousBatchConfig{});
        ASSERT_EQ(one.requests.size(), 1u);
        solo.push_back(one.requests.front().sim);
        for (std::size_t j = 0; j < k; ++j)
            EXPECT_NE(solo[j].dram_bytes, solo[k].dram_bytes)
                << "templates " << j << " and " << k
                << " must serve differently";
    }
    for (std::size_t i = 0; i < trace.size(); ++i) {
        SCOPED_TRACE("request " + std::to_string(i));
        const ServedRequest& r = mixed.requests[i];
        ASSERT_EQ(r.phase, RequestPhase::Finished);
        expectSameSim(r.sim, solo[i % templates.size()]);
    }
}

// A request without a template serves under WorkloadSpec's and
// PruningPolicy's defaults, as a default-built request always did.
TEST(ContinuousScheduler, DefaultConstructedRequestServesUnderDefaults)
{
    const TracedRequest req;
    const ServeReport r = serve({req}, ContinuousBatchConfig{});
    ASSERT_EQ(r.requests.size(), 1u);
    ASSERT_EQ(r.requests.front().phase, RequestPhase::Finished);

    const SpAttenAccelerator accel;
    const auto session =
        accel.makeSession(WorkloadSpec{}, PruningPolicy{}, req.seed);
    session->prefill();
    while (!session->done())
        session->decodeStep();
    expectSameSim(r.requests.front().sim, session->finalize());
}

// ---------------------------------------------------------------------
// Serving metrics: preemption TTFT semantics, ITL SLO and aggregates
// ---------------------------------------------------------------------

TEST(ContinuousScheduler, PreemptedRequestTimingComesFromFinalIncarnation)
{
    // The intended TTFT/ITL semantics across recompute preemptions,
    // pinned: the discarded incarnation's tokens leave no trace — the
    // timing trail (first token, per-token times, gaps) comes from the
    // final admission alone, while preemptions/recompute_tokens keep
    // the overhead visible.
    const auto trace = denseSaturatingTrace();
    ContinuousBatchConfig sc = cappedConfig(trace);
    const ServeReport r = serve(trace, sc);
    ASSERT_GE(r.preemptions, 1u) << "the scenario must have pressure";
    bool saw_preempted_with_tokens = false;
    for (const ServedRequest& req : r.requests) {
        // admit_s is the *final* admission: every surviving token was
        // emitted after it. A TTFT leaking from a discarded
        // incarnation would show first_token_s < admit_s.
        EXPECT_GE(req.first_token_s, req.admit_s);
        EXPECT_GE(req.admit_s, req.arrival_s);
        EXPECT_EQ(req.tokens, req.token_times_s.size());
        for (const double tok_s : req.token_times_s)
            EXPECT_GT(tok_s, req.admit_s);
        if (req.preemptions > 0 && req.tokens >= 1) {
            saw_preempted_with_tokens = true;
            EXPECT_EQ(req.first_token_s, req.token_times_s.front());
            // Gaps span only the final incarnation's tokens.
            EXPECT_EQ(req.interTokenGaps().size(), req.tokens - 1);
        }
    }
    EXPECT_TRUE(saw_preempted_with_tokens);
}

TEST(ContinuousScheduler, SingleTokenRequestsAutoPassItlSlo)
{
    // Requests below two tokens have no inter-token gaps, so the ITL
    // half of the SLO cannot be violated — made explicit in the config
    // docs and pinned here with an impossible ITL SLO.
    auto tc = tinyTraceConfig(8);
    tc.min_output = 0;
    tc.max_output = 1;
    const auto trace = generatePoissonTrace(tc);
    ContinuousBatchConfig sc;
    sc.slo_ttft_s = 1e9;  // TTFT side always met.
    sc.slo_itl_s = 0.0;   // ITL side unmeetable when gaps exist.
    const ServeReport r = serve(trace, sc);
    EXPECT_EQ(r.slo_met, trace.size())
        << "0/1-token requests must auto-pass the ITL SLO";
}

TEST(ContinuousScheduler, PerRequestItlAggregatesWeightRequestsEqually)
{
    const auto trace = generatePoissonTrace(tinyTraceConfig(24));
    const ServeReport r = serve(trace, ContinuousBatchConfig{});
    EXPECT_GT(r.req_itl_p99_p50_s, 0.0);
    EXPECT_GE(r.req_itl_p99_p99_s, r.req_itl_p99_p50_s);
    // Cross-check against a direct computation from the trail.
    std::vector<double> p99s;
    for (const ServedRequest& req : r.requests)
        if (req.tokens >= 2)
            p99s.push_back(req.itlP99Seconds());
    ASSERT_FALSE(p99s.empty());
    std::sort(p99s.begin(), p99s.end());
    EXPECT_EQ(r.req_itl_p99_p50_s, sortedQuantile(p99s, 0.50));
    EXPECT_EQ(r.req_itl_p99_p99_s, sortedQuantile(p99s, 0.99));
    // Every per-request p99 is bounded by that request's own extremes,
    // independent of how many gaps other requests contributed.
    for (const ServedRequest& req : r.requests) {
        const auto gaps = req.interTokenGaps();
        if (gaps.empty())
            continue;
        const auto [lo, hi] =
            std::minmax_element(gaps.begin(), gaps.end());
        EXPECT_GE(req.itlP99Seconds(), *lo);
        EXPECT_LE(req.itlP99Seconds(), *hi);
    }
}

// ---------------------------------------------------------------------
// Shared-prefix caching through the scheduler
// ---------------------------------------------------------------------

SharedPrefixTraceConfig
tinySharedPrefixConfig(std::size_t n = 16, std::uint64_t seed = 0x5eed)
{
    SharedPrefixTraceConfig sp;
    sp.base = tinyTraceConfig(n, seed);
    sp.base.mean_interarrival_s = 0.1e-3;
    sp.num_system_prompts = 2;
    sp.system_prompt_tokens = 96;
    sp.followup_prob = 0.5;
    sp.user_turn_min = 8;
    sp.user_turn_max = 32;
    sp.max_prompt_tokens = 512;
    return sp;
}

TEST(PrefixCaching, DisabledSchedulerIgnoresPromptContent)
{
    // A shared-prefix trace served with caching off must be
    // indistinguishable from the pre-caching scheduler — and a legacy
    // trace (no prompt content) served with caching ON must be
    // indistinguishable from caching off. Together: legacy behavior is
    // bit-identical unless both the flag and the content are present.
    const auto sp_trace =
        generateSharedPrefixTrace(tinySharedPrefixConfig());
    ContinuousBatchConfig sc;
    sc.enable_prefix_caching = false;
    const ServeReport off = serve(sp_trace, sc);
    EXPECT_EQ(off.prefix_cache_hits, 0u);
    EXPECT_EQ(off.prefix_cached_tokens, 0u);
    EXPECT_EQ(off.cow_copied_blocks, 0u);

    const auto legacy = generatePoissonTrace(tinyTraceConfig());
    sc.enable_prefix_caching = false;
    const ServeReport legacy_off = serve(legacy, sc);
    sc.enable_prefix_caching = true;
    const ServeReport legacy_on = serve(legacy, sc);
    EXPECT_EQ(legacy_on.prefix_cache_hits, 0u);
    EXPECT_EQ(legacy_on.makespan_s, legacy_off.makespan_s);
    for (std::size_t i = 0; i < legacy.size(); ++i) {
        EXPECT_EQ(legacy_on.requests[i].token_times_s,
                  legacy_off.requests[i].token_times_s);
        EXPECT_EQ(legacy_on.requests[i].first_token_s,
                  legacy_off.requests[i].first_token_s);
        EXPECT_EQ(legacy_on.requests[i].kv_trace,
                  legacy_off.requests[i].kv_trace);
    }
}

TEST(PrefixCaching, CachedPrefillPreservesDecodeBitIdentity)
{
    // The copy-on-write/sharing machinery is pure accounting, and a
    // cached-prefix prefill changes only the *query* count of the
    // prompt pass — cascade pruning depends on the entering context
    // length alone — so the pruned KV trajectory and every decode
    // output must be bit-identical to a cold-cache run. Cached
    // prefills may only get *cheaper*, never different.
    WorkloadSpec w;
    w.name = "cached-vs-cold";
    w.model = tinyModel();
    w.summarize_len = 128;
    w.generate_len = 8;

    const SpAttenConfig cfg;
    DecodeSession cold(cfg, w, PruningPolicy{}, 99);
    DecodeSession warm(cfg, w, PruningPolicy{}, 99);
    const double cold_prefill = cold.prefill();
    const double warm_prefill = warm.prefillWithCachedPrefix(96);
    EXPECT_LT(warm_prefill, cold_prefill)
        << "96 of 128 prompt tokens skipped must shrink the prefill";
    EXPECT_EQ(cold.kvLength(), warm.kvLength())
        << "pruning trajectory must not depend on the query count";
    while (!cold.done()) {
        const double a = cold.decodeStep();
        const double b = warm.decodeStep();
        // Step costs are differences of the session's accumulated
        // elapsed time, so the shorter prefill offset perturbs the
        // last ulps of the subtraction; the *work* is identical.
        EXPECT_NEAR(a, b, 1e-12 * a) << "decode steps must match";
        EXPECT_EQ(cold.kvLength(), warm.kvLength());
    }
    EXPECT_TRUE(warm.done());
    EXPECT_EQ(cold.kvTrace(), warm.kvTrace());

    // End to end through the scheduler (pruning ON, so shared blocks
    // diverge and exercise copy-on-write): the per-request KV
    // trajectories of a cache-on run match the cache-off run exactly.
    const auto sp_trace =
        generateSharedPrefixTrace(tinySharedPrefixConfig());
    ContinuousBatchConfig sc;
    sc.max_active = 8;
    const ServeReport off = serve(sp_trace, sc);
    sc.enable_prefix_caching = true;
    const ServeReport on = serve(sp_trace, sc);
    EXPECT_GE(on.prefix_cache_hits, 1u);
    for (std::size_t i = 0; i < sp_trace.size(); ++i) {
        EXPECT_EQ(on.requests[i].kv_trace, off.requests[i].kv_trace);
        EXPECT_EQ(on.requests[i].tokens, off.requests[i].tokens);
        EXPECT_EQ(on.requests[i].phase, RequestPhase::Finished);
    }
}

TEST(PrefixCaching, SharingRaisesConcurrencyUnderSameBudget)
{
    // The admission-control claim: at the same KV budget, mapping
    // shared blocks copy-free admits strictly more concurrent
    // residents and improves median TTFT. Dense policy keeps blocks
    // shared for whole residencies (no pruning divergence).
    auto sp = tinySharedPrefixConfig(24);
    sp.base.policy = PruningPolicy::disabled();
    sp.base.mean_interarrival_s = 0.02e-3;
    const auto trace = generateSharedPrefixTrace(sp);
    ContinuousBatchConfig sc;
    sc.max_active = 12;
    sc.kv_capacity_bytes = kvBudgetForWorstRequest(trace, 1.25, sc);
    const ServeReport off = serve(trace, sc);
    sc.enable_prefix_caching = true;
    const ServeReport on = serve(trace, sc);
    EXPECT_GE(on.prefix_cache_hits, 1u);
    EXPECT_GT(on.prefix_shared_bytes, 0u);
    EXPECT_GT(on.peak_concurrency, off.peak_concurrency);
    EXPECT_LT(on.ttft_p50_s, off.ttft_p50_s);
    for (const ServedRequest& req : on.requests)
        EXPECT_EQ(req.phase, RequestPhase::Finished);
}

TEST(PrefixCaching, CacheOnRunIsBitIdenticalAcrossThreadCounts)
{
    // The determinism contract extends to caching + copy-on-write
    // preemption: the full report is a pure function of (config,
    // trace) at any host thread count.
    auto sp = tinySharedPrefixConfig(16);
    sp.base.mean_interarrival_s = 0.02e-3;
    const auto trace = generateSharedPrefixTrace(sp);
    ContinuousBatchConfig sc;
    sc.max_active = 8;
    sc.kv_block_tokens = 4;
    sc.kv_capacity_bytes = kvBudgetForWorstRequest(trace, 1.25, sc);
    sc.enable_prefix_caching = true;
    sc.num_threads = 1;
    const ServeReport ref = serve(trace, sc);
    for (const std::size_t threads : {2u, 8u}) {
        sc.num_threads = threads;
        const ServeReport r = serve(trace, sc);
        EXPECT_EQ(r.makespan_s, ref.makespan_s);
        EXPECT_EQ(r.preemptions, ref.preemptions);
        EXPECT_EQ(r.prefix_cache_hits, ref.prefix_cache_hits);
        EXPECT_EQ(r.prefix_cached_tokens, ref.prefix_cached_tokens);
        EXPECT_EQ(r.cow_copied_blocks, ref.cow_copied_blocks);
        for (std::size_t i = 0; i < r.requests.size(); ++i) {
            EXPECT_EQ(r.requests[i].token_times_s,
                      ref.requests[i].token_times_s);
            EXPECT_EQ(r.requests[i].first_token_s,
                      ref.requests[i].first_token_s);
            EXPECT_EQ(r.requests[i].cached_prefix_tokens,
                      ref.requests[i].cached_prefix_tokens);
        }
    }
}

// ---------------------------------------------------------------------
// Report aggregates against the former sort-and-sweep oracle
// ---------------------------------------------------------------------

std::uint64_t
bitsOf(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

/// The report's former aggregation: copy the samples, sort, then
/// sortedQuantile.
double
sortedCopyQuantile(std::vector<double> samples, double q)
{
    std::sort(samples.begin(), samples.end());
    return sortedQuantile(samples, q);
}

/// Every percentile of @p r equals the sorted-copy oracle's, bit for
/// bit: the pooled ones and the per-request ITL p99 aggregates.
void
expectQuantilesMatchSortedCopy(const ServeReport& r)
{
    std::vector<double> ttfts, qdelays, itls, req_p99s;
    for (const ServedRequest& req : r.requests) {
        ttfts.push_back(req.ttftSeconds());
        qdelays.push_back(req.queueDelaySeconds());
        std::vector<double> own;
        for (std::size_t i = 1; i < req.token_times_s.size(); ++i)
            own.push_back(req.token_times_s[i] - req.token_times_s[i - 1]);
        itls.insert(itls.end(), own.begin(), own.end());
        if (req.tokens >= 2) {
            const double p99 = sortedCopyQuantile(own, 0.99);
            EXPECT_EQ(bitsOf(req.itlP99Seconds()), bitsOf(p99));
            req_p99s.push_back(p99);
        }
    }
    EXPECT_EQ(bitsOf(r.req_itl_p99_p50_s),
              bitsOf(sortedCopyQuantile(req_p99s, 0.50)));
    EXPECT_EQ(bitsOf(r.req_itl_p99_p99_s),
              bitsOf(sortedCopyQuantile(req_p99s, 0.99)));
    EXPECT_EQ(bitsOf(r.ttft_p50_s), bitsOf(sortedCopyQuantile(ttfts, 0.50)));
    EXPECT_EQ(bitsOf(r.ttft_p99_s), bitsOf(sortedCopyQuantile(ttfts, 0.99)));
    EXPECT_EQ(bitsOf(r.queue_delay_p50_s),
              bitsOf(sortedCopyQuantile(qdelays, 0.50)));
    EXPECT_EQ(bitsOf(r.queue_delay_p99_s),
              bitsOf(sortedCopyQuantile(qdelays, 0.99)));
    EXPECT_EQ(bitsOf(r.itl_p50_s), bitsOf(sortedCopyQuantile(itls, 0.50)));
    EXPECT_EQ(bitsOf(r.itl_p99_s), bitsOf(sortedCopyQuantile(itls, 0.99)));
}

/// peak_concurrency by the former (time, +/-1) event sweep (ends
/// before starts at equal times) over each request's final residency
/// [admit_s, finish_s). Preempted incarnations leave no record, so
/// this is every residency only when nothing was preempted.
std::size_t
finalResidencySweepPeak(const ServeReport& r)
{
    std::vector<std::pair<double, int>> events;
    for (const ServedRequest& req : r.requests) {
        events.emplace_back(req.admit_s, +1);
        events.emplace_back(req.finish_s, -1);
    }
    std::sort(events.begin(), events.end());
    std::ptrdiff_t depth = 0, peak = 0;
    for (const auto& [time, delta] : events) {
        depth += delta;
        peak = std::max(peak, depth);
    }
    return static_cast<std::size_t>(peak);
}

TEST(ReportOracle, PreemptingTightBudgetHeterogeneousFleet)
{
    auto tc = tinyTraceConfig(24);
    tc.mean_interarrival_s = 1e-6;
    tc.policy = PruningPolicy::disabled();
    tc.min_output = 16;
    tc.max_output = 32;
    const auto trace = generatePoissonTrace(tc);
    ContinuousBatchConfig sc;
    sc.max_active = 6;
    sc.kv_block_tokens = 4;
    sc.kv_capacity_bytes = kvBudgetForWorstRequest(trace, 1.5, sc, 2);
    const AcceleratorFleet fleet{
        std::make_shared<const SpAttenAccelerator>(SpAttenConfig::eighth()),
        std::make_shared<const SpAttenAccelerator>(SpAttenConfig::eighth()),
        std::make_shared<const A3Backend>()};
    const ServeReport r = ContinuousBatchScheduler(fleet, sc).run(trace);
    ASSERT_GE(r.preemptions, 1u);
    expectQuantilesMatchSortedCopy(r);
    // The evicted incarnations' residencies count too, and the records
    // do not keep them: the former event sweep over all of them gave
    // 7 on this trace (measured before the sweep became maxOverlap).
    // The final residencies alone bound it from below.
    EXPECT_EQ(r.peak_concurrency, 7u);
    EXPECT_GE(r.peak_concurrency, finalResidencySweepPeak(r));
}

TEST(ReportOracle, ZeroAndOneTokenTrace)
{
    auto tc = tinyTraceConfig(32);
    tc.min_output = 0;
    tc.max_output = 1;
    const auto trace = generatePoissonTrace(tc);
    ContinuousBatchConfig sc;
    sc.max_active = 4;
    const ServeReport r = serve(trace, sc, /*accels=*/2);
    ASSERT_EQ(r.preemptions, 0u);
    std::size_t zero = 0, one = 0;
    for (const ServedRequest& req : r.requests) {
        zero += req.tokens == 0 ? 1 : 0;
        one += req.tokens == 1 ? 1 : 0;
    }
    ASSERT_GT(zero, 0u);
    ASSERT_GT(one, 0u);
    // No request has two tokens, so there are no gaps to pool.
    EXPECT_EQ(bitsOf(r.itl_p50_s), bitsOf(0.0));
    EXPECT_EQ(bitsOf(r.itl_p99_s), bitsOf(0.0));
    expectQuantilesMatchSortedCopy(r);
    EXPECT_EQ(r.peak_concurrency, finalResidencySweepPeak(r));
}

TEST(ReportOracle, ChunkedPrefixCachedTrace)
{
    const auto trace = generateSharedPrefixTrace(tinySharedPrefixConfig(24));
    ContinuousBatchConfig sc;
    sc.max_active = 8;
    sc.enable_prefix_caching = true;
    sc.prefill_chunk_tokens = 32;
    sc.iteration_token_budget = 48;
    const ServeReport r = serve(trace, sc, /*accels=*/2);
    ASSERT_EQ(r.preemptions, 0u);
    ASSERT_GE(r.prefix_cache_hits, 1u);
    std::size_t chunked = 0;
    for (const ServedRequest& req : r.requests)
        chunked += req.prefill_chunks > 1 ? 1 : 0;
    ASSERT_GT(chunked, 0u);
    expectQuantilesMatchSortedCopy(r);
    EXPECT_EQ(r.peak_concurrency, finalResidencySweepPeak(r));
}

} // namespace
} // namespace spatten
