/// Chunked prefill (Sarathi-style stall-free batching) and its serving
/// ride-alongs: session-level chunk-vs-monolithic bit-identity of the
/// KV trajectory and decode stream (SpAtten and the dense adapters),
/// the scheduler's chunk-size=infinity and chunking-off legacy
/// equivalence, thread-count and shard-count determinism with chunking
/// on, composition with shared-prefix caching, mid-prefill preemption
/// recovery, the iteration token budget's chunk arithmetic,
/// head-of-line admission blocking, per-accel busy accounting
/// coherence on heterogeneous fleets, and the queue-delay percentiles.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "accel/decode_session.hpp"
#include "accel/spatten_accelerator.hpp"
#include "baselines/baseline_backends.hpp"
#include "serve/continuous_batch_scheduler.hpp"
#include "sim/stats.hpp"

namespace spatten {
namespace {

/// A small 4-layer model keeps each scheduler run to a few milliseconds
/// of host time while exercising every code path.
ModelSpec
tinyModel()
{
    return {"tiny", 4, 4, 64, 4};
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

/// Saturating dense demand under a tight budget: guaranteed admission
/// and preemption pressure (mirrors the scheduler suite's fixture).
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

ContinuousBatchConfig
cappedConfig(const std::vector<TracedRequest>& trace)
{
    ContinuousBatchConfig sc;
    sc.max_active = 8;
    sc.kv_block_tokens = 4;
    sc.kv_capacity_bytes = kvBudgetForWorstRequest(trace, 1.25, sc);
    return sc;
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

/// Full-report bit-identity: every timestamp and metric equal.
void
expectSameReport(const ServeReport& a, const ServeReport& b)
{
    EXPECT_EQ(a.makespan_s, b.makespan_s);
    EXPECT_EQ(a.total_cycles, b.total_cycles);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.recompute_tokens, b.recompute_tokens);
    EXPECT_EQ(a.peak_concurrency, b.peak_concurrency);
    EXPECT_EQ(a.accel_busy_s, b.accel_busy_s);
    EXPECT_EQ(a.kv_peak_bytes, b.kv_peak_bytes);
    EXPECT_EQ(a.queue_delay_p50_s, b.queue_delay_p50_s);
    EXPECT_EQ(a.queue_delay_p99_s, b.queue_delay_p99_s);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].admit_s, b.requests[i].admit_s);
        EXPECT_EQ(a.requests[i].first_token_s, b.requests[i].first_token_s);
        EXPECT_EQ(a.requests[i].finish_s, b.requests[i].finish_s);
        EXPECT_EQ(a.requests[i].token_times_s, b.requests[i].token_times_s);
        expectSameService(a.requests[i], b.requests[i]);
    }
}

// ---------------------------------------------------------------------
// Session level: chunk stream == monolithic prefill
// ---------------------------------------------------------------------

TEST(ChunkedPrefillSession, SpattenChunksMatchMonolithicKvAndDecode)
{
    // ExecutionContext::beginPass resets the cascade state fresh per
    // pass, so pruning depends only on the entering context length: the
    // final chunk (full prompt context) must leave exactly the KV state
    // a monolithic prefill leaves, and every decode step after it must
    // cost the same.
    WorkloadSpec w;
    w.name = "chunked-vs-mono";
    w.model = tinyModel();
    w.summarize_len = 128;
    w.generate_len = 8;

    const SpAttenConfig cfg;
    DecodeSession mono(cfg, w, PruningPolicy{}, 99);
    DecodeSession chunked(cfg, w, PruningPolicy{}, 99);
    const double mono_prefill = mono.prefill();
    double chunk_total = 0.0;
    for (std::size_t off = 0; off < 128; off += 32) {
        EXPECT_FALSE(chunked.prefilled());
        chunk_total += chunked.prefillChunk(off, 32);
    }
    EXPECT_TRUE(chunked.prefilled());
    EXPECT_EQ(chunked.kvLength(), mono.kvLength())
        << "the final chunk must leave the monolithic pruned KV state";
    // Earlier chunks attend to shorter contexts than the monolithic
    // pass's full square, so the chunked prompt work is strictly less.
    EXPECT_LT(chunk_total, mono_prefill);
    while (!mono.done()) {
        const double a = mono.decodeStep();
        const double b = chunked.decodeStep();
        // Step costs are differences of accumulated elapsed time, so
        // the cheaper prefill offset perturbs the last ulps only.
        EXPECT_NEAR(a, b, 1e-12 * a) << "decode steps must match";
        EXPECT_EQ(mono.kvLength(), chunked.kvLength());
    }
    EXPECT_TRUE(chunked.done());
    EXPECT_EQ(mono.kvTrace(), chunked.kvTrace());
}

TEST(ChunkedPrefillSession, DenseAdapterChunksMatchMonolithicDecode)
{
    // The dense adapters price a chunk at the query x context share of
    // the one-shot prompt pass: cheaper than monolithic in total, with
    // a bit-identical dense context for every subsequent decode step,
    // and the full-prompt dense FLOP reference counted exactly once.
    WorkloadSpec w;
    w.name = "a3-chunked";
    w.model = tinyModel();
    w.summarize_len = 128;
    w.generate_len = 6;

    const A3Backend backend;
    auto mono = backend.makeSession(w, PruningPolicy::disabled(), 1);
    auto chunked = backend.makeSession(w, PruningPolicy::disabled(), 1);
    const double mono_prefill = mono->prefill();
    double chunk_total = 0.0;
    for (std::size_t off = 0; off < 128; off += 32) {
        EXPECT_FALSE(chunked->prefilled());
        chunk_total += chunked->prefillChunk(off, 32);
    }
    EXPECT_TRUE(chunked->prefilled());
    EXPECT_EQ(chunked->kvLength(), w.summarize_len);
    EXPECT_LT(chunk_total, mono_prefill);
    while (!mono->done()) {
        // Dense step costs depend only on the context length — exact.
        EXPECT_EQ(mono->decodeStep(), chunked->decodeStep());
        EXPECT_EQ(mono->kvLength(), chunked->kvLength());
    }
    EXPECT_TRUE(chunked->done());
    EXPECT_EQ(mono->kvTrace(), chunked->kvTrace());
    const RunResult rm = mono->finalize();
    const RunResult rc = chunked->finalize();
    EXPECT_EQ(rm.attention_flops_dense, rc.attention_flops_dense)
        << "the dense reference is per prompt, not per chunk";
    EXPECT_LT(rc.attention_flops, rm.attention_flops);
    EXPECT_LT(rc.seconds, rm.seconds);
}

// ---------------------------------------------------------------------
// Scheduler: chunk size >= prompt (and chunking off) == legacy
// ---------------------------------------------------------------------

TEST(ChunkedScheduler, InfiniteChunkSizeIsBitIdenticalToMonolithic)
{
    // With a chunk size and budget larger than any iteration's demand,
    // every prompt grant covers the whole remaining prompt and takes
    // the legacy monolithic path — the run must be bit-identical to
    // the chunking-off scheduler, including under KV pressure.
    const auto trace = denseSaturatingTrace();
    ContinuousBatchConfig sc = cappedConfig(trace);
    const ServeReport off = serve(trace, sc);
    ASSERT_GE(off.preemptions, 1u) << "the scenario must have pressure";

    sc.prefill_chunk_tokens = 1u << 20;
    sc.iteration_token_budget = 1u << 20;
    const ServeReport on = serve(trace, sc);
    expectSameReport(off, on);
    for (const ServedRequest& req : on.requests)
        EXPECT_EQ(req.prefill_chunks, 1u)
            << "an uncapped grant is one monolithic prompt pass";
}

TEST(ChunkedScheduler, ChunkedRunBitIdenticalAcrossThreads)
{
    const auto trace = denseSaturatingTrace();
    ContinuousBatchConfig sc = cappedConfig(trace);
    sc.prefill_chunk_tokens = 32;
    sc.iteration_token_budget = 48;
    sc.num_threads = 1;
    const ServeReport ref = serve(trace, sc);
    ASSERT_GE(ref.preemptions, 1u) << "the scenario must have pressure";
    bool any_split = false;
    for (const ServedRequest& req : ref.requests)
        any_split |= req.prefill_chunks > 1;
    EXPECT_TRUE(any_split) << "48..160-token prompts at chunk 32 must split";
    for (const std::size_t threads : {2u, 8u}) {
        sc.num_threads = threads;
        const ServeReport r = serve(trace, sc);
        expectSameReport(ref, r);
        for (std::size_t i = 0; i < r.requests.size(); ++i)
            EXPECT_EQ(r.requests[i].prefill_chunks,
                      ref.requests[i].prefill_chunks);
    }
}

TEST(ChunkedScheduler, ChunkStreamIsPlacementIndependent)
{
    // With only the per-chunk cap engaged (no shared iteration budget),
    // a request's chunk stream is a pure function of its prompt — so
    // per-request service results stay placement-independent across
    // shard counts, exactly like monolithic prefill.
    const auto trace = generatePoissonTrace(tinyTraceConfig(16));
    ContinuousBatchConfig sc;
    sc.max_active = 4;
    sc.prefill_chunk_tokens = 32;
    const ServeReport one = serve(trace, sc);
    const ServeReport two = serve(trace, sc, 2);
    ASSERT_EQ(one.requests.size(), two.requests.size());
    for (std::size_t i = 0; i < one.requests.size(); ++i) {
        expectSameService(one.requests[i], two.requests[i]);
        EXPECT_EQ(one.requests[i].prefill_chunks,
                  two.requests[i].prefill_chunks);
    }
}

// ---------------------------------------------------------------------
// Chunked prefill x shared-prefix caching
// ---------------------------------------------------------------------

TEST(ChunkedScheduler, ComposesWithPrefixCaching)
{
    // A cached prefix shortens the chunk stream (it starts at the
    // cached boundary); the pruned KV trajectory and token counts must
    // match the unchunked cache-on run exactly.
    SharedPrefixTraceConfig sp;
    sp.base = tinyTraceConfig(16);
    sp.base.mean_interarrival_s = 0.1e-3;
    sp.num_system_prompts = 2;
    sp.system_prompt_tokens = 96;
    sp.followup_prob = 0.5;
    sp.user_turn_min = 8;
    sp.user_turn_max = 32;
    sp.max_prompt_tokens = 512;
    const auto trace = generateSharedPrefixTrace(sp);

    ContinuousBatchConfig sc;
    sc.max_active = 8;
    sc.enable_prefix_caching = true;
    const ServeReport mono = serve(trace, sc);
    ASSERT_GE(mono.prefix_cache_hits, 1u);
    sc.prefill_chunk_tokens = 32;
    const ServeReport chunked = serve(trace, sc);
    // Uncapped pool: no cached block is ever evicted, and admission
    // order is FIFO in both runs, so the hit pattern is identical.
    EXPECT_EQ(chunked.prefix_cache_hits, mono.prefix_cache_hits);
    EXPECT_EQ(chunked.prefix_cached_tokens, mono.prefix_cached_tokens);
    bool any_split = false;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(chunked.requests[i].phase, RequestPhase::Finished);
        EXPECT_EQ(chunked.requests[i].kv_trace, mono.requests[i].kv_trace);
        EXPECT_EQ(chunked.requests[i].tokens, mono.requests[i].tokens);
        EXPECT_EQ(chunked.requests[i].cached_prefix_tokens,
                  mono.requests[i].cached_prefix_tokens);
        any_split |= chunked.requests[i].prefill_chunks > 1;
    }
    EXPECT_TRUE(any_split);
}

// ---------------------------------------------------------------------
// Mid-prefill preemption
// ---------------------------------------------------------------------

TEST(ChunkedScheduler, MidPrefillPreemptionIsDeterministicAndRecovers)
{
    // Chunking holds un-prefilled residents across iterations, so KV
    // pressure can now evict a request *between chunks*. The victim
    // must finalize its partial pass into the wasted totals, recompute
    // from scratch on re-admission, and the whole run must stay a pure
    // function of (config, trace).
    const auto trace = denseSaturatingTrace();
    ContinuousBatchConfig sc = cappedConfig(trace);
    sc.prefill_chunk_tokens = 16;
    sc.iteration_token_budget = 32;
    const ServeReport a = serve(trace, sc);
    const ServeReport b = serve(trace, sc);
    expectSameReport(a, b);
    EXPECT_GE(a.preemptions, 1u) << "the scenario must have pressure";
    for (const ServedRequest& req : a.requests) {
        EXPECT_EQ(req.phase, RequestPhase::Finished);
        EXPECT_EQ(req.tokens, trace[req.id].workload.generate_len)
            << "preempted requests must still complete in full";
        EXPECT_GE(req.prefill_chunks, 1u);
    }
    ASSERT_EQ(a.kv_peak_bytes.size(), 1u);
    EXPECT_LE(a.kv_peak_bytes[0], sc.kv_capacity_bytes);
}

// ---------------------------------------------------------------------
// Iteration token budget arithmetic
// ---------------------------------------------------------------------

TEST(ChunkedScheduler, IterationBudgetBoundsChunkSizes)
{
    // One request, no residents: every iteration's chunk is exactly
    // the budget, so a 160-token prompt at budget 16 takes 10 chunks
    // (and ceil(160/64) = 3 at chunk size 64 with no budget) — with
    // the same tokens and KV trajectory as the monolithic run.
    TracedRequest req;
    req.id = 0;
    req.arrival_s = 1e-6;
    req.workload = {160, 2};
    req.tmpl = std::make_shared<const RequestTemplate>(
        RequestTemplate{tinyModel(), PruningPolicy{}});
    req.seed = 7;
    const std::vector<TracedRequest> trace{req};

    ContinuousBatchConfig sc;
    const ServeReport mono = serve(trace, sc);
    EXPECT_EQ(mono.requests[0].prefill_chunks, 1u);

    sc.iteration_token_budget = 16;
    const ServeReport budgeted = serve(trace, sc);
    EXPECT_EQ(budgeted.requests[0].prefill_chunks, 10u);
    EXPECT_EQ(budgeted.requests[0].kv_trace, mono.requests[0].kv_trace);
    EXPECT_EQ(budgeted.requests[0].tokens, mono.requests[0].tokens);

    sc.iteration_token_budget = 0;
    sc.prefill_chunk_tokens = 64;
    const ServeReport sized = serve(trace, sc);
    EXPECT_EQ(sized.requests[0].prefill_chunks, 3u);
    EXPECT_EQ(sized.requests[0].kv_trace, mono.requests[0].kv_trace);
}

// ---------------------------------------------------------------------
// Head-of-line admission
// ---------------------------------------------------------------------

TEST(HeadOfLineAdmission, BlockedPriorityHeadHoldsBackFittingRequest)
{
    // The first candidate whose prompt KV does not fit the pool blocks
    // admission until residents drain — under every queue policy.
    // Three simultaneous arrivals: A (priority 10, small) is admitted
    // first; B (priority 5, 256-token prompt) fails its reservation at
    // a 1.1x-worst budget; C (priority 1, small) would fit but waits
    // behind B. Nothing starves: every request finishes.
    std::vector<TracedRequest> trace;
    const std::size_t prompts[] = {64, 256, 48};
    const std::size_t outputs[] = {32, 2, 4};
    const int priorities[] = {10, 5, 1};
    const auto dense = std::make_shared<const RequestTemplate>(
        RequestTemplate{tinyModel(), PruningPolicy::disabled()});
    for (std::size_t i = 0; i < 3; ++i) {
        TracedRequest req;
        req.id = i;
        req.arrival_s = 1e-6;
        req.workload = {prompts[i], outputs[i]};
        req.tmpl = dense;
        req.priority = priorities[i];
        req.seed = 7 + i;
        trace.push_back(req);
    }
    ContinuousBatchConfig sc;
    sc.max_active = 4;
    sc.queue = QueuePolicy::Priority;
    sc.kv_capacity_bytes = kvBudgetForWorstRequest(trace, 1.1, sc);

    const ServeReport blocked = serve(trace, sc);
    for (const ServedRequest& req : blocked.requests)
        EXPECT_EQ(req.phase, RequestPhase::Finished);
    EXPECT_GT(blocked.requests[2].admit_s, blocked.requests[1].admit_s)
        << "C must wait behind the blocked head B";
}

// ---------------------------------------------------------------------
// Metric audits: per-member busy charging, queue-delay percentiles
// ---------------------------------------------------------------------

TEST(ServeMetrics, BusySecondsMatchSummedServiceAcrossFleet)
{
    // busy_s accumulates the serialized executed job seconds of each
    // iteration; with no preemption every executed second belongs to
    // exactly one request, so per-slot busy must equal the sum of its
    // requests' service_seconds — on a heterogeneous fleet, with and
    // without chunking (the PR-4 charging regression, now covering
    // mixed decode + chunk iterations).
    const auto trace = generatePoissonTrace(tinyTraceConfig(20));
    const AcceleratorFleet fleet{
        std::make_shared<const SpAttenAccelerator>(SpAttenConfig::eighth()),
        std::make_shared<const SpAttenAccelerator>(SpAttenConfig::eighth()),
        std::make_shared<const A3Backend>()};
    for (const std::size_t chunk : {0u, 32u}) {
        ContinuousBatchConfig sc;
        sc.max_active = 4;
        sc.prefill_chunk_tokens = chunk;
        sc.iteration_token_budget = chunk == 0 ? 0 : 64;
        const ServeReport r =
            ContinuousBatchScheduler(fleet, sc).run(trace);
        EXPECT_EQ(r.preemptions, 0u) << "fixture must stay uncapped";
        std::vector<double> per_accel(fleet.size(), 0.0);
        for (const ServedRequest& req : r.requests) {
            ASSERT_GE(req.accel, 0);
            per_accel[static_cast<std::size_t>(req.accel)] +=
                req.service_seconds;
        }
        ASSERT_EQ(r.accel_busy_s.size(), fleet.size());
        for (std::size_t a = 0; a < fleet.size(); ++a)
            EXPECT_NEAR(r.accel_busy_s[a], per_accel[a],
                        1e-9 * (per_accel[a] + 1e-30))
                << "slot " << a << " at chunk size " << chunk;
    }
}

TEST(ServeMetrics, QueueDelayPercentilesMatchManualComputation)
{
    const auto trace = denseSaturatingTrace();
    ContinuousBatchConfig sc = cappedConfig(trace);
    const ServeReport r = serve(trace, sc);
    std::vector<double> delays;
    for (const ServedRequest& req : r.requests) {
        EXPECT_GE(req.queueDelaySeconds(), 0.0);
        delays.push_back(req.queueDelaySeconds());
    }
    std::sort(delays.begin(), delays.end());
    EXPECT_EQ(r.queue_delay_p50_s, sortedQuantile(delays, 0.50));
    EXPECT_EQ(r.queue_delay_p99_s, sortedQuantile(delays, 0.99));
    EXPECT_GT(r.queue_delay_p99_s, 0.0)
        << "a saturating capped run must queue someone";
    EXPECT_GE(r.queue_delay_p99_s, r.queue_delay_p50_s);
}

} // namespace
} // namespace spatten
