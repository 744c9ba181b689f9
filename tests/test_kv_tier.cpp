/// Tiered KV memory (HBM hot tier + far-memory DRAM cold tier):
/// pool-level demote/promote/rollback semantics, the tiering-off
/// golden — far_memory at capacity 0 replays the single-tier scheduler
/// bit for bit regardless of the other far-memory knobs, cache on and
/// off — end-to-end migration accounting coherence (counters, energy,
/// promotion stalls) with the hit-rate gain tiering buys at an equal
/// HBM budget, and thread-count determinism with migration on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "accel/spatten_accelerator.hpp"
#include "serve/continuous_batch_scheduler.hpp"
#include "serve/kv_pool.hpp"

namespace spatten {
namespace {

/// Same tiny 4-layer model as the kv_pool suite: kvBytesPerToken =
/// 2*4*4*64*2 = 4096 B, so a 16-token block is 64 KiB.
ModelSpec
tinyModel()
{
    return {"tiny", 4, 4, 64, 4};
}

constexpr std::uint64_t kBlockBytes = 16ull * 4096;

std::vector<std::uint64_t>
prompt(std::uint64_t stream, std::size_t tokens)
{
    std::vector<std::uint64_t> p;
    p.reserve(tokens);
    for (std::size_t i = 0; i < tokens; ++i)
        p.push_back(stream * 0x100000001ULL + i);
    return p;
}

// ---------------------------------------------------------------------
// Pool level: migration semantics
// ---------------------------------------------------------------------

TEST(KvTierPool, ColdBlocksDemoteThenPromoteOnReReference)
{
    const ModelSpec m = tinyModel();
    KvPool pool({4 * kBlockBytes, 16, 2, 64, 4 * kBlockBytes});
    const auto a = prompt(40, 64); // 4 blocks.

    ASSERT_TRUE(pool.tryReservePrefix(0, m, a).ok);
    pool.release(0);
    EXPECT_EQ(pool.coldBytes(), 4 * kBlockBytes);

    // A full-budget private reservation demotes every cold block to
    // DRAM instead of dropping it: the prefix index keeps all four.
    ASSERT_TRUE(pool.tryReserve(1, m, 64));
    EXPECT_EQ(pool.demotedBlocks(), 4u);
    EXPECT_EQ(pool.demotedBytes(), 4 * kBlockBytes);
    EXPECT_EQ(pool.evictedBlocks(), 0u);
    EXPECT_EQ(pool.usedBytes(), 4 * kBlockBytes);
    EXPECT_EQ(pool.dramUsedBytes(), 4 * kBlockBytes);
    EXPECT_EQ(pool.dramPeakBytes(), 4 * kBlockBytes);
    EXPECT_EQ(pool.cachedBlocks(), 4u);
    EXPECT_EQ(pool.coldBytes(), 0u);
    pool.release(1);
    EXPECT_EQ(pool.usedBytes(), 0u);

    // A prefix re-reference promotes the whole chain back to HBM and
    // reports the migrated bytes for the scheduler to price.
    const auto r2 = pool.tryReservePrefix(2, m, a);
    ASSERT_TRUE(r2.ok);
    EXPECT_EQ(r2.cached_tokens, 64u);
    EXPECT_EQ(r2.shared_bytes, 4 * kBlockBytes);
    EXPECT_EQ(r2.promoted_bytes, 4 * kBlockBytes);
    EXPECT_EQ(pool.promotedBlocks(), 4u);
    EXPECT_EQ(pool.promotedBytes(), 4 * kBlockBytes);
    EXPECT_EQ(pool.dramUsedBytes(), 0u);
    EXPECT_EQ(pool.usedBytes(), 4 * kBlockBytes);

    // Promoted blocks are ordinary hot blocks again: a second holder
    // maps them copy-free with no further migration.
    const auto r3 = pool.tryReservePrefix(3, m, a);
    ASSERT_TRUE(r3.ok);
    EXPECT_EQ(r3.cached_tokens, 64u);
    EXPECT_EQ(r3.promoted_bytes, 0u);
    pool.release(2);
    pool.release(3);
}

TEST(KvTierPool, PromotionGatedByHotBudgetRollsBackCleanly)
{
    const ModelSpec m = tinyModel();
    KvPool pool({4 * kBlockBytes, 16, 2, 64, 4 * kBlockBytes});
    const auto a = prompt(41, 64); // 4 blocks.

    ASSERT_TRUE(pool.tryReservePrefix(0, m, a).ok);
    pool.release(0);
    ASSERT_TRUE(pool.tryReserve(1, m, 64)); // Demotes all 4 to DRAM.
    ASSERT_EQ(pool.dramUsedBytes(), 4 * kBlockBytes);

    // The hot tier is fully held: promoting the 4-block chain cannot
    // fit, so the admission must fail and restore the DRAM tier.
    const auto r2 = pool.tryReservePrefix(2, m, a);
    EXPECT_FALSE(r2.ok);
    EXPECT_EQ(pool.promotedBlocks(), 0u);
    EXPECT_EQ(pool.dramUsedBytes(), 4 * kBlockBytes)
        << "failed admission must leave the cold tier untouched";
    EXPECT_EQ(pool.usedBytes(), 4 * kBlockBytes);

    // Once the holder leaves, the identical admission succeeds by
    // promotion — proving the rollback kept the blocks matchable.
    pool.release(1);
    const auto r3 = pool.tryReservePrefix(3, m, a);
    ASSERT_TRUE(r3.ok);
    EXPECT_EQ(r3.cached_tokens, 64u);
    EXPECT_EQ(r3.promoted_bytes, 4 * kBlockBytes);
    pool.release(3);
}

TEST(KvTierPool, BlockLargerThanDramBudgetFallsBackToEviction)
{
    const ModelSpec m = tinyModel();
    // A cold tier smaller than one block can never hold anything:
    // tiering is on, but every reclaim must be a true eviction.
    KvPool pool({2 * kBlockBytes, 16, 2, 64, kBlockBytes / 2});
    ASSERT_TRUE(pool.tryReservePrefix(0, m, prompt(42, 32)).ok);
    pool.release(0);
    ASSERT_TRUE(pool.tryReserve(1, m, 32));
    EXPECT_EQ(pool.demotedBlocks(), 0u);
    EXPECT_EQ(pool.evictedBlocks(), 2u);
    EXPECT_EQ(pool.dramUsedBytes(), 0u);
    EXPECT_EQ(pool.cachedBlocks(), 0u);
    pool.release(1);
}

// ---------------------------------------------------------------------
// Scheduler level
// ---------------------------------------------------------------------

ArrivalTraceConfig
tinyTraceConfig(std::size_t n = 16, std::uint64_t seed = 0x5eed)
{
    ArrivalTraceConfig tc;
    tc.num_requests = n;
    tc.mean_interarrival_s = 0.1e-3;
    tc.seed = seed;
    tc.model = tinyModel();
    tc.min_prompt = 48;
    tc.max_prompt = 160;
    tc.min_output = 2;
    tc.max_output = 8;
    return tc;
}

/// The demotion-pressure regime the bench sweeps: many distinct system
/// prompts re-referenced by follow-ups under a tight HBM budget, so
/// the flat pool must evict prefixes that tiering could have kept.
std::vector<TracedRequest>
churningSharedPrefixTrace(std::size_t n = 32)
{
    SharedPrefixTraceConfig sp;
    sp.base = tinyTraceConfig(n);
    sp.base.mean_interarrival_s = 0.05e-3;
    sp.num_system_prompts = 8;
    sp.system_prompt_tokens = 128;
    sp.followup_prob = 0.5;
    sp.user_turn_min = 8;
    sp.user_turn_max = 32;
    sp.max_prompt_tokens = 512;
    return generateSharedPrefixTrace(sp);
}

ContinuousBatchConfig
tightCachingConfig(const std::vector<TracedRequest>& trace)
{
    ContinuousBatchConfig sc;
    sc.max_active = 8;
    sc.enable_prefix_caching = true;
    sc.kv_capacity_bytes = kvBudgetForWorstRequest(trace, 1.25, sc);
    return sc;
}

ServeReport
serve(const std::vector<TracedRequest>& trace,
      const ContinuousBatchConfig& sc)
{
    const AcceleratorFleet fleet{std::make_shared<const SpAttenAccelerator>()};
    return ContinuousBatchScheduler(fleet, sc).run(trace);
}

/// Full-report bit-identity (the chunked-prefill suite's contract plus
/// the tier counters).
void
expectSameReport(const ServeReport& a, const ServeReport& b)
{
    EXPECT_EQ(a.makespan_s, b.makespan_s);
    EXPECT_EQ(a.total_cycles, b.total_cycles);
    EXPECT_EQ(a.total_energy_j, b.total_energy_j);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.recompute_tokens, b.recompute_tokens);
    EXPECT_EQ(a.peak_concurrency, b.peak_concurrency);
    EXPECT_EQ(a.accel_busy_s, b.accel_busy_s);
    EXPECT_EQ(a.kv_peak_bytes, b.kv_peak_bytes);
    EXPECT_EQ(a.kv_dram_peak_bytes, b.kv_dram_peak_bytes);
    EXPECT_EQ(a.prefix_cache_hits, b.prefix_cache_hits);
    EXPECT_EQ(a.prefix_cached_tokens, b.prefix_cached_tokens);
    EXPECT_EQ(a.kv_evicted_blocks, b.kv_evicted_blocks);
    EXPECT_EQ(a.kv_demoted_blocks, b.kv_demoted_blocks);
    EXPECT_EQ(a.kv_promoted_blocks, b.kv_promoted_blocks);
    EXPECT_EQ(a.kv_migrated_bytes, b.kv_migrated_bytes);
    EXPECT_EQ(a.migration_energy_j, b.migration_energy_j);
    EXPECT_EQ(a.promotion_stall_s, b.promotion_stall_s);
    EXPECT_EQ(a.queue_delay_p50_s, b.queue_delay_p50_s);
    EXPECT_EQ(a.queue_delay_p99_s, b.queue_delay_p99_s);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].admit_s, b.requests[i].admit_s);
        EXPECT_EQ(a.requests[i].first_token_s,
                  b.requests[i].first_token_s);
        EXPECT_EQ(a.requests[i].finish_s, b.requests[i].finish_s);
        EXPECT_EQ(a.requests[i].token_times_s,
                  b.requests[i].token_times_s);
        EXPECT_EQ(a.requests[i].service_seconds,
                  b.requests[i].service_seconds);
        EXPECT_EQ(a.requests[i].kv_trace, b.requests[i].kv_trace);
    }
}

TEST(TieredServe, TieringOffReplaysSingleTierSchedulerBitIdentically)
{
    // The golden of this PR: far_memory at capacity 0 must be
    // invisible — whatever the other far-memory knobs say — with the
    // cache off AND on, under the same memory pressure that exercises
    // eviction. Pinned against the default-config scheduler the PR-6
    // goldens cover, so a tiering-path leak into the legacy path
    // breaks this test before it breaks the golden suite.
    const auto trace = churningSharedPrefixTrace();
    for (const bool caching : {false, true}) {
        ContinuousBatchConfig sc = tightCachingConfig(trace);
        sc.enable_prefix_caching = caching;
        const ServeReport flat = serve(trace, sc);

        ContinuousBatchConfig tiered_off = sc;
        tiered_off.far_memory.capacity_gb = 0.0; // Off…
        tiered_off.far_memory.bandwidth_gbs = 0.125; // …and the other
        tiered_off.far_memory.latency_us = 9999.0;   // knobs inert.
        const ServeReport off = serve(trace, tiered_off);
        expectSameReport(flat, off);
        EXPECT_EQ(off.kv_dram_capacity_bytes, 0u);
        EXPECT_EQ(off.kv_demoted_blocks, 0u);
        EXPECT_EQ(off.kv_promoted_blocks, 0u);
        EXPECT_EQ(off.kv_migrated_bytes, 0u);
        EXPECT_EQ(off.migration_energy_j, 0.0);
        EXPECT_EQ(off.promotion_stall_s, 0.0);
    }
}

TEST(TieredServe, MigrationAccountingIsCoherentAndRaisesHitRate)
{
    const auto trace = churningSharedPrefixTrace();
    const ContinuousBatchConfig flat_sc = tightCachingConfig(trace);
    const ServeReport flat = serve(trace, flat_sc);
    ASSERT_GT(flat.kv_evicted_blocks, 0u)
        << "the fixture must churn the flat cache, or the comparison "
           "is vacuous";

    ContinuousBatchConfig sc = flat_sc;
    sc.far_memory.capacity_gb = 64.0 / 1024.0; // 64 MiB cold tier.
    const ServeReport tiered = serve(trace, sc);

    // Hybrid2's bargain at an equal HBM budget: prefixes survive in
    // DRAM, so more admissions hit — paid in migration traffic.
    EXPECT_GT(tiered.prefix_cached_tokens, flat.prefix_cached_tokens);
    EXPECT_GT(tiered.kv_demoted_blocks, 0u);
    EXPECT_GT(tiered.kv_promoted_blocks, 0u);
    EXPECT_EQ(tiered.kv_migrated_bytes,
              tiered.kv_demoted_bytes + tiered.kv_promoted_bytes);
    EXPECT_EQ(tiered.kv_dram_capacity_bytes, 64ull << 20);

    // Migrations cost energy (far_memory.bit_energy_pj = 20 pJ/bit,
    // inside the total) and promotions cost admitting-request time.
    EXPECT_DOUBLE_EQ(tiered.migration_energy_j,
                     static_cast<double>(tiered.kv_migrated_bytes) *
                         8.0 * 20.0 * 1e-12);
    EXPECT_GT(tiered.migration_energy_j, 0.0);
    EXPECT_GT(tiered.promotion_stall_s, 0.0);

    // Every request still finishes, and the per-slot DRAM peak is
    // visible and bounded by the configured tier.
    for (const ServedRequest& req : tiered.requests)
        EXPECT_EQ(req.phase, RequestPhase::Finished);
    ASSERT_FALSE(tiered.kv_dram_peak_bytes.empty());
    std::uint64_t dram_peak = 0;
    for (const std::uint64_t p : tiered.kv_dram_peak_bytes)
        dram_peak = std::max(dram_peak, p);
    EXPECT_GT(dram_peak, 0u);
    EXPECT_LE(dram_peak, tiered.kv_dram_capacity_bytes);
}

TEST(TieredServe, PromotionLatencyFollowsTheFarMemoryKnobs)
{
    // Same trace, slower link: identical migration byte counts, but
    // every promotion burst costs more admitting-request time. The
    // knobs must actually reach the timeline, not just the report.
    const auto trace = churningSharedPrefixTrace();
    ContinuousBatchConfig sc = tightCachingConfig(trace);
    sc.far_memory.capacity_gb = 64.0 / 1024.0;
    const ServeReport fast = serve(trace, sc);
    ASSERT_GT(fast.kv_promoted_blocks, 0u);

    sc.far_memory.bandwidth_gbs = 1.0;
    sc.far_memory.latency_us = 50.0;
    const ServeReport slow = serve(trace, sc);
    EXPECT_GT(slow.promotion_stall_s, fast.promotion_stall_s);
    EXPECT_GT(slow.ttft_p99_s, 0.0);
}

TEST(TieredServe, MigrationEnergyFollowsTheConfiguredBitPrice)
{
    // A non-default link price must reach the report: same trace, same
    // migrated bytes, energy scaled by the configured pJ/bit — and the
    // rest of the energy total untouched.
    const auto trace = churningSharedPrefixTrace();
    ContinuousBatchConfig sc = tightCachingConfig(trace);
    sc.far_memory.capacity_gb = 64.0 / 1024.0;
    const ServeReport base = serve(trace, sc);
    ASSERT_GT(base.kv_migrated_bytes, 0u);

    sc.far_memory.bit_energy_pj = 55.0;
    const ServeReport priced = serve(trace, sc);
    EXPECT_EQ(priced.kv_migrated_bytes, base.kv_migrated_bytes);
    EXPECT_DOUBLE_EQ(priced.migration_energy_j,
                     static_cast<double>(priced.kv_migrated_bytes) *
                         8.0 * 55.0 * 1e-12);
    EXPECT_GT(priced.migration_energy_j, base.migration_energy_j);
    EXPECT_DOUBLE_EQ(priced.total_energy_j - priced.migration_energy_j,
                     base.total_energy_j - base.migration_energy_j);
}

TEST(TieredServe, TieredRunIsBitIdenticalAcrossThreadCounts)
{
    const auto trace = churningSharedPrefixTrace();
    ContinuousBatchConfig sc = tightCachingConfig(trace);
    sc.far_memory.capacity_gb = 64.0 / 1024.0;
    sc.num_threads = 1;
    const ServeReport ref = serve(trace, sc);
    ASSERT_GT(ref.kv_migrated_bytes, 0u);
    for (const std::size_t threads : {2u, 8u}) {
        sc.num_threads = threads;
        expectSameReport(ref, serve(trace, sc));
    }
}

} // namespace
} // namespace spatten
