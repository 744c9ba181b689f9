/// Continuous-batching serving bench: a 64-request Poisson trace served
/// on pools of 1, 2, and 4 simulated accelerators, then the
/// memory-pressure scenarios — the same demand under a KV byte budget
/// tight enough to force admission blocking and preemption, with and
/// without cascade pruning (pruned KV admits measurably more
/// concurrency), plus a bursty heavy-tailed trace served under the
/// priority queue policy, and finally the heterogeneous-fleet scenarios:
/// SpAtten-1/8 and A3 slots behind one scheduler (the paper's Table III
/// comparison pair) serving the same bursty bounded-Pareto demand under
/// the same per-accelerator KV budget — the first end-to-end serving
/// reproduction of the cross-accelerator comparison — and the
/// shared-prefix caching scenarios: a system-prompt + multi-turn trace
/// served with and without the paged ref-counted KV block cache at the
/// same budget (cache hits shrink both prefill compute and charged
/// admission bytes), and a tiered-KV sweep: the same trace family with
/// a system-prompt pool that oversubscribes the hot budget, served flat
/// and with far-memory DRAM cold tiers of growing capacity — the
/// hit-rate vs migration-traffic curve. Reports TTFT / ITL
/// percentiles, goodput under the SLO, per-accelerator utilization,
/// preemption/recompute overhead, and KV occupancy, and verifies the
/// determinism contract on the spot: per-request results are
/// bit-identical across host thread counts {1, 4}, and per-request
/// *service* results (cycles, energy, KV trajectory) are bit-identical
/// across shard counts.
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>

#include "accel/spatten_accelerator.hpp"
#include "baselines/baseline_backends.hpp"
#include "bench_util.hpp"
#include "serve/continuous_batch_scheduler.hpp"

// Whether a sanitizer instruments this build, as the compiler alone
// says: GCC defines the __SANITIZE_*__ macros, clang answers
// __has_feature.
namespace {
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitizerBuild = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool kSanitizerBuild = true;
#else
constexpr bool kSanitizerBuild = false;
#endif
#else
constexpr bool kSanitizerBuild = false;
#endif
} // namespace

int
main()
{
    using namespace spatten;
    using namespace spatten::bench;
    banner("Continuous-batching serving",
           "64-request Poisson trace on 1/2/4 accelerators, "
           "iteration-level scheduling with cascade-pruned decode KV");

    ArrivalTraceConfig tc;
    tc.num_requests = 64;
    tc.mean_interarrival_s = 0.5e-3;
    tc.seed = 0x5eed;
    const auto trace = generatePoissonTrace(tc);

    std::printf("%zu requests, mean interarrival %.2f ms, prompts "
                "%zu-%zu, outputs %zu-%zu\n\n",
                trace.size(), tc.mean_interarrival_s * 1e3, tc.min_prompt,
                tc.max_prompt, tc.min_output, tc.max_output);
    std::printf("%-7s %10s %10s %10s %10s %9s %9s %9s\n", "accels",
                "ttft p50", "ttft p99", "itl p50", "itl p99", "goodput",
                "util", "makespan");
    std::printf("%-7s %10s %10s %10s %10s %9s %9s %9s\n", "", "(ms)",
                "(ms)", "(us)", "(us)", "(req/s)", "(mean)", "(ms)");
    rule();

    // @p slots default SpAtten slots sharing one backend.
    const auto spattenFleet = [](std::size_t slots = 1) {
        return AcceleratorFleet(
            slots, std::make_shared<const SpAttenAccelerator>());
    };

    std::vector<BenchRecord> records;
    ServeReport single_accel;
    for (const std::size_t accels : {1u, 2u, 4u}) {
        ContinuousBatchConfig sc;
        sc.max_active = 8;
        sc.slo_ttft_s = 25e-3;
        sc.slo_itl_s = 2e-3;

        // Bit-identity across host thread counts: the full report —
        // every timestamp and per-request result — must match.
        sc.num_threads = 1;
        const ServeReport r1 =
            ContinuousBatchScheduler(spattenFleet(accels), sc).run(trace);
        sc.num_threads = 4;
        const ServeReport r4 =
            ContinuousBatchScheduler(spattenFleet(accels), sc).run(trace);
        for (std::size_t i = 0; i < trace.size(); ++i) {
            const ServedRequest &a = r1.requests[i], &b = r4.requests[i];
            if (a.sim.cycles != b.sim.cycles ||
                a.sim.seconds != b.sim.seconds ||
                a.finish_s != b.finish_s ||
                a.first_token_s != b.first_token_s ||
                a.token_times_s != b.token_times_s ||
                a.kv_trace != b.kv_trace) {
                std::printf("DETERMINISM VIOLATION (threads) at request "
                            "%zu, %zu accels\n",
                            i, accels);
                return 1;
            }
        }
        // Service results are placement-independent: bit-identical
        // across shard counts (queueing metrics legitimately differ).
        if (accels == 1) {
            single_accel = r1;
        } else {
            for (std::size_t i = 0; i < trace.size(); ++i) {
                const ServedRequest& a = single_accel.requests[i];
                const ServedRequest& b = r1.requests[i];
                if (a.sim.cycles != b.sim.cycles ||
                    a.sim.dram_bytes != b.sim.dram_bytes ||
                    a.service_seconds != b.service_seconds ||
                    a.kv_trace != b.kv_trace) {
                    std::printf("DETERMINISM VIOLATION (shards) at "
                                "request %zu, %zu accels\n",
                                i, accels);
                    return 1;
                }
            }
        }

        double util = 0;
        for (double u : r1.accel_util)
            util += u;
        util /= static_cast<double>(accels);
        std::printf("%-7zu %10.2f %10.2f %10.1f %10.1f %9.0f %9.2f "
                    "%9.2f\n",
                    accels, r1.ttft_p50_s * 1e3, r1.ttft_p99_s * 1e3,
                    r1.itl_p50_s * 1e6, r1.itl_p99_s * 1e6,
                    r1.goodput_rps, util, r1.makespan_s * 1e3);
        records.push_back(recordFromServe(
            "poisson64-accel" + std::to_string(accels), r1));
    }
    rule();
    std::printf("All thread and shard counts produced bit-identical "
                "per-request results.\n");

    // ---- Memory pressure: same demand, KV budget 1.25x the worst
    // single request, with and without cascade pruning ----
    std::printf("\nMemory-pressure scenarios (KV budget = 1.25x worst "
                "request, 4-token blocks)\n");
    std::printf("%-16s %8s %9s %10s %8s %9s %10s\n", "scenario",
                "preempt", "recomp", "peak conc", "kv peak", "kv mean",
                "ttft p99");
    std::printf("%-16s %8s %9s %10s %8s %9s %10s\n", "", "", "(tok)",
                "(reqs)", "(MiB)", "(MiB)", "(ms)");
    rule();

    ArrivalTraceConfig dense_tc = tc;
    dense_tc.policy = PruningPolicy::disabled();
    dense_tc.min_output = 16;
    dense_tc.max_output = 32;
    const auto dense_trace = generatePoissonTrace(dense_tc);
    ArrivalTraceConfig pruned_tc = dense_tc;
    pruned_tc.policy = PruningPolicy{};
    const auto pruned_trace = generatePoissonTrace(pruned_tc);

    ContinuousBatchConfig mem_sc;
    mem_sc.max_active = 8;
    mem_sc.slo_ttft_s = 25e-3;
    mem_sc.kv_block_tokens = 4;
    mem_sc.kv_capacity_bytes =
        kvBudgetForWorstRequest(dense_trace, 1.25, mem_sc);

    const auto showMem = [&](const char* name, const ServeReport& r) {
        std::printf("%-16s %8zu %9zu %10zu %8.1f %9.1f %10.2f\n", name,
                    r.preemptions, r.recompute_tokens,
                    r.peak_concurrency,
                    static_cast<double>(r.kv_peak_bytes[0]) /
                        (1024.0 * 1024.0),
                    r.kv_mean_bytes[0] / (1024.0 * 1024.0),
                    r.ttft_p99_s * 1e3);
    };
    const ServeReport dense =
        ContinuousBatchScheduler(spattenFleet(), mem_sc)
            .run(dense_trace);
    const ServeReport pruned =
        ContinuousBatchScheduler(spattenFleet(), mem_sc)
            .run(pruned_trace);
    showMem("mempress-dense", dense);
    showMem("mempress-pruned", pruned);
    if (dense.preemptions < 1) {
        std::printf("FAIL: the capped dense scenario must preempt\n");
        return 1;
    }
    if (pruned.peak_concurrency <= dense.peak_concurrency) {
        std::printf("FAIL: cascade pruning must admit strictly higher "
                    "concurrency under the same KV budget\n");
        return 1;
    }
    std::printf("cascade pruning raised admissible concurrency %zu -> "
                "%zu under the same budget\n",
                dense.peak_concurrency, pruned.peak_concurrency);
    records.push_back(recordFromServe("mempress-dense", dense));
    records.push_back(recordFromServe("mempress-pruned", pruned));

    // ---- Bursty heavy-tailed demand served priority-first under the
    // same capped budget ----
    ArrivalTraceConfig burst_tc = pruned_tc;
    burst_tc.process = ArrivalProcess::OnOffBurst;
    burst_tc.burst_on_mean_s = 2e-3;
    burst_tc.burst_off_mean_s = 15e-3;
    burst_tc.prompt_dist = PromptLengthDist::BoundedPareto;
    burst_tc.pareto_alpha = 1.2;
    burst_tc.priority_levels = 3;
    const auto burst_trace = generateArrivalTrace(burst_tc);
    ContinuousBatchConfig burst_sc = mem_sc;
    burst_sc.queue = QueuePolicy::Priority;
    // Budget sized from the trace actually served: the Pareto draws
    // come from a different PRNG stream than the dense trace's.
    burst_sc.kv_capacity_bytes =
        kvBudgetForWorstRequest(burst_trace, 1.25, burst_sc);
    const ServeReport burst =
        ContinuousBatchScheduler(spattenFleet(), burst_sc)
            .run(burst_trace);
    showMem("burst-priority", burst);
    records.push_back(recordFromServe("burst-priority", burst));

    // ---- Chunked prefill: the same bursty bounded-Pareto demand at
    // the same 1.25x-worst KV budget, with the prompt pass split into
    // scheduler-visible chunks (Sarathi-style stall-free batching).
    // The monolithic run is the chunk-size = infinity endpoint of the
    // curve and is bit-identical to burst-priority above (the knobs
    // default off). Smaller chunks cap how long one admission stalls
    // every resident decoder's next token, so the ITL tail tightens
    // as the chunk shrinks. ----
    std::printf("\nChunked prefill sweep (burst-priority demand, same "
                "1.25x KV budget)\n");
    std::printf("%-18s %9s %9s %9s %9s %10s %10s\n", "chunk (tok)",
                "itl p50", "itl p99", "ttft p50", "ttft p99",
                "qdelay p99", "makespan");
    std::printf("%-18s %9s %9s %9s %9s %10s %10s\n", "", "(us)", "(us)",
                "(ms)", "(ms)", "(ms)", "(ms)");
    rule();

    const auto runChunked = [&](std::size_t chunk_tokens) {
        ContinuousBatchConfig sc = burst_sc;
        sc.prefill_chunk_tokens = chunk_tokens;
        return ContinuousBatchScheduler(spattenFleet(), sc)
            .run(burst_trace);
    };
    const auto showChunk = [&](const char* name, const ServeReport& r) {
        std::printf("%-18s %9.1f %9.1f %9.2f %9.2f %10.2f %10.2f\n",
                    name, r.itl_p50_s * 1e6, r.itl_p99_s * 1e6,
                    r.ttft_p50_s * 1e3, r.ttft_p99_s * 1e3,
                    r.queue_delay_p99_s * 1e3, r.makespan_s * 1e3);
    };
    showChunk("monolithic", burst);
    records.push_back(recordFromServe("chunked-prefill-mono", burst));
    double best_chunked_itl_p99 =
        std::numeric_limits<double>::infinity();
    for (const std::size_t chunk : {256u, 128u, 64u, 32u}) {
        const ServeReport r = runChunked(chunk);
        showChunk(std::to_string(chunk).c_str(), r);
        records.push_back(recordFromServe(
            "chunked-prefill-" + std::to_string(chunk), r));
        best_chunked_itl_p99 = std::min(best_chunked_itl_p99,
                                        r.itl_p99_s);
        if (r.total_tokens != burst.total_tokens) {
            std::printf("FAIL: chunked prefill must serve the same "
                        "tokens as the monolithic run\n");
            return 1;
        }
    }
    rule();
    // The claim this sweep exists to pin: splitting prefill improves
    // the ITL tail at equal KV budget under bursty demand.
    if (best_chunked_itl_p99 >= burst.itl_p99_s) {
        std::printf("FAIL: chunked prefill must improve ITL p99 vs "
                    "monolithic prefill at equal KV budget\n");
        return 1;
    }
    std::printf("chunked prefill tightened ITL p99 %.1f -> %.1f us at "
                "the same KV budget (best chunk size of the sweep).\n",
                burst.itl_p99_s * 1e6, best_chunked_itl_p99 * 1e6);

    // ---- Heterogeneous fleets: SpAtten-1/8 and A3 slots (the paper's
    // normalized Table III pair: 128 multipliers, 64 GB/s each) behind
    // one scheduler, serving the same bursty ON/OFF + bounded-Pareto
    // demand under the same per-accelerator KV budget ----
    std::printf("\nHeterogeneous fleets (bursty bounded-Pareto trace, "
                "KV budget = 1.25x worst request per accel)\n");
    std::printf("%-18s %9s %9s %9s %8s %8s %10s  %s\n", "fleet",
                "ttft p50", "ttft p99", "itl p99", "goodput", "preempt",
                "peak conc", "requests/slot");
    std::printf("%-18s %9s %9s %9s %8s %8s %10s\n", "", "(ms)", "(ms)",
                "(us)", "(req/s)", "", "(reqs)");
    rule();

    // Denser bursts than the priority scenario: ~100 arrivals per ON
    // period, so every fleet carries a standing backlog during a burst
    // and the KV pool — not the demand — limits concurrency.
    ArrivalTraceConfig fleet_tc = burst_tc;
    fleet_tc.priority_levels = 1;
    fleet_tc.mean_interarrival_s = 0.05e-3;
    fleet_tc.burst_on_mean_s = 5e-3;
    fleet_tc.burst_off_mean_s = 20e-3;
    const auto fleet_trace = generateArrivalTrace(fleet_tc);

    const auto spatten8 =
        std::make_shared<const SpAttenAccelerator>(SpAttenConfig::eighth());
    const auto a3 = std::make_shared<const A3Backend>();

    ContinuousBatchConfig fleet_sc;
    fleet_sc.max_active = 8;
    fleet_sc.slo_ttft_s = 25e-3;
    fleet_sc.slo_itl_s = 4e-3;
    fleet_sc.kv_block_tokens = 4;
    fleet_sc.shard = ShardPolicy::LeastLoaded;
    fleet_sc.kv_capacity_bytes =
        kvBudgetForWorstRequest(fleet_trace, 1.25, fleet_sc);

    const auto runFleet = [&](const AcceleratorFleet& fleet,
                              ShardPolicy shard) {
        ContinuousBatchConfig sc = fleet_sc;
        sc.shard = shard;
        return ContinuousBatchScheduler(fleet, sc).run(fleet_trace);
    };
    const auto showFleet = [&](const char* name, const ServeReport& r) {
        std::printf("%-18s %9.2f %9.2f %9.1f %8.0f %8zu %10zu  ", name,
                    r.ttft_p50_s * 1e3, r.ttft_p99_s * 1e3,
                    r.itl_p99_s * 1e6, r.goodput_rps, r.preemptions,
                    r.peak_concurrency);
        for (std::size_t a = 0; a < r.accel_names.size(); ++a)
            std::printf("%s%s:%zu", a ? " " : "",
                        r.accel_names[a].c_str(), r.accel_requests[a]);
        std::printf("\n");
    };

    const ServeReport f_spatten =
        runFleet(AcceleratorFleet(4, spatten8), ShardPolicy::LeastLoaded);
    const ServeReport f_a3 =
        runFleet(AcceleratorFleet(4, a3), ShardPolicy::LeastLoaded);
    const AcceleratorFleet mixed{spatten8, spatten8, a3, a3};
    const ServeReport f_mixed_ll =
        runFleet(mixed, ShardPolicy::LeastLoaded);
    const ServeReport f_mixed_cap =
        runFleet(mixed, ShardPolicy::CapabilityAware);

    showFleet("4xspatten8", f_spatten);
    showFleet("4xa3", f_a3);
    showFleet("2xsp8+2xa3-ll", f_mixed_ll);
    showFleet("2xsp8+2xa3-cap", f_mixed_cap);
    rule();

    // The cross-accelerator claims this section exists to pin: under
    // the same per-accel KV budget, cascade pruning admits strictly
    // more concurrent residents and converts it into goodput.
    if (f_spatten.peak_concurrency <= f_a3.peak_concurrency) {
        std::printf("FAIL: the SpAtten fleet must admit higher "
                    "concurrency than the dense-KV A3 fleet under the "
                    "same budget\n");
        return 1;
    }
    if (f_spatten.goodput_rps <= f_a3.goodput_rps) {
        std::printf("FAIL: the SpAtten fleet must out-goodput the A3 "
                    "fleet\n");
        return 1;
    }
    if (f_mixed_ll.goodput_rps <= f_a3.goodput_rps) {
        std::printf("FAIL: adding SpAtten slots to an A3 fleet must "
                    "raise goodput\n");
        return 1;
    }
    for (std::size_t a = 0; a < mixed.size(); ++a) {
        const bool pruner = mixed[a]->capabilities().cascade_pruning;
        if (!pruner && f_mixed_cap.accel_requests[a] > 0) {
            // Long prompts must never land on a dense-KV slot under
            // capability-aware placement. requests[] is in trace
            // *position* order (ids need not be dense), so pair the
            // report and the trace by position.
            for (std::size_t i = 0; i < f_mixed_cap.requests.size();
                 ++i) {
                const ServedRequest& req = f_mixed_cap.requests[i];
                if (req.accel == static_cast<int>(a) &&
                    fleet_trace[i].workload.summarize_len >=
                        fleet_sc.long_prompt_threshold) {
                    std::printf("FAIL: long prompt %zu landed on "
                                "dense-KV slot %zu under "
                                "capability-aware placement\n",
                                req.id, a);
                    return 1;
                }
            }
        }
    }
    std::printf("same budget: SpAtten fleet admits %zu vs A3's %zu "
                "concurrent residents and serves %.0f vs %.0f req/s "
                "goodput; capability-aware mixed fleet keeps every "
                "long prompt on a pruning slot.\n",
                f_spatten.peak_concurrency, f_a3.peak_concurrency,
                f_spatten.goodput_rps, f_a3.goodput_rps);

    records.push_back(recordFromServe("fleet-4xspatten8", f_spatten));
    records.push_back(recordFromServe("fleet-4xa3", f_a3));
    records.push_back(recordFromServe("fleet-2xsp8+2xa3-ll", f_mixed_ll));
    records.push_back(
        recordFromServe("fleet-2xsp8+2xa3-cap", f_mixed_cap));

    // ---- Shared-prefix caching: system-prompt pools + multi-turn
    // follow-ups served with and without the paged prefix cache, same
    // KV budget (1.25x the worst request) — the regime where thousands
    // of requests re-send the same context and paged ref-counted
    // blocks turn it into admission headroom and skipped prefill ----
    std::printf("\nShared-prefix caching (2 system prompts x 192 tok, "
                "60%% follow-up turns, KV budget = 1.25x worst)\n");
    std::printf("%-18s %9s %9s %10s %8s %8s %10s %10s\n", "scenario",
                "ttft p50", "ttft p99", "peak conc", "hits",
                "cached", "shared", "preempt");
    std::printf("%-18s %9s %9s %10s %8s %8s %10s %10s\n", "", "(ms)",
                "(ms)", "(reqs)", "", "(tok)", "(MiB)", "");
    rule();

    SharedPrefixTraceConfig sp;
    sp.base = tc;
    sp.base.policy = PruningPolicy::disabled();
    sp.base.mean_interarrival_s = 0.2e-3;
    sp.base.min_output = 16;
    sp.base.max_output = 32;
    sp.num_system_prompts = 2;
    sp.system_prompt_tokens = 192;
    sp.followup_prob = 0.6;
    const auto sp_trace = generateSharedPrefixTrace(sp);

    ContinuousBatchConfig cache_sc;
    cache_sc.max_active = 16;
    cache_sc.slo_ttft_s = 25e-3;
    cache_sc.kv_block_tokens = 16;
    cache_sc.kv_capacity_bytes =
        kvBudgetForWorstRequest(sp_trace, 1.25, cache_sc);

    const auto runCache = [&](bool enabled) {
        ContinuousBatchConfig sc = cache_sc;
        sc.enable_prefix_caching = enabled;
        return ContinuousBatchScheduler(spattenFleet(), sc)
            .run(sp_trace);
    };
    const auto showCache = [&](const char* name, const ServeReport& r) {
        std::printf("%-18s %9.2f %9.2f %10zu %8zu %8zu %10.1f %10zu\n",
                    name, r.ttft_p50_s * 1e3, r.ttft_p99_s * 1e3,
                    r.peak_concurrency, r.prefix_cache_hits,
                    r.prefix_cached_tokens,
                    static_cast<double>(r.prefix_shared_bytes) /
                        (1024.0 * 1024.0),
                    r.preemptions);
    };
    const ServeReport cache_off = runCache(false);
    const ServeReport cache_on = runCache(true);
    showCache("prefix-cache-off", cache_off);
    showCache("prefix-cache-on", cache_on);
    rule();

    // The acceptance claims this section exists to pin: at the same
    // KV budget, prefix caching strictly improves TTFT p50 and
    // admissible concurrency.
    if (cache_on.prefix_cache_hits == 0) {
        std::printf("FAIL: the shared-prefix trace must produce cache "
                    "hits\n");
        return 1;
    }
    if (cache_on.ttft_p50_s >= cache_off.ttft_p50_s) {
        std::printf("FAIL: prefix caching must strictly improve TTFT "
                    "p50 at equal KV budget\n");
        return 1;
    }
    if (cache_on.peak_concurrency <= cache_off.peak_concurrency) {
        std::printf("FAIL: prefix caching must strictly raise "
                    "admissible concurrency at equal KV budget\n");
        return 1;
    }
    std::printf("prefix caching: ttft p50 %.2f -> %.2f ms, admissible "
                "concurrency %zu -> %zu, %zu/%zu admissions hit, "
                "%.1f MiB KV mapped copy-free.\n",
                cache_off.ttft_p50_s * 1e3, cache_on.ttft_p50_s * 1e3,
                cache_off.peak_concurrency, cache_on.peak_concurrency,
                cache_on.prefix_cache_hits, sp_trace.size(),
                static_cast<double>(cache_on.prefix_shared_bytes) /
                    (1024.0 * 1024.0));
    records.push_back(recordFromServe("prefix-cache-off", cache_off));
    records.push_back(recordFromServe("prefix-cache-on", cache_on));

    // ---- Tiered KV memory: flat (HBM-only) vs HBM + far-memory DRAM
    // cold tier, same HBM budget. A system-prompt *pool* (8 distinct
    // prefixes) oversubscribes the 1.25x-worst hot budget, so the flat
    // pool keeps dropping cold prefixes before their next re-use; the
    // tiered pool demotes them to DRAM and promotes on re-reference,
    // trading migration traffic (and a promotion stall on the prefill
    // timeline) for hit rate — the Hybrid2-style hit-rate vs
    // migration-traffic curve, one point per DRAM capacity ----
    std::printf("\nTiered KV (8 system prompts x 192 tok, 50%% "
                "follow-ups, HBM budget = 1.25x worst, DRAM sweep)\n");
    std::printf("%-18s %8s %8s %9s %9s %8s %8s %8s %9s\n", "scenario",
                "hits", "cached", "ttft p50", "migrated", "demoted",
                "promoted", "evicted", "stall");
    std::printf("%-18s %8s %8s %9s %9s %8s %8s %8s %9s\n", "", "",
                "(tok)", "(ms)", "(MiB)", "(blk)", "(blk)", "(blk)",
                "(ms)");
    rule();

    SharedPrefixTraceConfig tsp = sp;
    tsp.num_system_prompts = 8;
    tsp.followup_prob = 0.5;
    const auto tier_trace = generateSharedPrefixTrace(tsp);

    ContinuousBatchConfig tier_sc = cache_sc;
    tier_sc.enable_prefix_caching = true;
    tier_sc.kv_capacity_bytes =
        kvBudgetForWorstRequest(tier_trace, 1.25, tier_sc);

    const auto runTiered = [&](double dram_mib) {
        ContinuousBatchConfig sc = tier_sc;
        sc.far_memory.capacity_gb = dram_mib / 1024.0;
        return ContinuousBatchScheduler(spattenFleet(), sc)
            .run(tier_trace);
    };
    struct TierPoint
    {
        const char* name;
        double dram_mib;
    };
    const TierPoint tier_points[] = {{"tiered-kv-flat", 0.0},
                                     {"tiered-kv-dram16m", 16.0},
                                     {"tiered-kv-dram64m", 64.0},
                                     {"tiered-kv-dram256m", 256.0}};
    std::vector<ServeReport> tier_reports;
    for (const TierPoint& p : tier_points) {
        const ServeReport r = runTiered(p.dram_mib);
        std::printf("%-18s %8zu %8zu %9.2f %9.1f %8zu %8zu %8zu %9.3f\n",
                    p.name, r.prefix_cache_hits, r.prefix_cached_tokens,
                    r.ttft_p50_s * 1e3,
                    static_cast<double>(r.kv_migrated_bytes) /
                        (1024.0 * 1024.0),
                    r.kv_demoted_blocks, r.kv_promoted_blocks,
                    r.kv_evicted_blocks, r.promotion_stall_s * 1e3);
        records.push_back(recordFromServe(p.name, r));
        tier_reports.push_back(r);
    }
    rule();

    const ServeReport& tier_flat = tier_reports.front();
    const ServeReport& tier_best = tier_reports.back();
    // The acceptance claims this sweep exists to pin: at the same HBM
    // budget the tiered pool serves strictly more cached prefix tokens
    // than the flat pool, and pays for them with non-zero, reported
    // migration traffic in both directions.
    if (tier_flat.kv_migrated_bytes != 0 ||
        tier_flat.kv_demoted_blocks != 0) {
        std::printf("FAIL: the flat (DRAM=0) pool must not migrate\n");
        return 1;
    }
    if (tier_best.prefix_cached_tokens <=
        tier_flat.prefix_cached_tokens) {
        std::printf("FAIL: tiering must raise cached prefix tokens at "
                    "equal HBM budget\n");
        return 1;
    }
    if (tier_best.kv_demoted_blocks == 0 ||
        tier_best.kv_promoted_blocks == 0 ||
        tier_best.kv_migrated_bytes == 0) {
        std::printf("FAIL: the tiered run must report migrations in "
                    "both directions\n");
        return 1;
    }
    if (tier_best.promotion_stall_s <= 0 ||
        tier_best.migration_energy_j <= 0) {
        std::printf("FAIL: migrations must cost reported time and "
                    "energy\n");
        return 1;
    }
    // Determinism contract extends to tiering: the migration decisions
    // are the coordinator's, so the full report is thread-independent.
    {
        ContinuousBatchConfig sc = tier_sc;
        sc.far_memory.capacity_gb = tier_points[2].dram_mib / 1024.0;
        sc.num_threads = 1;
        const ServeReport r1 =
            ContinuousBatchScheduler(spattenFleet(), sc)
                .run(tier_trace);
        sc.num_threads = 4;
        const ServeReport r4 =
            ContinuousBatchScheduler(spattenFleet(), sc)
                .run(tier_trace);
        for (std::size_t i = 0; i < tier_trace.size(); ++i) {
            if (r1.requests[i].finish_s != r4.requests[i].finish_s ||
                r1.requests[i].token_times_s !=
                    r4.requests[i].token_times_s) {
                std::printf("DETERMINISM VIOLATION (threads) in the "
                            "tiered-KV scenario at request %zu\n",
                            i);
                return 1;
            }
        }
        if (r1.kv_migrated_bytes != r4.kv_migrated_bytes ||
            r1.promotion_stall_s != r4.promotion_stall_s) {
            std::printf("DETERMINISM VIOLATION (threads) in tiered-KV "
                        "migration accounting\n");
            return 1;
        }
    }
    const double hit_rate = [&](const ServeReport& r) {
        return 100.0 * static_cast<double>(r.prefix_cache_hits) /
               static_cast<double>(tier_trace.size());
    }(tier_best);
    std::printf("tiered KV: cached tokens %zu -> %zu (%.0f hits per "
                "100 requests; re-admissions can hit too), %.1f MiB "
                "migrated, %.3f ms promotion stall, %.3g J migration "
                "energy.\n",
                tier_flat.prefix_cached_tokens,
                tier_best.prefix_cached_tokens, hit_rate,
                static_cast<double>(tier_best.kv_migrated_bytes) /
                    (1024.0 * 1024.0),
                tier_best.promotion_stall_s * 1e3,
                tier_best.migration_energy_j);

    // ---- Day-scale diurnal trace: 1e5 requests whose arrival rate
    // follows a sinusoidal day/night cycle (generateDiurnalTrace),
    // served end to end. This is the scenario the simulator perf work
    // (CSR survivor compaction, HBM fast path, decode-step memo, one
    // decode call per iteration, O(1) FIFO admission) exists to open:
    // it must clear in well under a minute of wallclock. ----
    std::printf("\nDay-scale diurnal trace (1e5 requests, sinusoidal "
                "day/night rate, 4 accelerators)\n");
    rule();

    DiurnalTraceConfig dtc;
    dtc.base.num_requests = 100000;
    // Mean offered load ~80% of the fleet's measured service capacity:
    // the 1.8x peak saturates the fleet (backlog builds through the
    // "day") and the 0.2x trough drains it (the "night"), so the trace
    // actually exercises the load curve instead of one long overload.
    dtc.base.mean_interarrival_s = 100e-6;
    dtc.base.seed = 0xd1a1;
    dtc.base.min_prompt = 64;
    dtc.base.max_prompt = 256;
    dtc.base.min_output = 4;
    dtc.base.max_output = 16;
    dtc.day_s = 2.0; // Compressed day: ~5 cycles over the trace.
    dtc.amplitude = 0.8;
    const auto day_trace = generateDiurnalTrace(dtc);

    ContinuousBatchConfig day_sc;
    day_sc.max_active = 16;
    day_sc.slo_ttft_s = 25e-3;
    day_sc.slo_itl_s = 2e-3;

    const auto day_wall0 = std::chrono::steady_clock::now();
    const ServeReport day =
        ContinuousBatchScheduler(spattenFleet(4), day_sc).run(day_trace);
    const double day_wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      day_wall0)
            .count();

    std::printf("served %zu requests (%zu tokens) over %.2f simulated "
                "days (%.2f s) in %.1f s wallclock\n",
                day_trace.size(), day.total_tokens,
                day.makespan_s / dtc.day_s, day.makespan_s, day_wall_s);
    std::printf("ttft p50/p99 %.2f/%.2f ms, itl p99 %.1f us, goodput "
                "%.0f req/s, %zu preemptions\n",
                day.ttft_p50_s * 1e3, day.ttft_p99_s * 1e3,
                day.itl_p99_s * 1e6, day.goodput_rps, day.preemptions);
    if (day.total_tokens == 0 ||
        day.requests.size() != day_trace.size()) {
        std::printf("FAIL: the diurnal trace must be served in full\n");
        return 1;
    }
    // The acceptance bar this scenario exists to pin. It times the
    // uninstrumented program: a sanitizer build serves the same trace
    // several times slower with nothing wrong (258.8 s under TSan on 4
    // vCPUs), so there the time is printed but not held to the bound.
    if (kSanitizerBuild) {
        std::printf("wall bound not applied: sanitizer build (took %.1f "
                    "s)\n",
                    day_wall_s);
    } else if (day_wall_s >= 60.0) {
        std::printf("FAIL: the 1e5-request diurnal trace must clear in "
                    "< 60 s wallclock (took %.1f s)\n",
                    day_wall_s);
        return 1;
    }
    records.push_back(recordFromServe("diurnal-1e5", day));

    writeBenchJson("serving", records);
    return 0;
}
