/// BatchRunner contract tests: N-thread execution is bit-identical to
/// single-threaded execution, aggregates are coherent, and the GPT-2
/// summarize+generate workload's cycles / DRAM reduction through the
/// stage graph are pinned at the old monolith's values (no regression).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "accel/decode_session.hpp"
#include "accel/spatten_accelerator.hpp"
#include "serve/batch_runner.hpp"
#include "sim/stats.hpp"
#include "workload/benchmarks.hpp"

namespace spatten {
namespace {

WorkloadSpec
gptWorkload(std::size_t ctx = 512, std::size_t gen = 16)
{
    WorkloadSpec w;
    w.name = "gpt2-small-batch";
    w.model = ModelSpec::gpt2Small();
    w.summarize_len = ctx;
    w.generate_len = gen;
    return w;
}

PruningPolicy
fullPolicy()
{
    PruningPolicy p;
    p.token_avg_ratio = 0.15;
    p.head_avg_ratio = 0.05;
    p.local_v_ratio = 0.3;
    p.pq.enabled = true;
    p.pq.setting = {8, 4};
    p.lsb_fraction = 0.059;
    return p;
}

std::vector<BatchRequest>
mixedBatch()
{
    std::vector<BatchRequest> batch;
    WorkloadSpec bert;
    bert.name = "bert-batch";
    bert.model = ModelSpec::bertBase();
    bert.summarize_len = 192;
    batch.push_back({bert, fullPolicy(), 1});
    batch.push_back({gptWorkload(384, 8), fullPolicy(), 2});
    batch.push_back({gptWorkload(512, 4), PruningPolicy::disabled(), 3});
    batch.push_back({bert, PruningPolicy::disabled(), 4});
    batch.push_back({gptWorkload(256, 12), fullPolicy(), 5});
    batch.push_back({gptWorkload(384, 8), fullPolicy(), 2}); // duplicate
    return batch;
}

// Pinned by the static-analysis PR: batch_runner.cpp carries the
// repo's only determinism-ok(no-wallclock) suppressions, justified by
// the claim that the steady_clock probe measures host time and never
// feeds simulated state. This test is that claim's regression guard —
// two runs of the same batch must agree bit-for-bit on every simulated
// aggregate even though their wall_seconds differ freely.
TEST(BatchRunner, WallClockNeverLeaksIntoSimulatedAggregates)
{
    const auto batch = mixedBatch();
    BatchRunner runner(SpAttenConfig{}, {4});
    const BatchResult a = runner.run(batch);
    const BatchResult b = runner.run(batch);

    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        EXPECT_EQ(a.results[i].cycles, b.results[i].cycles) << i;
        EXPECT_EQ(a.results[i].dram_bytes, b.results[i].dram_bytes) << i;
    }
    EXPECT_EQ(a.p50_seconds, b.p50_seconds);
    EXPECT_EQ(a.p99_seconds, b.p99_seconds);
    EXPECT_EQ(a.total_seconds, b.total_seconds);
    EXPECT_EQ(a.makespan_seconds, b.makespan_seconds);
    EXPECT_EQ(a.total_flops, b.total_flops);
    EXPECT_EQ(a.aggregate_tflops, b.aggregate_tflops);
    EXPECT_EQ(a.dram_reduction, b.dram_reduction);
    // wall_seconds is the host-side probe: positive, but deliberately
    // NOT compared — it is the one field allowed to vary run to run.
    EXPECT_GT(a.wall_seconds, 0.0);
    EXPECT_GT(b.wall_seconds, 0.0);
}

TEST(BatchRunner, MultiThreadedBitIdenticalToSingleThreaded)
{
    const auto batch = mixedBatch();
    const BatchResult ref =
        BatchRunner(SpAttenConfig{}, {1}).run(batch);
    ASSERT_EQ(ref.results.size(), batch.size());
    for (const std::size_t threads : {2u, 4u, 8u}) {
        const BatchResult r =
            BatchRunner(SpAttenConfig{}, {threads}).run(batch);
        ASSERT_EQ(r.results.size(), batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            EXPECT_EQ(r.results[i].cycles, ref.results[i].cycles)
                << "request " << i << " at " << threads << " threads";
            EXPECT_EQ(r.results[i].seconds, ref.results[i].seconds);
            EXPECT_EQ(r.results[i].dram_bytes, ref.results[i].dram_bytes);
            EXPECT_EQ(r.results[i].attention_flops,
                      ref.results[i].attention_flops);
            EXPECT_EQ(r.results[i].energy.totalJ(),
                      ref.results[i].energy.totalJ());
        }
        EXPECT_EQ(r.p50_seconds, ref.p50_seconds);
        EXPECT_EQ(r.p99_seconds, ref.p99_seconds);
        EXPECT_EQ(r.aggregate_tflops, ref.aggregate_tflops);
        EXPECT_EQ(r.dram_reduction, ref.dram_reduction);
    }
}

// The occupancy model prices top-k selections analytically and never
// draws from the per-request PRNG, so results must not depend on the
// seed today. This pins that semantic explicitly: if a future stage
// starts consuming the seed, this test fails and the determinism
// contract above must be re-proven against real seed plumbing.
TEST(BatchRunner, TimingModelIsSeedIndependentToday)
{
    SpAttenPipeline pipe;
    const RunResult a = pipe.run(gptWorkload(256, 4), fullPolicy(), 1);
    const RunResult b = pipe.run(gptWorkload(256, 4), fullPolicy(), 999);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.dram_bytes, b.dram_bytes);
}

TEST(BatchRunner, AggregatesAreCoherent)
{
    const BatchResult r =
        BatchRunner(SpAttenConfig{}, {2}).run(mixedBatch());
    EXPECT_LE(r.p50_seconds, r.p99_seconds);
    EXPECT_GT(r.p50_seconds, 0.0);
    EXPECT_GT(r.aggregate_tflops, 0.0);
    EXPECT_GT(r.dram_reduction, 1.0);
    EXPECT_GT(r.throughputRps(), 0.0);
    double sum = 0.0;
    for (const auto& res : r.results)
        sum += res.seconds;
    EXPECT_DOUBLE_EQ(r.total_seconds, sum);
}

TEST(BatchRunner, EmptyBatchAndFacade)
{
    const BatchResult empty = BatchRunner().run({});
    EXPECT_TRUE(empty.results.empty());
    EXPECT_EQ(empty.p50_seconds, 0.0);

    SpAttenAccelerator accel;
    const BatchResult r = accel.runBatch({{gptWorkload(128, 2),
                                           fullPolicy(), 7}},
                                         2);
    ASSERT_EQ(r.results.size(), 1u);
    EXPECT_GT(r.results.front().seconds, 0.0);
}

// throughputRps once divided by the *sum* of per-request latencies,
// which under-reports concurrent service: two equal requests served in
// parallel are 2/latency, not 1/latency. It is now makespan-based.
TEST(BatchRunner, ThroughputIsMakespanBasedNotLatencySumBased)
{
    const BatchRequest req{gptWorkload(256, 4), fullPolicy(), 1};
    const BatchResult r =
        BatchRunner(SpAttenConfig{}, {2}).run({req, req});
    ASSERT_EQ(r.results.size(), 2u);
    // Identical requests: identical latencies, so the concurrent batch
    // completes in one request latency.
    ASSERT_EQ(r.results[0].seconds, r.results[1].seconds);
    EXPECT_DOUBLE_EQ(r.makespan_seconds, r.results[0].seconds);
    EXPECT_DOUBLE_EQ(r.throughputRps(), 2.0 / r.results[0].seconds);
    // The old sum-based definition (size / total_seconds) would have
    // reported exactly half of this.
    EXPECT_DOUBLE_EQ(r.total_seconds, 2.0 * r.results[0].seconds);
    EXPECT_GT(r.throughputRps(),
              1.9 * static_cast<double>(r.results.size()) /
                  r.total_seconds);
}

TEST(BatchRunner, MakespanIsSlowestRequestLatency)
{
    const BatchResult r =
        BatchRunner(SpAttenConfig{}, {4}).run(mixedBatch());
    double slowest = 0.0;
    for (const auto& res : r.results)
        slowest = std::max(slowest, res.seconds);
    EXPECT_DOUBLE_EQ(r.makespan_seconds, slowest);
    EXPECT_LT(r.makespan_seconds, r.total_seconds);
}

// Values measured on the pre-refactor monolithic SpAttenPipeline::run()
// for this exact workload/policy; the stage graph must not regress them.
TEST(BatchRunner, StageGraphMatchesMonolithRegression)
{
    SpAttenPipeline pipe;
    const RunResult r = pipe.run(gptWorkload(512, 16), fullPolicy());
    // Monolith: 2871820 cycles. "No worse" with a small integer slack
    // for rounding; the current graph reproduces it exactly.
    EXPECT_LE(r.cycles, 2871820u);
    EXPECT_GE(r.cycles, 2871820u * 9 / 10); // accounting sanity floor
    // Monolith: 6.3731x DRAM reduction, 2.1724x compute reduction.
    EXPECT_GE(r.dramReduction(), 6.373);
    EXPECT_NEAR(r.computeReduction(), 2.1724, 0.01);
    EXPECT_NEAR(r.attention_flops, 4589715456.0, 1.0);

    const RunResult dense =
        pipe.run(gptWorkload(512, 16), PruningPolicy::disabled());
    EXPECT_LE(dense.cycles, 5423040u); // monolith dense cycles
    EXPECT_NEAR(dense.dramReduction(), 32.0 / 12.0, 1e-9);
}

using StatRow = std::tuple<std::string, double, bool>;

/// One worker's stat registry: names every worker shares, names unique
/// to @p tid, and a finalized SpAtten session's stats merged on top.
std::vector<StatRow>
buildWorkerStats(std::size_t tid)
{
    StatSet s;
    for (std::size_t i = 0; i < 32; ++i) {
        const double v = static_cast<double>(tid * 100 + i);
        s.add("batch_runner.shared." + std::to_string(i), v + 0.5);
        s.set("batch_runner.worker" + std::to_string(tid) + "." +
                  std::to_string(i),
              v);
    }
    DecodeSession session(SpAttenConfig{}, gptWorkload(64 + 16 * tid, 3),
                          fullPolicy(), tid);
    session.prefill();
    while (!session.done())
        session.decodeStep();
    s.merge(session.finalize().stats);
    s.add("batch_runner.shared.0", 1.0);

    std::vector<StatRow> rows;
    for (const auto& [name, value] : s.all())
        rows.emplace_back(name, value, s.isGauge(name));
    return rows;
}

// StatSet names are interned in one process-wide table. Workers that
// intern fresh names concurrently (the shared ones racing each other)
// must each end up with exactly the single-threaded registry; under
// TSan this is the intern table's race check.
TEST(BatchRunner, ConcurrentStatSetsMatchSingleThreadedReference)
{
    constexpr std::size_t kWorkers = 8;
    std::vector<std::vector<StatRow>> got(kWorkers);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kWorkers; ++t)
        threads.emplace_back([&got, t] { got[t] = buildWorkerStats(t); });
    for (auto& th : threads)
        th.join();
    // References run after the workers, so the workers are the ones
    // that interned the batch_runner.* names.
    for (std::size_t t = 0; t < kWorkers; ++t) {
        const std::vector<StatRow> want = buildWorkerStats(t);
        ASSERT_EQ(got[t].size(), want.size()) << "worker " << t;
        EXPECT_TRUE(got[t] == want) << "worker " << t;
        EXPECT_TRUE(std::is_sorted(want.begin(), want.end()));
    }
}

} // namespace
} // namespace spatten
