/// Integration tests for the SpAtten pipeline model, the accelerator
/// facade and the e2e (FFN) extension: pruning/quantization effects on
/// latency, DRAM traffic, compute- vs memory-boundedness, and rooflines.
#include <gtest/gtest.h>

#include "accel/decode_session.hpp"
#include "accel/e2e.hpp"
#include "accel/spatten_accelerator.hpp"
#include "workload/benchmarks.hpp"

namespace spatten {
namespace {

WorkloadSpec
bertWorkload(std::size_t len = 128)
{
    WorkloadSpec w;
    w.name = "bert-base-test";
    w.model = ModelSpec::bertBase();
    w.summarize_len = len;
    w.generate_len = 0;
    return w;
}

WorkloadSpec
gptWorkload(std::size_t ctx = 512, std::size_t gen = 16)
{
    WorkloadSpec w;
    w.name = "gpt2-small-test";
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

TEST(Pipeline, DensePolicyHasNoReduction)
{
    const SpAttenAccelerator accel;
    const auto r = accel.run(bertWorkload(), PruningPolicy::disabled());
    EXPECT_DOUBLE_EQ(r.computeReduction(), 1.0);
    EXPECT_GT(r.seconds, 0.0);
    EXPECT_GT(r.attention_flops, 0.0);
    // Dense 12-bit vs fp32 reference: DRAM reduction = 32/12.
    EXPECT_NEAR(r.dramReduction(), 32.0 / 12.0, 0.2);
}

TEST(Pipeline, PruningReducesLatencyAndTraffic)
{
    const SpAttenAccelerator accel;
    const auto dense = accel.run(gptWorkload(), PruningPolicy::disabled());
    const auto pruned = accel.run(gptWorkload(), fullPolicy());
    EXPECT_LT(pruned.seconds, dense.seconds);
    EXPECT_LT(pruned.dram_bytes, dense.dram_bytes);
    EXPECT_LT(pruned.attention_flops, dense.attention_flops);
    EXPECT_GT(pruned.dramReduction(), 3.0); // pruning + quantization
}

TEST(Pipeline, TokenPruningAloneReducesCompute)
{
    const SpAttenAccelerator accel;
    PruningPolicy p = PruningPolicy::disabled();
    p.token_pruning = true;
    p.token_avg_ratio = 0.2;
    const auto r = accel.run(bertWorkload(256), p);
    EXPECT_GT(r.computeReduction(), 1.3);
}

TEST(Pipeline, HeadPruningReducesCompute)
{
    const SpAttenAccelerator accel;
    PruningPolicy p = PruningPolicy::disabled();
    p.head_pruning = true;
    p.head_avg_ratio = 0.1;
    const auto r = accel.run(bertWorkload(256), p);
    EXPECT_GT(r.computeReduction(), 1.05);
}

TEST(Pipeline, ProgressiveQuantReducesDram)
{
    const SpAttenAccelerator accel;
    PruningPolicy static12 = PruningPolicy::disabled();
    const auto r12 = accel.run(gptWorkload(), static12);

    PruningPolicy pq = PruningPolicy::disabled();
    pq.pq.enabled = true;
    pq.pq.setting = {6, 4};
    pq.lsb_fraction = 0.059;
    const auto rq = accel.run(gptWorkload(), pq);
    EXPECT_LT(rq.dram_bytes, r12.dram_bytes * 0.7);
}

TEST(Pipeline, BertIsComputeBoundGptIsMemoryBound)
{
    const SpAttenAccelerator accel;
    const auto bert = accel.run(bertWorkload(384),
                                PruningPolicy::disabled());
    EXPECT_GT(bert.stats.get("pipeline.compute_bound_ns"),
              bert.stats.get("pipeline.memory_bound_ns"));

    // Generation iterations dominate GPT-2 latency and are memory-bound.
    const auto gpt = accel.run(gptWorkload(900, 32),
                               PruningPolicy::disabled());
    EXPECT_GT(gpt.stats.get("pipeline.memory_bound_ns"), 0.0);
}

TEST(Pipeline, EffectiveTflopsUnderRoofs)
{
    const SpAttenAccelerator accel;
    const auto bert = accel.run(bertWorkload(384),
                                PruningPolicy::disabled());
    EXPECT_LE(bert.effectiveTflops(), accel.computeRoofTflops() * 1.001);
    EXPECT_GT(bert.effectiveTflops(), accel.computeRoofTflops() * 0.3);

    const auto gpt = accel.run(gptWorkload(900, 32),
                               PruningPolicy::disabled());
    EXPECT_LT(gpt.effectiveTflops(), bert.effectiveTflops());
}

TEST(Pipeline, LongerSequencesTakeLonger)
{
    const SpAttenAccelerator accel;
    const auto a = accel.run(bertWorkload(64), PruningPolicy::disabled());
    const auto b = accel.run(bertWorkload(256), PruningPolicy::disabled());
    EXPECT_GT(b.seconds, a.seconds * 3.0); // ~quadratic in L
}

TEST(Pipeline, EighthConfigSlower)
{
    const SpAttenAccelerator full;
    const SpAttenAccelerator eighth(SpAttenConfig::eighth());
    const auto rf = full.run(bertWorkload(128), PruningPolicy::disabled());
    const auto re = eighth.run(bertWorkload(128),
                               PruningPolicy::disabled());
    EXPECT_GT(re.seconds, rf.seconds * 3.0);
}

TEST(Pipeline, DramIsAMajorEnergyBucket)
{
    const SpAttenAccelerator accel;
    const auto r = accel.run(gptWorkload(900, 32), fullPolicy());
    // Table II shape: DRAM is a dominant power bucket (5.71 W of 8.30 W
    // in the paper; here we require it to be a major share).
    EXPECT_GT(r.energy.dram_j, 0.3 * r.energy.totalJ());
}

TEST(Pipeline, StageSplitSumsToTotal)
{
    const SpAttenAccelerator accel;
    const auto r = accel.run(gptWorkload(512, 8), fullPolicy());
    EXPECT_NEAR(r.summarize_seconds + r.generate_seconds, r.seconds,
                r.seconds * 1e-9 + 1e-12);
    EXPECT_GT(r.generate_seconds, 0.0);
}

TEST(Pipeline, ContextLimitEnforced)
{
    const SpAttenAccelerator accel;
    WorkloadSpec w = gptWorkload(1020, 16); // 1036 > 1024
    EXPECT_DEATH(accel.run(w, PruningPolicy::disabled()), "context");
}

// The occupancy model prices top-k selections analytically and never
// draws from the per-request PRNG, so results must not depend on the
// seed today. This pins that semantic explicitly: if a future stage
// starts consuming the seed, this test fails and every seed-blind
// golden (the multi-request combos run on arbitrary per-request seeds)
// must be re-proven against real seed plumbing.
TEST(Pipeline, TimingModelIsSeedIndependentToday)
{
    const SpAttenAccelerator accel;
    const RunResult a = accel.run(gptWorkload(256, 4), fullPolicy(), 1);
    const RunResult b = accel.run(gptWorkload(256, 4), fullPolicy(), 999);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.dram_bytes, b.dram_bytes);
}

// Values measured on the monolithic pipeline model that preceded the
// stage graph, for this exact workload/policy; it must not regress them.
TEST(Pipeline, StageGraphMatchesMonolithRegression)
{
    const SpAttenAccelerator accel;
    const RunResult r = accel.run(gptWorkload(512, 16), fullPolicy());
    // Monolith: 2871820 cycles. "No worse" with a small integer slack
    // for rounding; the current graph reproduces it exactly.
    EXPECT_LE(r.cycles, 2871820u);
    EXPECT_GE(r.cycles, 2871820u * 9 / 10); // accounting sanity floor
    // Monolith: 6.3731x DRAM reduction, 2.1724x compute reduction.
    EXPECT_GE(r.dramReduction(), 6.373);
    EXPECT_NEAR(r.computeReduction(), 2.1724, 0.01);
    EXPECT_NEAR(r.attention_flops, 4589715456.0, 1.0);

    const RunResult dense =
        accel.run(gptWorkload(512, 16), PruningPolicy::disabled());
    EXPECT_LE(dense.cycles, 5423040u); // monolith dense cycles
    EXPECT_NEAR(dense.dramReduction(), 32.0 / 12.0, 1e-9);
}

// run() enters decode step t with the grown context L + t + 1;
// runDecode() enters with the last pass's survivors + 1. Without token
// pruning every pass keeps every token, so the two rules coincide and
// the results must be bit-identical, field by field and stat by stat.
TEST(Pipeline, RunEqualsRunDecodeWithoutTokenPruning)
{
    for (const SpAttenConfig& cfg :
         {SpAttenConfig{}, SpAttenConfig::eighth()}) {
        const SpAttenAccelerator accel(cfg);
        for (const BenchmarkSpec& b : paperBenchmarks()) {
            PruningPolicy no_token = b.policy;
            no_token.token_pruning = false;
            for (const PruningPolicy& p :
                 {PruningPolicy::disabled(), no_token}) {
                const RunResult one = accel.run(b.workload, p);
                const RunResult dec = accel.runDecode(b.workload, p).result;
                const std::string what = b.workload.name;
                EXPECT_EQ(one.cycles, dec.cycles) << what;
                EXPECT_EQ(one.seconds, dec.seconds) << what;
                EXPECT_EQ(one.summarize_seconds, dec.summarize_seconds)
                    << what;
                EXPECT_EQ(one.generate_seconds, dec.generate_seconds)
                    << what;
                EXPECT_EQ(one.attention_flops, dec.attention_flops) << what;
                EXPECT_EQ(one.dram_bytes, dec.dram_bytes) << what;
                EXPECT_EQ(one.dram_bytes_dense, dec.dram_bytes_dense)
                    << what;
                EXPECT_EQ(one.energy.totalJ(), dec.energy.totalJ()) << what;
                EXPECT_EQ(one.energy.dram_j, dec.energy.dram_j) << what;
                EXPECT_TRUE(one.stats.sameValues(dec.stats)) << what;
            }
        }
    }
}

TEST(Accelerator, RooflineConstants)
{
    const SpAttenAccelerator accel;
    EXPECT_DOUBLE_EQ(accel.computeRoofTflops(), 2.048);
    EXPECT_DOUBLE_EQ(accel.bandwidthRoofGBs(), 512.0);
}

TEST(Accelerator, ConfigTableMentionsKeyNumbers)
{
    const SpAttenAccelerator accel;
    const std::string t = accel.configTable();
    EXPECT_NE(t.find("512"), std::string::npos); // GB/s or multipliers
    EXPECT_NE(t.find("HBM2"), std::string::npos);
}

TEST(E2e, FcDominatesGenerationStage)
{
    // Table IV: on SpAtten-e2e, FC is ~92% of the GPT-2 generation
    // latency, attention only ~8%.
    SpAttenE2e e2e(SpAttenConfig{}, E2eConfig{8, 0.85});
    const auto r = e2e.run(gptWorkload(900, 16), fullPolicy());
    EXPECT_GT(r.fc_gen_seconds, r.attention.generate_seconds);
    EXPECT_LT(r.genAttnShare(), 0.3);
}

TEST(E2e, EightBitFasterThanTwelve)
{
    SpAttenE2e e8(SpAttenConfig{}, E2eConfig{8, 0.85});
    SpAttenE2e e12(SpAttenConfig{}, E2eConfig{12, 0.85});
    const auto r8 = e8.run(gptWorkload(900, 16), fullPolicy());
    const auto r12 = e12.run(gptWorkload(900, 16), fullPolicy());
    EXPECT_LT(r8.fc_gen_seconds, r12.fc_gen_seconds);
    // Memory-bound mat-vec: generation latency ratio ~ bit ratio.
    EXPECT_NEAR(r12.fc_gen_seconds / r8.fc_gen_seconds, 1.5, 0.2);
}

TEST(E2e, FcParamsFormula)
{
    const ModelSpec m = ModelSpec::bertBase(); // d=768, ffn=3072
    // 4*768^2 + 2*768*3072 = 7077888.
    EXPECT_DOUBLE_EQ(fcParamsPerLayer(m), 7077888.0);
}

TEST(E2e, TokenPruningShrinksSummarizationFcOnly)
{
    SpAttenE2e e2e;
    PruningPolicy dense = PruningPolicy::disabled();
    PruningPolicy pruned = fullPolicy();
    // BERT: token pruning reduces FC work.
    const auto bd = e2e.run(bertWorkload(256), dense);
    const auto bp = e2e.run(bertWorkload(256), pruned);
    EXPECT_LT(bp.fc_flops, bd.fc_flops);
    // GPT-2 generation: FC work is per-token, unchanged by pruning.
    const auto gd = e2e.run(gptWorkload(256, 8), dense);
    const auto gp = e2e.run(gptWorkload(256, 8), pruned);
    EXPECT_DOUBLE_EQ(gp.fc_gen_flops, gd.fc_gen_flops);
    EXPECT_LT(gp.fc_sum_flops, gd.fc_sum_flops);
}

} // namespace
} // namespace spatten
