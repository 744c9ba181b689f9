/// Stage-graph unit tests: StageModel conformance of every accel module,
/// the ExecutionContext plane-address fix (no layer aliasing for models
/// with > 64 heads), the context's per-layer policy (cascade pruning,
/// progressive quantization), and the automatic per-stage stats landed
/// by StageGraph.
#include <gtest/gtest.h>

#include <set>

#include "accel/fetcher.hpp"
#include "accel/pv_module.hpp"
#include "accel/qk_module.hpp"
#include "accel/softmax_module.hpp"
#include "accel/spatten_accelerator.hpp"
#include "accel/topk_engine.hpp"
#include "accel/zero_eliminator.hpp"
#include "core/execution_context.hpp"
#include "core/schedule.hpp"

namespace spatten {
namespace {

ExecutionContext
testContext()
{
    WorkloadSpec w;
    w.model = ModelSpec::bertBase();
    w.summarize_len = 128;
    PruningPolicy p;
    p.token_avg_ratio = 0.2;
    p.head_avg_ratio = 0.1;
    p.local_v_ratio = 0.3;
    ExecutionContext ctx = makeExecutionContext(w, p);
    ctx.pass_queries = 128;
    ctx.alive_tokens = 128;
    ctx.alive_heads = 12;
    ctx.sram_tokens = 1024;
    ctx.beginLayer();
    return ctx;
}

TEST(StageModel, EveryModuleImplementsTheInterface)
{
    QkModule qk;
    PvModule pv;
    SoftmaxModule sm;
    TopkEngine tk;
    ZeroEliminator ze;
    HbmModel hbm;
    Crossbar xbar({32, 16});
    QkvFetcher fetcher(hbm, xbar);

    const std::vector<const StageModel*> stages = {&qk,      &pv, &sm,
                                                   &tk,      &ze, &fetcher};
    std::set<std::string> names;
    const ExecutionContext ctx = testContext();
    for (const StageModel* s : stages) {
        EXPECT_FALSE(s->stageName().empty());
        names.insert(s->stageName());
        (void)s->timing(ctx);
        (void)s->energy(ctx);
        (void)s->traffic(ctx);
    }
    EXPECT_EQ(names.size(), stages.size()) << "stage names must be unique";
}

TEST(StageModel, TimingMatchesModuleOccupancies)
{
    const ExecutionContext ctx = testContext(); // 128 keys, d=64, kept=90
    QkModule qk;
    EXPECT_EQ(qk.timing(ctx).ii_cycles, qk.timing(128, 64).cycles);
    PvModule pv;
    EXPECT_EQ(pv.timing(ctx).ii_cycles, pv.timing(ctx.kept_values, 64).cycles);
    SoftmaxModule sm;
    EXPECT_EQ(sm.timing(ctx).ii_cycles, Cycles{128 / 8});
    // Local-V quick-select: 2n expected ops over 16 comparators.
    TopkEngine tk;
    EXPECT_EQ(tk.timing(ctx).ii_cycles, Cycles{2 * 128 / 16});
}

TEST(StageModel, TopkPlusZeroEliminatorReproduceSelectionCost)
{
    // The monolith priced a full n-element selection at
    // ceil(2n/p) + ceil(n/p) + 4*(ceil(log2 n)+1); the split between the
    // top-k stream and the zero-eliminator passes must preserve the sum.
    TopkEngine tk({16, 1024, 0x70cc});
    for (const std::size_t n : {1u, 2u, 100u, 128u, 1000u}) {
        const Cycles split =
            tk.selectStreamCycles(n) + ZeroEliminator::cascadeCycles(n);
        Cycles expect;
        if (n <= 1) {
            expect = 1;
        } else {
            const auto logn = static_cast<Cycles>(ceilLog2(n));
            expect = (2 * n + 15) / 16 + (n + 15) / 16 + 4 * (logn + 1);
        }
        EXPECT_EQ(split, expect) << "n=" << n;
    }
}

TEST(ExecutionContext, PlaneBasesNeverAliasAcrossLayers)
{
    // The seed's fixed `layer * 64 + head` slot stride collided layer
    // regions for models with more than 64 heads; the stride now derives
    // from the model's head count.
    ExecutionContext ctx = testContext();
    ctx.num_heads_total = 96;
    std::set<std::uint64_t> bases;
    std::size_t combos = 0;
    for (std::size_t layer = 0; layer < ctx.num_layers; ++layer) {
        ctx.layer = layer;
        for (std::size_t head = 0; head < 96; ++head, ++combos)
            bases.insert(ctx.planeBase(0, head, 96));
    }
    EXPECT_EQ(bases.size(), combos) << "layer/head address collision";
}

TEST(ExecutionContext, PlaneRegionsNeverOverlapForLargeModels)
{
    // A 96-head, 12-layer fp32 model overflows a fixed 256 MB plane
    // region; the region must grow so the last slot of plane p stays
    // below the first slot of plane p + 1.
    ExecutionContext ctx = testContext();
    ctx.num_heads_total = 96;
    ctx.num_layers = 12;
    ctx.total_bits = 32;
    ctx.max_context = 1024;
    const std::size_t row = ctx.bytesPerRow(32); // widest plane
    ctx.layer = ctx.num_layers - 1;
    const std::uint64_t last_slot_end =
        ctx.planeBase(0, 95, row) +
        roundUp<std::uint64_t>(ctx.max_context * row, 4096);
    ctx.layer = 0;
    EXPECT_LE(last_slot_end, ctx.planeBase(1, 0, row))
        << "plane 0 spills into plane 1";
    // Small models keep the historical 256 MB region (layout unchanged).
    ExecutionContext small = testContext();
    small.layer = 0;
    EXPECT_EQ(small.planeBase(1, 0, 96) - small.planeBase(0, 0, 96),
              0x10000000ULL);
}

TEST(ExecutionContext, BeginLayerDerivesQueriesAndKeptRows)
{
    ExecutionContext ctx = testContext();
    ctx.alive_tokens = 100;
    ctx.beginLayer();
    EXPECT_EQ(ctx.queries, 100u); // capped at the surviving context
    EXPECT_EQ(ctx.kept_values, 70u); // ceil(100 * (1 - 0.3))
    ctx.local_value_pruning = false;
    ctx.beginLayer();
    EXPECT_EQ(ctx.kept_values, 100u);
}

TEST(ExecutionContext, EndLayerCascadesAliveCounts)
{
    WorkloadSpec w;
    w.model = ModelSpec::bertBase();
    w.summarize_len = 256;
    PruningPolicy p;
    p.token_avg_ratio = 0.25;
    p.head_avg_ratio = 0.1;
    ExecutionContext ctx = makeExecutionContext(w, p);
    ctx.beginPass(256, 256, false);

    const PruningSchedule tokens =
        makeTokenSchedule(w.model.num_layers, p.token_avg_ratio);
    const PruningSchedule heads =
        makeHeadSchedule(w.model.num_layers, p.head_avg_ratio);
    std::size_t alive_tokens = 256;
    std::size_t alive_heads = 12;
    for (std::size_t l = 0; l < w.model.num_layers; ++l) {
        ctx.beginLayer();
        EXPECT_EQ(ctx.token_prune_ratio, tokens.ratioAt(l)) << l;
        EXPECT_EQ(ctx.head_prune_ratio, heads.ratioAt(l)) << l;
        EXPECT_EQ(ctx.survivorTokens(), alive_tokens) << l;
        ctx.endLayer();
        alive_tokens = pruneSurvivors(alive_tokens, tokens.ratioAt(l));
        alive_heads = pruneSurvivors(alive_heads, heads.ratioAt(l));
        EXPECT_EQ(ctx.layer, l + 1);
        EXPECT_EQ(ctx.alive_tokens, alive_tokens) << l;
        EXPECT_EQ(ctx.alive_heads, alive_heads) << l;
    }
    EXPECT_LT(ctx.alive_tokens, 256u);
    EXPECT_LT(ctx.alive_heads, 12u);
    EXPECT_GE(ctx.alive_tokens, 1u);
    EXPECT_GE(ctx.alive_heads, 1u);
}

TEST(ExecutionContext, BeginLayerSelectsPlanePerStage)
{
    WorkloadSpec w;
    w.model = ModelSpec::gpt2Small();
    PruningPolicy p = PruningPolicy::disabled();
    p.pq.enabled = true;
    p.pq.setting = {6, 4};
    p.lsb_fraction = 0.059;
    ExecutionContext ctx = makeExecutionContext(w, p);

    ctx.beginPass(8, 8, false);
    ctx.beginLayer();
    EXPECT_EQ(ctx.fetch_bits, 10); // summarization: full static width
    EXPECT_DOUBLE_EQ(ctx.active_lsb_fraction, 0.0);
    ctx.beginPass(1, 9, true);
    ctx.beginLayer();
    EXPECT_EQ(ctx.fetch_bits, 6); // generation: eager MSB plane
    EXPECT_DOUBLE_EQ(ctx.active_lsb_fraction, 0.059);
}

TEST(ExecutionContext, PruningOffIgnoresItsRatio)
{
    // A policy that turns a pruning kind off builds no schedule for it,
    // so a stray average ratio must not leak into the simulation: the
    // run equals one with zero ratios bit for bit.
    WorkloadSpec w;
    w.name = "pruning-off";
    w.model = ModelSpec::gpt2Small();
    w.summarize_len = 128;
    w.generate_len = 8;
    PruningPolicy zero;
    zero.token_pruning = false;
    zero.head_pruning = false;
    zero.token_avg_ratio = 0.0;
    zero.head_avg_ratio = 0.0;
    PruningPolicy stray = zero;
    stray.token_avg_ratio = 1.5;
    stray.head_avg_ratio = 1.5;

    const ExecutionContext ctx = makeExecutionContext(w, stray);
    EXPECT_TRUE(ctx.token_ratios.empty());
    EXPECT_TRUE(ctx.head_ratios.empty());

    const SpAttenAccelerator accel;
    const RunResult a = accel.run(w, zero);
    const RunResult b = accel.run(w, stray);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.dram_bytes, b.dram_bytes);
    EXPECT_EQ(a.attention_flops, b.attention_flops);
    EXPECT_EQ(a.energy.totalJ(), b.energy.totalJ());
    EXPECT_TRUE(a.stats.sameValues(b.stats));
}

TEST(StageGraph, AsymmetricSramTilesToTheSmallerBuffer)
{
    // The tile size must honor the smaller SRAM: a shrunken value SRAM
    // forces more K tiles, re-streaming Q and raising DRAM traffic
    // (the monolith instead aborted on the value-SRAM fill).
    WorkloadSpec w;
    w.name = "asymmetric-sram";
    w.model = ModelSpec::bertBase();
    w.summarize_len = 512;
    SpAttenConfig small_value;
    small_value.value_sram_kb = 32; // 170 tokens/buffer vs 1045 for key
    const RunResult tiled =
        SpAttenAccelerator(small_value).run(w, PruningPolicy::disabled());
    const RunResult flat =
        SpAttenAccelerator().run(w, PruningPolicy::disabled());
    EXPECT_GT(tiled.dram_bytes, flat.dram_bytes);
    EXPECT_GT(tiled.seconds, 0.0);
}

TEST(StageGraph, PerStageStatsLandAutomatically)
{
    SpAttenAccelerator accel;
    WorkloadSpec w;
    w.name = "stage-stats";
    w.model = ModelSpec::gpt2Small();
    w.summarize_len = 256;
    w.generate_len = 4;
    PruningPolicy p;
    p.pq.enabled = true;
    const RunResult r = accel.run(w, p);

    for (const char* stage : {"fetcher", "qk", "softmax", "topk",
                              "zero_eliminator", "pv"}) {
        const std::string prefix = std::string("stage.") + stage;
        EXPECT_TRUE(r.stats.has(prefix + ".busy_cycles")) << stage;
        EXPECT_TRUE(r.stats.has(prefix + ".energy_pj")) << stage;
    }
    EXPECT_GT(r.stats.get("stage.qk.busy_cycles"), 0.0);
    EXPECT_GT(r.stats.get("stage.pv.energy_pj"), 0.0);
    EXPECT_GT(r.stats.get("stage.fetcher.dram_bytes"), 0.0);
    // The fetcher's static traffic estimate prices the same plan that
    // issue() realizes against HBM.
    EXPECT_NEAR(r.stats.get("stage.fetcher.dram_bytes"), r.dram_bytes,
                r.dram_bytes * 0.02);
    // Occupancy ordering on a long-context run: QxK streams the full
    // context, PV only the locally-kept rows.
    EXPECT_GT(r.stats.get("stage.qk.busy_cycles"),
              r.stats.get("stage.pv.busy_cycles"));
}

} // namespace
} // namespace spatten
