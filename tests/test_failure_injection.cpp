/// Consolidated failure-injection suite: every module's precondition
/// violations must fail loudly (panic/fatal), never silently corrupt.
#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "accel/pipeline.hpp"
#include "accel/qk_module.hpp"
#include "accel/spatten_accelerator.hpp"
#include "accel/topk_engine.hpp"
#include "common/prng.hpp"
#include "common/tokens.hpp"
#include "core/attention_ref.hpp"
#include "core/schedule.hpp"
#include "hbm/hbm.hpp"
#include "nn/layers.hpp"
#include "quant/linear_quant.hpp"
#include "serve/continuous_batch_scheduler.hpp"
#include "sim/stats.hpp"
#include "tensor/ops.hpp"
#include "workload/arrival_trace.hpp"

namespace spatten {
namespace {

TEST(FailureInjection, TensorShapeMismatches)
{
    Tensor a({2, 3}), b({3, 3});
    EXPECT_DEATH(ops::add(a, b), "elementwise");
    EXPECT_DEATH(ops::matmul(a, a), "matmul");
    EXPECT_DEATH(a.row(5), "row");
    EXPECT_DEATH(a.reshape({7}), "reshape");
    Tensor empty;
    EXPECT_DEATH(empty.maxElem(), "empty");
}

TEST(FailureInjection, QuantBadBitwidths)
{
    Tensor x({4}, 1.0f);
    EXPECT_DEATH(quant::quantize(x, 1), "bitwidth");
    EXPECT_DEATH(quant::quantize(x, 17), "bitwidth");
    EXPECT_DEATH(quant::quantizeWithScale(x, 8, -1.0f), "scale");
}

TEST(FailureInjection, TopkOutOfRange)
{
    TopkEngine engine;
    EXPECT_DEATH(engine.run({1.0f, 2.0f}, 0), "top-k");
    EXPECT_DEATH(engine.run({1.0f, 2.0f}, 3), "top-k");
}

TEST(FailureInjection, QkModuleBadHeadDim)
{
    QkModule qk;
    EXPECT_DEATH(qk.timing(10, 0), "head dim");
    EXPECT_DEATH(qk.timing(10, 1024), "head dim");
}

TEST(FailureInjection, HbmZeroByteRequest)
{
    HbmModel hbm;
    EXPECT_DEATH(hbm.access({0, 0, false}, 0), "zero-byte");
}

TEST(FailureInjection, HbmZeroBandwidth)
{
    // Each would make every burst length a NaN/inf cast to Cycles.
    const auto make = [](int bytes_per_cycle, double efficiency) {
        HbmConfig cfg;
        cfg.bytes_per_cycle = bytes_per_cycle;
        cfg.bus_efficiency = efficiency;
        HbmModel hbm(cfg);
    };
    make(16, 1.0); // The bounds themselves are legal.
    EXPECT_DEATH(make(0, 0.72), "bytes_per_cycle 0 must be positive");
    EXPECT_DEATH(make(-16, 0.72), "bytes_per_cycle -16 must be positive");
    EXPECT_DEATH(make(16, 0.0), "bus_efficiency 0 outside");
    EXPECT_DEATH(make(16, -0.5), "bus_efficiency -0.5 outside");
    EXPECT_DEATH(make(16, 1.5), "bus_efficiency 1.5 outside");
    EXPECT_DEATH(make(16, std::numeric_limits<double>::quiet_NaN()),
                 "bus_efficiency nan outside");
}

TEST(FailureInjection, ScheduleBadRatio)
{
    ScheduleConfig cfg;
    cfg.avg_ratio = 1.5;
    EXPECT_DEATH(PruningSchedule(4, cfg), "avg_ratio");
    const PruningSchedule s = makeTokenSchedule(4, 0.2);
    EXPECT_DEATH(s.ratioAt(9), "layer");
}

TEST(FailureInjection, PipelineEmptyWorkload)
{
    const SpAttenAccelerator accel;
    WorkloadSpec w;
    w.summarize_len = 0;
    EXPECT_DEATH(accel.run(w, PruningPolicy::disabled()), "empty prompt");
}

WorkloadSpec
overContextWorkload()
{
    WorkloadSpec w;
    w.model = ModelSpec::gpt2Small();
    w.summarize_len = 1020;
    w.generate_len = 16; // 1036 > the default 1024-token SRAM limit
    return w;
}

TEST(FailureInjection, ContextLimitThroughRun)
{
    const SpAttenAccelerator accel;
    EXPECT_DEATH(accel.run(overContextWorkload(), PruningPolicy{}),
                 "context 1036 exceeds SRAM-backed max 1024");
}

TEST(FailureInjection, ContextLimitThroughMakeSession)
{
    const SpAttenAccelerator accel;
    EXPECT_DEATH(accel.makeSession(overContextWorkload(), PruningPolicy{},
                                   kDefaultRequestSeed),
                 "context 1036 exceeds SRAM-backed max 1024");
}

TEST(FailureInjection, BadCoreClockThroughRun)
{
    // The facade rejects a clock that is not a finite positive
    // frequency when it is built, before any session runs.
    for (const double ghz : {0.0, -1.0,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
        SpAttenConfig cfg;
        cfg.core_freq_ghz = ghz;
        EXPECT_DEATH(SpAttenAccelerator{cfg}, "bad clock config") << ghz;
    }
}

TEST(FailureInjection, AttentionBadHeadSplit)
{
    Prng p(1);
    const Tensor q = Tensor::randn({2, 10}, p);
    EXPECT_DEATH(attentionForward(q, q, q, 3), "divisible");
}

TEST(FailureInjection, EmbeddingOutOfVocab)
{
    Prng p(2);
    Embedding emb("e", 4, 8, 16, p);
    EXPECT_DEATH(emb.forward({7}), "vocab");
    EXPECT_DEATH(emb.forwardOne(1, 99), "out of range");
}

TEST(FailureInjection, LossBadLabel)
{
    Tensor logits({1, 3}, 0.0f);
    Tensor d;
    EXPECT_DEATH(softmaxCrossEntropy(logits, {5}, d), "label");
}

TEST(FailureInjection, SchedulerBadFarMemoryLink)
{
    // A tiering config whose link would price promotions as inf/NaN
    // seconds (or negative energy) is rejected at construction, and so
    // is a negative or NaN capacity, which enabled() reads as "off" but
    // which would still be converted to bytes.
    const auto build = [](FarMemoryConfig fm) {
        ContinuousBatchConfig sc;
        sc.far_memory = fm;
        ContinuousBatchScheduler sched(
            {std::make_shared<const SpAttenAccelerator>()}, sc);
    };
    FarMemoryConfig fm;
    fm.capacity_gb = -1.0;
    EXPECT_DEATH(build(fm), "capacity_gb");
    fm.capacity_gb = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DEATH(build(fm), "capacity_gb");
    fm.capacity_gb = 1.0;
    fm.bandwidth_gbs = 0.0;
    EXPECT_DEATH(build(fm), "bandwidth_gbs");
    fm.bandwidth_gbs = -4.0;
    EXPECT_DEATH(build(fm), "bandwidth_gbs");
    fm.bandwidth_gbs = 64.0;
    fm.latency_us = -0.5;
    EXPECT_DEATH(build(fm), "latency_us");
    fm.latency_us = 0.5;
    fm.bit_energy_pj = -1.0;
    EXPECT_DEATH(build(fm), "bit_energy_pj");
}

TEST(FailureInjection, StatLayoutBudgetStopsUnboundedNames)
{
    // Each new name moves a set to a layout one key longer, so n
    // distinct names in one set intern ~n^2/2 layout keys. A name
    // vocabulary built from unbounded data must die at the budget
    // instead of growing without limit.
    const auto flood = [] {
        StatSet s;
        for (std::size_t i = 0; i < 4 * 1024; ++i)
            s.add("budget.flood." + std::to_string(i), 1.0);
    };
    EXPECT_DEATH(flood(), "over the budget");
}

TEST(FailureInjection, FarMemoryValidateRejectsBadLink)
{
    // validate() itself, with no scheduler around it: each bad field
    // dies naming itself, and the defaults pass.
    FarMemoryConfig fm;
    fm.validate();
    fm.bandwidth_gbs = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DEATH(fm.validate(), "bandwidth_gbs");
    fm = FarMemoryConfig{};
    fm.latency_us = -1.0;
    EXPECT_DEATH(fm.validate(), "latency_us");
    fm = FarMemoryConfig{};
    fm.bit_energy_pj = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DEATH(fm.validate(), "bit_energy_pj");
}

TEST(FailureInjection, PromptViewReadsOutsideItself)
{
    const PromptTokens empty;
    EXPECT_DEATH(empty.front(), "front\\(\\) of an empty prompt view");
    EXPECT_DEATH(empty.back(), "back\\(\\) of an empty prompt view");
    EXPECT_DEATH(empty.at(0), "token 0 of a 0-token prompt view");
    // A 4-token view of a conversation that goes on: position 4 exists
    // in the runs but not in the view.
    const PromptTokens view(std::make_shared<const PromptTokens::Runs>(
                                PromptTokens::Runs{{0, 1}, {4, 2}}),
                            4);
    EXPECT_DEATH(view.at(4), "token 4 of a 4-token prompt view");
}

TEST(FailureInjection, PrngEmptyBounds)
{
    Prng p;
    // The bound is checked before its rejection limit divides by it.
    EXPECT_DEATH(Prng::Bound(0), "below\\(0\\) is ill-defined");
    EXPECT_DEATH(p.below(0), "below\\(0\\) is ill-defined");
    EXPECT_DEATH(p.range(1, 0), "range\\(1, 0\\) is empty");
}

TEST(FailureInjection, DiurnalTraceRejectsABurstyBase)
{
    // The diurnal process re-draws every arrival, so a bursty base's
    // ON/OFF knobs would be silently ignored.
    DiurnalTraceConfig dc;
    dc.base.num_requests = 4;
    dc.base.process = ArrivalProcess::OnOffBurst;
    EXPECT_DEATH(generateDiurnalTrace(dc), "diurnal trace needs a Poisson");
}

} // namespace
} // namespace spatten
