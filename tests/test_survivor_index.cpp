/// The CSR survivor index: container semantics (materialized vs
/// compact rows), the functional path's per-layer export matching the
/// cascade pruner's alive sets under random pruning patterns, and the
/// analytic timing path's compact rows tracking the pass's survivor
/// trajectory exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "accel/decode_session.hpp"
#include "accel/pipeline.hpp"
#include "core/pruning.hpp"
#include "sim/survivor_index.hpp"

namespace spatten {
namespace {

TEST(SurvivorIndex, EmptyAndResetSemantics)
{
    SurvivorIndex idx;
    EXPECT_EQ(idx.layers(), 0u);
    EXPECT_EQ(idx.back(), 0u);
    EXPECT_TRUE(idx.materialized()); // Vacuously: no compact rows yet.

    idx.appendCompactLayer(7);
    EXPECT_EQ(idx.layers(), 1u);
    EXPECT_EQ(idx.count(0), 7u);
    EXPECT_EQ(idx.back(), 7u);
    EXPECT_FALSE(idx.materialized());

    idx.reset(4);
    EXPECT_EQ(idx.layers(), 0u);
    idx.appendLayer({1, 3, 5});
    EXPECT_TRUE(idx.materialized());
    EXPECT_EQ(idx.count(0), 3u);
    EXPECT_EQ(*idx.rowBegin(0), 1u);
    EXPECT_EQ(*(idx.rowEnd(0) - 1), 5u);
}

TEST(SurvivorIndex, MaterializedRowsMatchPrunerUnderRandomPatterns)
{
    // Property: for random importance scores and random per-round prune
    // ratios, the CSR rows exported via CascadeTokenPruner::appendTo
    // are exactly the pruner's alive sets — ascending ids, each row a
    // subset of the previous (cascade monotonicity).
    std::mt19937 rng(0xc5f);
    for (int round = 0; round < 8; ++round) {
        const std::size_t n = 16 + (rng() % 128);
        TokenImportanceAccumulator acc(n);
        CascadeTokenPruner pruner(n);
        SurvivorIndex idx;
        std::vector<std::vector<std::size_t>> reference;

        const std::size_t layers = 3 + (rng() % 6);
        std::uniform_real_distribution<double> ratio_dist(0.0, 0.5);
        std::uniform_real_distribution<float> score_dist(0.0f, 1.0f);
        for (std::size_t l = 0; l < layers; ++l) {
            // Fresh random importance each layer.
            std::vector<float> row(n);
            for (auto& s : row)
                s = score_dist(rng);
            std::vector<std::size_t> all(n);
            for (std::size_t i = 0; i < n; ++i)
                all[i] = i;
            acc.accumulateRow(row, all);

            pruner.pruneToRatio(acc, ratio_dist(rng));
            pruner.appendTo(idx);
            reference.push_back(pruner.alive());
        }

        ASSERT_EQ(idx.layers(), layers);
        ASSERT_TRUE(idx.materialized());
        for (std::size_t l = 0; l < layers; ++l) {
            const std::vector<std::size_t> got(idx.rowBegin(l),
                                               idx.rowEnd(l));
            EXPECT_EQ(got, reference[l]) << "round " << round
                                         << " layer " << l;
            EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
            if (l > 0) {
                EXPECT_TRUE(std::includes(idx.rowBegin(l - 1),
                                          idx.rowEnd(l - 1),
                                          idx.rowBegin(l),
                                          idx.rowEnd(l)));
            }
        }
    }
}

TEST(SurvivorIndex, CompactRowsTrackAnalyticPassTrajectory)
{
    // The timing path appends one compact row per layer entry; under
    // cascade pruning the widths must start at the entering context and
    // shrink monotonically, and the context's survivorTokens() reads
    // the latest row.
    WorkloadSpec w;
    w.name = "csr-probe";
    w.model = {"tiny", 6, 4, 64, 4};
    w.summarize_len = 96;
    w.generate_len = 0;
    DecodeSession session(SpAttenConfig{}, w, PruningPolicy{}, 7);

    session.prefill();
    const SurvivorIndex& idx = session.context().survivors;
    ASSERT_EQ(idx.layers(), w.model.num_layers);
    EXPECT_FALSE(idx.materialized()); // Compact mode: implicit ids.
    EXPECT_EQ(idx.count(0), w.summarize_len);
    for (std::size_t l = 1; l < idx.layers(); ++l)
        EXPECT_LE(idx.count(l), idx.count(l - 1));
    // The pass's final prune (after the last layer) leaves fewer
    // survivors than the last layer entered with.
    EXPECT_LE(session.context().alive_tokens, idx.back());
    EXPECT_LT(session.context().alive_tokens, w.summarize_len);
}

TEST(SurvivorIndex, CompactRowsConstantWithoutPruning)
{
    WorkloadSpec w;
    w.name = "csr-dense";
    w.model = {"tiny", 4, 4, 64, 4};
    w.summarize_len = 64;
    DecodeSession session(SpAttenConfig{}, w, PruningPolicy::disabled(), 7);
    session.prefill();
    const SurvivorIndex& idx = session.context().survivors;
    ASSERT_EQ(idx.layers(), w.model.num_layers);
    for (std::size_t l = 0; l < idx.layers(); ++l)
        EXPECT_EQ(idx.count(l), w.summarize_len);
}

TEST(SurvivorIndex, DecodePassRowStartsAtCarriedKvPlusOne)
{
    WorkloadSpec w;
    w.name = "csr-decode";
    w.model = {"tiny", 4, 4, 64, 4};
    w.summarize_len = 64;
    w.generate_len = 4;
    DecodeSession session(SpAttenConfig{}, w, PruningPolicy{}, 7);
    session.prefill();
    const std::size_t kv = session.context().alive_tokens;
    session.decodeStep();
    EXPECT_EQ(session.context().survivors.count(0), kv + 1);
}

TEST(SurvivorIndex, HandBuiltContextFallsBackToAliveTokens)
{
    // A context that never entered a layer (unit tests of individual
    // stages) reads alive_tokens through survivorTokens().
    ExecutionContext ctx;
    ctx.alive_tokens = 42;
    EXPECT_EQ(ctx.survivorTokens(), 42u);
    ctx.beginPass(1, 42, true);
    ctx.beginLayer();
    EXPECT_EQ(ctx.survivorTokens(), 42u);
    EXPECT_EQ(ctx.survivors.layers(), 1u);
}

} // namespace
} // namespace spatten
