#include "accel/zero_eliminator.hpp"

#include "common/logging.hpp"
#include "common/math_util.hpp"

namespace spatten {

ZeroEliminateResult
ZeroEliminator::run(const std::vector<float>& input) const
{
    ZeroEliminateResult res;
    const std::size_t n = input.size();
    if (n == 0)
        return res;

    // Prefix count of zeros strictly before each element.
    std::vector<std::size_t> zero_cnt(n, 0);
    std::size_t zeros = 0;
    for (std::size_t i = 0; i < n; ++i) {
        zero_cnt[i] = zeros;
        if (input[i] == 0.0f)
            ++zeros;
    }

    // log(n)-stage shifter. Stage s shifts an element left by 2^s when
    // bit s of its zero_cnt is set. Working copy holds (value, count).
    std::vector<float> vals = input;
    std::vector<std::size_t> cnts = zero_cnt;
    res.stages = static_cast<std::size_t>(ceilLog2(n));
    for (std::size_t s = 0; s < res.stages; ++s) {
        const std::size_t dist = std::size_t{1} << s;
        std::vector<float> nvals(n, 0.0f);
        std::vector<std::size_t> ncnts(n, 0);
        for (std::size_t i = 0; i < n; ++i) {
            if (vals[i] == 0.0f)
                continue;
            std::size_t target = i;
            if (cnts[i] & dist) {
                SPATTEN_ASSERT(i >= dist, "shift underflow");
                target = i - dist;
                ++res.shifts;
            }
            SPATTEN_ASSERT(nvals[target] == 0.0f,
                           "zero-eliminator collision at %zu", target);
            nvals[target] = vals[i];
            ncnts[target] = cnts[i];
        }
        vals.swap(nvals);
        cnts.swap(ncnts);
    }

    res.compacted.reserve(n - zeros);
    for (std::size_t i = 0; i + zeros < n; ++i)
        res.compacted.push_back(vals[i]);

    // Cross-check against the direct compaction (hardware == spec).
    std::size_t j = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (input[i] != 0.0f) {
            SPATTEN_ASSERT(res.compacted[j] == input[i],
                           "zero eliminator broke ordering at %zu", j);
            ++j;
        }
    }
    SPATTEN_ASSERT(j == res.compacted.size(), "zero eliminator lost items");
    return res;
}

Cycles
ZeroEliminator::latencyCycles(std::size_t n)
{
    // One cycle per shifter stage plus one for the prefix sum.
    return n <= 1 ? 1 : static_cast<Cycles>(ceilLog2(n)) + 1;
}

Cycles
ZeroEliminator::cascadeCycles(std::size_t n)
{
    // Eliminator latency paid per quick-select pass (~log n passes of
    // log n + 1 cycles, small against the streaming terms).
    return n <= 1 ? 0
                  : 4 * (static_cast<Cycles>(ceilLog2(n)) + 1);
}

StageTiming
ZeroEliminator::timing(const ExecutionContext& ctx) const
{
    StageTiming t;
    if (ctx.token_prune_ratio > 0.0)
        t.layer_cycles += cascadeCycles(ctx.survivorTokens());
    if (ctx.head_prune_ratio > 0.0)
        t.layer_cycles += cascadeCycles(ctx.alive_heads);
    return t;
}

ActivityCounts
ZeroEliminator::energy(const ExecutionContext&) const
{
    return {}; // Shift energy rides in the top-k comparator accounting.
}

StageTraffic
ZeroEliminator::traffic(const ExecutionContext&) const
{
    return {};
}

} // namespace spatten
