#include "accel/topk_engine.hpp"

#include <algorithm>
#include <limits>

#include "accel/zero_eliminator.hpp"
#include "common/logging.hpp"
#include "common/math_util.hpp"

namespace spatten {

TopkEngine::TopkEngine(TopkEngineConfig cfg) : cfg_(cfg), prng_(cfg.seed)
{
    SPATTEN_ASSERT(cfg_.parallelism >= 1, "parallelism must be >= 1");
}

TopkResult
TopkEngine::run(const std::vector<float>& values, std::size_t k)
{
    const std::size_t n = values.size();
    SPATTEN_ASSERT(k >= 1 && k <= n, "top-k k=%zu out of [1, %zu]", k, n);
    TopkResult res;

    // ---- Quick-select (Algorithm 3) ----
    std::vector<float> fifo_l = values; // FIFO_L starts with the inputs.
    std::vector<float> fifo_r;
    std::size_t target = k;
    std::size_t num_eq_pivot = 0;
    float pivot = 0.0f;
    bool pivot_valid = false;

    while (true) {
        // STATE_START: decide which side still contains the k-th largest.
        res.cycles += 1;
        if (fifo_r.size() + num_eq_pivot <= target) {
            if (pivot_valid && fifo_r.size() + num_eq_pivot == target &&
                fifo_r.size() <= target) {
                // size(FIFO_R) <= target <= size(FIFO_R)+num_eq_pivot:
                // the pivot itself is the k-th largest.
                break;
            }
            // Pivot too large: everything in FIFO_R (and the pivot copies)
            // is part of the top-k; continue inside FIFO_L.
            target -= fifo_r.size() + num_eq_pivot;
            fifo_r.clear();
            if (fifo_l.empty()) {
                SPATTEN_ASSERT(pivot_valid, "empty quick-select state");
                break;
            }
            pivot = fifo_l[prng_.below(fifo_l.size())];
            pivot_valid = true;
            // STATE_RUN on FIFO_L.
            std::vector<float> nl, nr;
            num_eq_pivot = 0;
            for (float item : fifo_l) {
                if (item < pivot)
                    nl.push_back(item);
                else if (item > pivot)
                    nr.push_back(item);
                else
                    ++num_eq_pivot;
            }
            res.comparisons += fifo_l.size();
            res.cycles += ceilDiv(fifo_l.size(), cfg_.parallelism) +
                          ZeroEliminator::latencyCycles(fifo_l.size());
            ++res.quickselect_passes;
            fifo_l.swap(nl);
            fifo_r.swap(nr);
        } else if (fifo_r.size() > target) {
            // Pivot too small: the k-th largest lives in FIFO_R.
            fifo_l.clear();
            pivot = fifo_r[prng_.below(fifo_r.size())];
            pivot_valid = true;
            std::vector<float> nl, nr;
            num_eq_pivot = 0;
            std::vector<float> src;
            src.swap(fifo_r);
            for (float item : src) {
                if (item < pivot)
                    nl.push_back(item);
                else if (item > pivot)
                    nr.push_back(item);
                else
                    ++num_eq_pivot;
            }
            res.comparisons += src.size();
            res.cycles += ceilDiv(src.size(), cfg_.parallelism) +
                          ZeroEliminator::latencyCycles(src.size());
            ++res.quickselect_passes;
            fifo_l.swap(nl);
            fifo_r.swap(nr);
        } else {
            // size(FIFO_R) <= target < size(FIFO_R) + num_eq_pivot.
            break;
        }
    }
    SPATTEN_ASSERT(pivot_valid, "quick-select terminated without pivot");
    res.k_th_largest = pivot;
    res.num_eq_kth_kept = target - fifo_r.size();

    // ---- Filter pass over the buffered original inputs ----
    // Items strictly greater than the threshold always survive; equal
    // items survive until the tie budget is exhausted (earliest first,
    // which is the order they stream out of the buffer FIFO).
    std::size_t eq_budget = res.num_eq_kth_kept;
    res.indices.reserve(k);
    for (std::size_t i = 0; i < n; ++i) {
        if (values[i] > res.k_th_largest) {
            res.indices.push_back(i);
        } else if (values[i] == res.k_th_largest && eq_budget > 0) {
            res.indices.push_back(i);
            --eq_budget;
        }
    }
    res.comparisons += n;
    res.cycles += ceilDiv(n, cfg_.parallelism) +
                  ZeroEliminator::latencyCycles(n);
    SPATTEN_ASSERT(res.indices.size() == k,
                   "top-k filter kept %zu of expected %zu",
                   res.indices.size(), k);

    total_cycles_ += res.cycles;
    return res;
}

void
TopkEngine::resetStats()
{
    total_cycles_ = 0;
}

Cycles
TopkEngine::selectStreamCycles(std::size_t n) const
{
    if (n <= 1)
        return 1;
    return ceilDiv<std::size_t>(2 * n, cfg_.parallelism) +
           ceilDiv<std::size_t>(n, cfg_.parallelism);
}

StageTiming
TopkEngine::timing(const ExecutionContext& ctx) const
{
    StageTiming t;
    // The quick-select stage of the local-V top-k is the occupancy
    // bottleneck of that engine (2n expected element-ops per query).
    if (ctx.local_value_pruning)
        t.ii_cycles = ceilDiv<std::size_t>(2 * ctx.survivorTokens(),
                                           cfg_.parallelism);
    if (ctx.token_prune_ratio > 0.0)
        t.layer_cycles += selectStreamCycles(ctx.survivorTokens());
    if (ctx.head_prune_ratio > 0.0)
        t.layer_cycles += selectStreamCycles(ctx.alive_heads);
    return t;
}

ActivityCounts
TopkEngine::energy(const ExecutionContext& ctx) const
{
    ActivityCounts a;
    // ~3n comparator ops per selection (2n quick-select + n filter).
    if (ctx.local_value_pruning)
        a.topk_comparisons +=
            ctx.queryRows() * 3.0 * static_cast<double>(ctx.survivorTokens());
    if (ctx.token_prune_ratio > 0.0)
        a.topk_comparisons += 3.0 * static_cast<double>(ctx.survivorTokens());
    return a;
}

StageTraffic
TopkEngine::traffic(const ExecutionContext&) const
{
    return {}; // Candidates live in the engine FIFOs.
}

FullSortResult
batcherSortDescending(const std::vector<float>& values,
                      std::size_t parallelism)
{
    SPATTEN_ASSERT(parallelism >= 1, "parallelism must be >= 1");
    FullSortResult res;
    const std::size_t n = values.size();
    if (n == 0)
        return res;
    // Pad to a power of two with -inf so padding sinks to the tail.
    const std::size_t np = std::size_t{1} << ceilLog2(n);
    std::vector<float> a = values;
    a.resize(np, -std::numeric_limits<float>::infinity());

    // Batcher merge-exchange sort network (Knuth TAOCP v3, Alg. 5.2.2M).
    const std::size_t t = static_cast<std::size_t>(ceilLog2(np));
    for (std::size_t p = np >> 1; p >= 1; p >>= 1) {
        std::size_t q = np >> 1;
        std::size_t r = 0;
        std::size_t d = p;
        while (true) {
            std::size_t stage_cmps = 0;
            for (std::size_t i = 0; i + d < np; ++i) {
                if ((i & p) == r) {
                    ++stage_cmps;
                    if (a[i] < a[i + d])
                        std::swap(a[i], a[i + d]);
                }
            }
            ++res.stages;
            res.comparisons += stage_cmps;
            res.cycles += std::max<Cycles>(
                1, ceilDiv(stage_cmps, parallelism));
            if (q == p)
                break;
            d = q - p;
            q >>= 1;
            r = p;
        }
    }
    (void)t;
    a.resize(n);
    res.sorted_desc = std::move(a);
    return res;
}

} // namespace spatten
