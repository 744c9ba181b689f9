/**
 * @file
 * High-parallelism top-k engine (§IV-B, Fig. 9, Algorithm 3).
 *
 * Quick-select with two FIFOs: a randomly chosen pivot partitions the
 * current candidate FIFO through two comparator arrays (parallelism
 * comparators each); zero eliminators compact the survivors. Iterating
 * narrows onto the k-th largest element in O(n) expected comparisons.
 * The k-th value then filters the *original* array (preserving input
 * order), yielding the top-k indices.
 *
 * Also provides the Batcher odd-even merge-sort baseline the paper
 * compares against (1.4x lower throughput, 3.5x higher power).
 */
#ifndef SPATTEN_ACCEL_TOPK_ENGINE_HPP
#define SPATTEN_ACCEL_TOPK_ENGINE_HPP

#include <cstddef>
#include <vector>

#include "common/prng.hpp"
#include "sim/clock.hpp"
#include "sim/stage_model.hpp"

namespace spatten {

/** Result of one top-k engine invocation. */
struct TopkResult
{
    std::vector<std::size_t> indices; ///< Top-k indices, ascending order.
    float k_th_largest = 0.0f;        ///< Threshold value found.
    std::size_t num_eq_kth_kept = 0;  ///< Ties at the threshold kept.
    Cycles cycles = 0;                ///< Engine-occupied cycles.
    std::size_t comparisons = 0;      ///< Comparator operations executed.
    std::size_t quickselect_passes = 0;
};

/** Configuration of the engine. */
struct TopkEngineConfig
{
    std::size_t parallelism = 16; ///< Comparators per array (Table I: 16).
    std::size_t fifo_depth = 1024; ///< Candidate FIFO depth.
    std::uint64_t seed = 0x70cc;   ///< Pivot-selection PRNG seed.
};

/** The quick-select top-k engine. */
class TopkEngine : public StageModel
{
  public:
    explicit TopkEngine(TopkEngineConfig cfg = TopkEngineConfig{});

    /**
     * Find the @p k largest elements of @p values.
     * @pre 1 <= k <= values.size().
     */
    TopkResult run(const std::vector<float>& values, std::size_t k);

    /**
     * Expected comparator-array streaming cycles of one n-element
     * selection: quick-select passes touch ~2n elements in expectation,
     * the final filter touches n. The zero-eliminator pass latency is
     * accounted by the ZeroEliminator stage.
     */
    Cycles selectStreamCycles(std::size_t n) const;

    // StageModel: the local-V quick-select bounds the query pipeline
    // (2n expected element-ops per query); the cascade token/head top-k
    // runs once per layer, serial with the query stream.
    std::string stageName() const override { return "topk"; }
    StageTiming timing(const ExecutionContext& ctx) const override;
    ActivityCounts energy(const ExecutionContext& ctx) const override;
    StageTraffic traffic(const ExecutionContext& ctx) const override;

    const TopkEngineConfig& config() const { return cfg_; }

    /** Cumulative cycles across all run() calls (for utilization). */
    Cycles totalCycles() const { return total_cycles_; }

    void resetStats();

  private:
    TopkEngineConfig cfg_;
    Prng prng_;
    Cycles total_cycles_ = 0;
};

/**
 * Batcher odd-even merge-sort baseline (§IV-B comparison).
 * Functionally sorts descending; the cost model assumes `parallelism`
 * comparators serving each network stage.
 */
struct FullSortResult
{
    std::vector<float> sorted_desc;
    Cycles cycles = 0;
    std::size_t comparisons = 0;
    std::size_t stages = 0;
};

FullSortResult batcherSortDescending(const std::vector<float>& values,
                                     std::size_t parallelism);

} // namespace spatten

#endif // SPATTEN_ACCEL_TOPK_ENGINE_HPP
