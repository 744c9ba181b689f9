/**
 * @file
 * The SpAtten execution pipeline model (Fig. 8): its hardware
 * configuration and the per-request result every run lands in.
 *
 * A request runs on a DecodeSession (accel/decode_session.hpp): the
 * hardware stages (fetcher -> QxK -> Softmax -> top-k/zero-eliminator
 * -> ProbxV), each implementing the common StageModel interface
 * (sim/stage_model.hpp), wired into a StageGraph (sim/stage_graph.hpp).
 * The session runs one pass per prompt chunk or generation step;
 * SpAttenAccelerator::run() and runDecode() are its two entry points.
 *
 * Processing is head-by-head and query-by-query (§IV-A). The critical
 * path is fully pipelined, so per-(layer, head) compute time is
 *     queries x II,   II = max over stage occupancies per query,
 * and DRAM traffic overlaps compute under double buffering, so
 *     layer time = max(compute time, memory time).
 *
 * Cascade token/head pruning and progressive quantization are
 * per-layer state of the request's ExecutionContext, seeded by
 * makeExecutionContext (core/execution_context.hpp): each layer's entry
 * publishes its pruning ratios and the pass's eagerly fetched plane
 * width and LSB refetch fraction, and its exit shrinks the alive
 * token/head counts following the PruningSchedule. Every stage's
 * occupancy, energy, and traffic land in RunResult::stats under
 * "stage.<name>.*" automatically.
 */
#ifndef SPATTEN_ACCEL_PIPELINE_HPP
#define SPATTEN_ACCEL_PIPELINE_HPP

#include <cstddef>
#include <string>

#include "accel/crossbar.hpp"
#include "accel/fetcher.hpp"
#include "accel/qk_module.hpp"
#include "common/prng.hpp"
#include "accel/pv_module.hpp"
#include "accel/softmax_module.hpp"
#include "core/model_spec.hpp"
#include "energy/energy_model.hpp"
#include "hbm/hbm.hpp"
#include "sim/clock.hpp"
#include "sim/stats.hpp"

namespace spatten {

/** Hardware configuration of a SpAtten instance (Table I defaults). */
struct SpAttenConfig
{
    double core_freq_ghz = 1.0;
    QkModuleConfig qk;            ///< 512 multipliers.
    PvModuleConfig pv;            ///< 512 multipliers.
    SoftmaxModuleConfig softmax;  ///< Parallelism 8.
    std::size_t topk_parallelism = 16;
    std::size_t key_sram_kb = 196;
    std::size_t value_sram_kb = 196;
    std::size_t max_context = 1024; ///< SRAM-backed context limit.
    HbmConfig hbm;                ///< 16 channels, 512 GB/s.
    EnergyConfig energy;

    /** Total multipliers (used for roofline and area). */
    std::size_t totalMultipliers() const
    {
        return qk.num_multipliers + pv.num_multipliers;
    }

    /** The SpAtten-1/8 configuration used against A3/MNNFast (128 mults,
     *  64 GB/s). */
    static SpAttenConfig eighth();
};

/** Result of simulating one workload. */
struct RunResult
{
    std::string workload;
    Cycles cycles = 0;       ///< Core cycles.
    double seconds = 0;
    double summarize_seconds = 0; ///< Summarization-stage share.
    double generate_seconds = 0;  ///< Generation-stage share.
    double attention_flops = 0;  ///< FLOPs actually executed.
    double attention_flops_dense = 0; ///< FLOPs without any pruning.
    double dram_bytes = 0;
    double dram_bytes_dense = 0; ///< Bytes an unpruned fp16*-free 12-bit
                                 ///< run would fetch (for reduction factors).
    EnergyReport energy;
    StatSet stats;

    double effectiveTflops() const
    {
        return seconds > 0 ? attention_flops / seconds * 1e-12 : 0;
    }
    double dramReduction() const
    {
        return dram_bytes > 0 ? dram_bytes_dense / dram_bytes : 1.0;
    }
    double computeReduction() const
    {
        return attention_flops > 0
                   ? attention_flops_dense / attention_flops
                   : 1.0;
    }
};

} // namespace spatten

#endif // SPATTEN_ACCEL_PIPELINE_HPP
