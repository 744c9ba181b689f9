/**
 * @file
 * SpAtten-e2e (§V-B "End-to-End Performance with FFN Support"): the
 * multiplier arrays are reused to execute the FC layers (QKV projections,
 * output projection and the two FFN FCs), with linear-symmetrically
 * quantized weights (12-bit or 8-bit) streamed from DRAM.
 *
 * In the generation stage the FCs are matrix-vector products, so the FC
 * part is memory-bound on the weight stream; in the summarization stage
 * they are matrix-matrix and compute-bound. Token pruning shrinks FC work
 * in the summarization stage only (Table IV).
 */
#ifndef SPATTEN_ACCEL_E2E_HPP
#define SPATTEN_ACCEL_E2E_HPP

#include "accel/spatten_accelerator.hpp"

namespace spatten {

/** End-to-end (attention + FC) result. */
struct E2eResult
{
    RunResult attention;   ///< Attention-layer portion (SpAtten pipeline).
    double fc_seconds = 0; ///< FC portion (reused multiplier arrays).
    double fc_flops = 0;
    double fc_dram_bytes = 0;
    // Stage split (Table IV / Fig. 15 measure the generation stage).
    double fc_sum_seconds = 0;
    double fc_gen_seconds = 0;
    double fc_sum_flops = 0;
    double fc_gen_flops = 0;

    double totalSeconds() const { return attention.seconds + fc_seconds; }
    double totalFlops() const { return attention.attention_flops + fc_flops; }
    double attnLatencyShare() const
    {
        const double t = totalSeconds();
        return t > 0 ? attention.seconds / t : 0;
    }
    /** Generation-stage total (attention + FC), the Table IV quantity. */
    double generationSeconds() const
    {
        return attention.generate_seconds + fc_gen_seconds;
    }
    /** Attention share of the generation stage. */
    double genAttnShare() const
    {
        const double t = generationSeconds();
        return t > 0 ? attention.generate_seconds / t : 0;
    }
};

/** Configuration for the FFN extension. */
struct E2eConfig
{
    int fc_weight_bits = 8;  ///< 8-bit or 12-bit FC weights (Fig. 15).
    double fc_compute_util = 0.85; ///< Multiplier utilization on dense FC.
};

/** SpAtten-e2e: attention pipeline + FC execution. */
class SpAttenE2e
{
  public:
    SpAttenE2e(SpAttenConfig cfg = SpAttenConfig{},
               E2eConfig e2e = E2eConfig{});

    /** Run the full model: attention (SpAttenAccelerator::run) + FC
     *  layers. */
    E2eResult run(const WorkloadSpec& workload, const PruningPolicy& policy,
                  std::uint64_t request_seed = kDefaultRequestSeed) const;

  private:
    SpAttenAccelerator accel_;
    E2eConfig e2e_;
};

/** FC parameter count per transformer block (QKV + out proj + 2 FFN FCs). */
double fcParamsPerLayer(const ModelSpec& model);

} // namespace spatten

#endif // SPATTEN_ACCEL_E2E_HPP
