/**
 * @file
 * Analytical models of the baseline platforms the paper measures
 * (TITAN Xp GPU, Xeon E5-2640 v4, Jetson Nano, Raspberry Pi 4 ARM).
 *
 * The paper runs attention with PyTorch (cuDNN/MKL) and measures wall
 * clock and dynamic power. We cannot measure that hardware here, so each
 * platform is modeled as: matmul time from a de-rated roofline
 * (peak x achievable utilization, or bandwidth-bound for matrix-vector
 * generation), inflated by the measured data-movement share of attention
 * latency (Fig. 2: matmul is only ~27% of GPU attention latency), plus a
 * per-launch overhead. Utilizations and dynamic powers are calibrated to
 * the paper's published effective rates (Fig. 18: 0.02/0.01 TFLOPS on
 * TITAN Xp for BERT/GPT-2) and energy ratios (Fig. 14). The substitution
 * is documented in DESIGN.md.
 */
#ifndef SPATTEN_BASELINES_PLATFORM_MODEL_HPP
#define SPATTEN_BASELINES_PLATFORM_MODEL_HPP

#include <string>

#include "core/model_spec.hpp"

namespace spatten {

/** Static description of a baseline platform. */
struct PlatformSpec
{
    std::string name;
    double peak_tflops = 1.0;     ///< fp32 peak.
    double mem_bw_gbs = 100.0;    ///< DRAM bandwidth.
    double matmul_util = 0.1;     ///< Achievable fraction on attention GEMMs
                                  ///< at the reference length (small batch).
    double genvec_util = 0.05;    ///< Achievable on generation mat-vec.
    double matmul_fraction = 0.27;///< Matmul share of attention latency (Fig. 2).
    double overhead_us_per_layer = 20.0; ///< Launch/dispatch per layer.
    /// Generation-stage per-layer data-movement overhead (KV concat,
    /// reshape, transpose — the 73% slice of Fig. 2).
    double gen_overhead_us_per_layer = 300.0;
    /// GEMM utilization grows with sequence length: effective util =
    /// matmul_util * clamp(L / util_len_ref, 1, util_len_max_scale).
    double util_len_ref = 64.0;
    double util_len_max_scale = 4.0;
    /// Achievable fraction of DRAM bandwidth on generation-stage FC
    /// mat-vec (many small kernels; Fig. 2's per-token FC cost).
    double fc_gen_bw_eff = 0.15;
    double dynamic_power_w = 60.0;///< Measured dynamic power proxy.

    static PlatformSpec titanXp();
    static PlatformSpec xeon();
    static PlatformSpec jetsonNano();
    static PlatformSpec raspberryPi();
};

/** Latency/energy estimate for one workload on a platform. */
struct PlatformResult
{
    std::string platform;
    double seconds = 0;
    double flops = 0;      ///< Dense attention FLOPs executed.
    double dram_bytes = 0;
    double energy_j = 0;

    double effectiveTflops() const
    {
        return seconds > 0 ? flops / seconds * 1e-12 : 0;
    }
};

/** One layer of one generation step (see PlatformModel::genLayer). */
struct PlatformGenLayer
{
    double flops = 0; ///< Dense mat-vec FLOPs.
    double bytes = 0; ///< K+V fp32 bytes fetched.
    double ns = 0;    ///< Latency, data movement and launch included.
};

/** The analytical platform model. */
class PlatformModel
{
  public:
    explicit PlatformModel(PlatformSpec spec) : spec_(std::move(spec)) {}

    /**
     * Attention-layers latency of @p workload (dense, fp32 — baselines
     * fetch everything before knowing what could be pruned).
     * @param pruned_keep optional compute keep-fraction when the
     *        CPU/GPU implementation itself applies SpAtten token pruning
     *        with topk+gather (§V-B "We implement token pruning on
     *        CPUs/GPUs"); 1.0 = dense.
     */
    PlatformResult attention(const WorkloadSpec& workload,
                             double pruned_keep = 1.0) const;

    /**
     * The per-token generation term, one layer of it: mat-vec per head
     * over @p ctx context tokens at genvec_util, inflated by the Fig. 2
     * data-movement share plus the per-layer launch overhead. The one
     * definition behind attention()'s generation stage and the serving
     * adapter's decode steps.
     */
    PlatformGenLayer genLayer(const ModelSpec& model, double ctx) const;

    /** FC-layers latency (for end-to-end comparisons, Fig. 15/Table IV). */
    PlatformResult fc(const WorkloadSpec& workload) const;

    const PlatformSpec& spec() const { return spec_; }

  private:
    PlatformSpec spec_;
};

} // namespace spatten

#endif // SPATTEN_BASELINES_PLATFORM_MODEL_HPP
