#include "accel/e2e.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "core/schedule.hpp"
#include "sim/stage_model.hpp"

namespace spatten {

double
fcParamsPerLayer(const ModelSpec& model)
{
    const double dm = static_cast<double>(model.dModel());
    const double ff = static_cast<double>(model.ffnHidden());
    // QKV projections (3 dm x dm), output projection (dm x dm),
    // FFN in (dm x ff) and FFN out (ff x dm).
    return 4.0 * dm * dm + 2.0 * dm * ff;
}

SpAttenE2e::SpAttenE2e(SpAttenConfig cfg, E2eConfig e2e)
    : accel_(cfg), e2e_(e2e)
{
    SPATTEN_ASSERT(e2e_.fc_weight_bits == 8 || e2e_.fc_weight_bits == 12,
                   "FC weights must be 8 or 12 bits (got %d)",
                   e2e_.fc_weight_bits);
}

E2eResult
SpAttenE2e::run(const WorkloadSpec& workload, const PruningPolicy& policy,
                std::uint64_t request_seed) const
{
    E2eResult res;
    res.attention = accel_.run(workload, policy, request_seed);
    const SpAttenConfig& cfg = accel_.config();

    const ModelSpec& model = workload.model;
    const double params = fcParamsPerLayer(model);
    const double weight_bytes = params * e2e_.fc_weight_bits / 8.0;
    const double mults = static_cast<double>(cfg.totalMultipliers());
    const double peak_macs_per_ns = mults * cfg.core_freq_ghz;
    const double bw_bytes_per_ns = cfg.hbm.peakBandwidthGBs();

    const PruningSchedule token_sched =
        policy.token_pruning
            ? makeTokenSchedule(model.num_layers, policy.token_avg_ratio)
            : PruningSchedule::disabled(model.num_layers);

    // Summarization stage: batch FC over the surviving tokens of each
    // layer (token pruning reduces FC rows; compute-bound).
    double sum_ns = 0.0;
    std::size_t alive = workload.summarize_len;
    for (std::size_t l = 0;
         !workload.skip_summarization && l < model.num_layers; ++l) {
        const double rows = static_cast<double>(alive);
        const double macs = rows * params;
        const double compute_ns =
            macs / (peak_macs_per_ns * e2e_.fc_compute_util);
        const double mem_ns = weight_bytes / bw_bytes_per_ns;
        sum_ns += std::max(compute_ns, mem_ns);
        res.fc_sum_flops += 2.0 * macs;
        res.fc_dram_bytes += weight_bytes;
        if (policy.token_pruning)
            alive = pruneSurvivors(alive, token_sched.ratioAt(l));
    }

    // Generation stage: matrix-vector FCs, memory-bound on the weight
    // stream; every layer's weights are re-fetched per generated token.
    double gen_ns = 0.0;
    for (std::size_t t = 0; t < workload.generate_len; ++t) {
        for (std::size_t l = 0; l < model.num_layers; ++l) {
            const double macs = params;
            const double compute_ns =
                macs / (peak_macs_per_ns * e2e_.fc_compute_util);
            const double mem_ns = weight_bytes / bw_bytes_per_ns;
            gen_ns += std::max(compute_ns, mem_ns);
            res.fc_gen_flops += 2.0 * macs;
            res.fc_dram_bytes += weight_bytes;
        }
    }

    res.fc_sum_seconds = sum_ns * 1e-9;
    res.fc_gen_seconds = gen_ns * 1e-9;
    res.fc_seconds = res.fc_sum_seconds + res.fc_gen_seconds;
    res.fc_flops = res.fc_sum_flops + res.fc_gen_flops;
    return res;
}

} // namespace spatten
