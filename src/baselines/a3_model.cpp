#include "baselines/a3_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "common/math_util.hpp"
#include "energy/energy_model.hpp"

namespace spatten {

A3Result
A3Model::run(const WorkloadSpec& workload) const
{
    SPATTEN_ASSERT(!workload.isGenerative(),
                   "A3 only accelerates discriminative (BERT) workloads");
    const ModelSpec& m = workload.model;
    const double d = static_cast<double>(m.d_head);
    const double h = static_cast<double>(m.num_heads);
    const double n = static_cast<double>(workload.summarize_len);
    const double layers = static_cast<double>(m.num_layers);
    const double macs_per_ns =
        static_cast<double>(cfg_.num_multipliers) * cfg_.freq_ghz;

    A3Result res;

    // Dense per-layer work (QxK + probxV over all heads).
    const double dense_macs_layer = 2.0 * n * n * d * h;
    res.dense_flops = 2.0 * dense_macs_layer * layers;

    // Approximation reduces executed scoring work.
    const double exec_macs_layer = dense_macs_layer / cfg_.approx_speedup;

    // Preprocessing: sort each of the d dimensions of the n keys, every
    // layer (keys change per layer). A hardware sorting network costs
    // ~n log^2 n comparisons per dimension (cf. the Batcher baseline in
    // accel/topk_engine).
    const double logn = std::max(1.0, std::log2(n));
    const double sort_cmps_layer = h * d * n * logn * logn;
    const double preprocess_ns_layer =
        sort_cmps_layer / static_cast<double>(cfg_.sort_parallelism);

    // All QKV fetched before pruning decisions — full DRAM traffic
    // (12-bit operands, same as SpAtten's on-chip width, for fairness).
    const double bytes_layer = 3.0 * n * d * h * 1.5;
    res.dram_bytes = bytes_layer * layers;

    const double compute_ns_layer = exec_macs_layer / macs_per_ns;
    const double mem_ns_layer = bytes_layer / cfg_.mem_bw_gbs;
    const double layer_ns =
        std::max(compute_ns_layer, mem_ns_layer) + preprocess_ns_layer;

    res.preprocess_seconds = preprocess_ns_layer * layers * 1e-9;
    res.seconds = layer_ns * layers * 1e-9;
    // Energy: executed ops at A3's per-op energy plus DRAM.
    res.energy_j = 2.0 * exec_macs_layer * layers *
                       cfg_.energy_per_flop_pj * 1e-12 +
                   dramEnergyJ(res.dram_bytes);
    return res;
}

} // namespace spatten
