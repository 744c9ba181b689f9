#include "baselines/mnnfast_model.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "energy/energy_model.hpp"

namespace spatten {

MnnFastResult
MnnFastModel::run(const WorkloadSpec& workload) const
{
    SPATTEN_ASSERT(!workload.isGenerative(),
                   "MNNFast only accelerates discriminative workloads");
    const ModelSpec& m = workload.model;
    const double d = static_cast<double>(m.d_head);
    const double h = static_cast<double>(m.num_heads);
    const double n = static_cast<double>(workload.summarize_len);
    const double layers = static_cast<double>(m.num_layers);
    const double macs_per_ns = static_cast<double>(cfg_.num_multipliers) *
                               cfg_.freq_ghz * cfg_.datapath_efficiency;

    MnnFastResult res;
    const double qk_macs_layer = n * n * d * h;
    const double pv_dense_layer = n * n * d * h;
    res.dense_flops = 2.0 * (qk_macs_layer + pv_dense_layer) * layers;

    // Only the prob x V side shrinks (local V pruning by threshold —
    // no top-k hardware needed, the comparison is free).
    const double pv_exec_layer =
        pv_dense_layer * (1.0 - cfg_.v_prune_ratio);
    const double exec_macs_layer = qk_macs_layer + pv_exec_layer;

    // Full QKV DRAM traffic (pruning decided after fetch), fp16 operands
    // (the design does not support aggressive quantization).
    const double bytes_layer = 3.0 * n * d * h * 2.0;
    res.dram_bytes = bytes_layer * layers;

    const double compute_ns_layer = exec_macs_layer / macs_per_ns;
    const double mem_ns_layer = bytes_layer / cfg_.mem_bw_gbs;
    res.seconds = std::max(compute_ns_layer, mem_ns_layer) * layers * 1e-9;
    res.energy_j = 2.0 * exec_macs_layer * layers *
                       cfg_.energy_per_flop_pj * 1e-12 +
                   dramEnergyJ(res.dram_bytes);
    return res;
}

} // namespace spatten
