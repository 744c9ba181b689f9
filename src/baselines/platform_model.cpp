#include "baselines/platform_model.hpp"

#include <algorithm>
#include <cmath>

#include "accel/e2e.hpp"
#include "common/logging.hpp"

namespace spatten {

PlatformSpec
PlatformSpec::titanXp()
{
    PlatformSpec s;
    s.name = "titan-xp";
    s.peak_tflops = 12.15;
    s.mem_bw_gbs = 547.6;
    s.matmul_util = 0.008;  // batch-1 attention GEMMs (d=64 inner dim)
    s.genvec_util = 0.003;
    s.matmul_fraction = 0.27;
    s.overhead_us_per_layer = 45.0;
    s.gen_overhead_us_per_layer = 300.0;
    s.dynamic_power_w = 61.0;
    return s;
}

PlatformSpec
PlatformSpec::xeon()
{
    PlatformSpec s;
    s.name = "xeon-e5-2640v4";
    s.peak_tflops = 0.77; // 10 cores x AVX2 FMA @ 2.4 GHz
    s.mem_bw_gbs = 68.0;
    s.matmul_util = 0.05;
    s.genvec_util = 0.03;
    s.matmul_fraction = 0.35;
    s.overhead_us_per_layer = 80.0;
    s.gen_overhead_us_per_layer = 1200.0;
    s.fc_gen_bw_eff = 0.35;
    s.dynamic_power_w = 97.0;
    return s;
}

PlatformSpec
PlatformSpec::jetsonNano()
{
    PlatformSpec s;
    s.name = "jetson-nano";
    s.peak_tflops = 0.236; // fp32
    s.mem_bw_gbs = 25.6;
    s.matmul_util = 0.05;
    s.genvec_util = 0.02;
    s.matmul_fraction = 0.27;
    s.overhead_us_per_layer = 120.0;
    s.gen_overhead_us_per_layer = 3400.0;
    s.dynamic_power_w = 3.1;
    return s;
}

PlatformSpec
PlatformSpec::raspberryPi()
{
    PlatformSpec s;
    s.name = "raspberry-pi4";
    s.peak_tflops = 0.024; // 4x A72 NEON @ 1.5 GHz
    s.mem_bw_gbs = 4.0;
    s.matmul_util = 0.10;
    s.genvec_util = 0.05;
    s.matmul_fraction = 0.40;
    s.overhead_us_per_layer = 150.0;
    s.gen_overhead_us_per_layer = 60000.0;
    s.fc_gen_bw_eff = 0.35;
    s.dynamic_power_w = 3.1;
    return s;
}

PlatformResult
PlatformModel::attention(const WorkloadSpec& workload,
                         double pruned_keep) const
{
    SPATTEN_ASSERT(pruned_keep > 0.0 && pruned_keep <= 1.0,
                   "keep fraction %f out of (0,1]", pruned_keep);
    const ModelSpec& m = workload.model;
    const double d = static_cast<double>(m.d_head);
    const double h = static_cast<double>(m.num_heads);
    const double layers = static_cast<double>(m.num_layers);
    const double peak_fns = spec_.peak_tflops * 1e3; // GFLOP per ms... use ns
    PlatformResult res;
    res.platform = spec_.name;

    double ns = 0.0;

    // Summarization stage: L x L GEMMs per head. Bigger GEMMs reach
    // better utilization (length-scaled).
    if (!workload.skip_summarization) {
        const double l0 = static_cast<double>(workload.summarize_len) *
                          pruned_keep;
        const double scale = std::clamp(l0 / spec_.util_len_ref, 1.0,
                                        spec_.util_len_max_scale);
        const double util = std::min(0.9, spec_.matmul_util * scale);
        const double flops_layer = 2.0 * (l0 * l0 * d + l0 * l0 * d) * h;
        const double bytes_layer = (3.0 * l0 * d * h) * 4.0; // QKV fp32
        const double matmul_ns =
            std::max(flops_layer / (peak_fns * util),
                     bytes_layer / spec_.mem_bw_gbs);
        ns += layers * (matmul_ns / spec_.matmul_fraction +
                        spec_.overhead_us_per_layer * 1e3);
        res.flops += layers * flops_layer;
        res.dram_bytes += layers * bytes_layer;
    }

    // Generation stage: per token, vector x matrix per head; the K/V
    // concat + reshape data movement dominates (Fig. 2).
    for (std::size_t t = 0; t < workload.generate_len; ++t) {
        const PlatformGenLayer g = genLayer(
            m, static_cast<double>(workload.summarize_len + t + 1) *
                   pruned_keep);
        ns += layers * g.ns;
        res.flops += layers * g.flops;
        res.dram_bytes += layers * g.bytes;
    }

    res.seconds = ns * 1e-9;
    res.energy_j = res.seconds * spec_.dynamic_power_w;
    return res;
}

PlatformGenLayer
PlatformModel::genLayer(const ModelSpec& model, double ctx) const
{
    const double d = static_cast<double>(model.d_head);
    const double h = static_cast<double>(model.num_heads);
    const double peak_fns = spec_.peak_tflops * 1e3;
    PlatformGenLayer g;
    g.flops = 2.0 * (ctx * d + ctx * d) * h;
    g.bytes = (2.0 * ctx * d * h) * 4.0;
    const double matmul_ns =
        std::max(g.flops / (peak_fns * spec_.genvec_util),
                 g.bytes / spec_.mem_bw_gbs);
    g.ns = matmul_ns / spec_.matmul_fraction +
           spec_.gen_overhead_us_per_layer * 1e3;
    return g;
}

PlatformResult
PlatformModel::fc(const WorkloadSpec& workload) const
{
    const ModelSpec& m = workload.model;
    const double params = fcParamsPerLayer(m);
    const double layers = static_cast<double>(m.num_layers);
    const double peak_fns = spec_.peak_tflops * 1e3;
    PlatformResult res;
    res.platform = spec_.name;

    double ns = 0.0;
    // Summarization: batched GEMM — FCs run at much better utilization
    // than attention (big regular GEMMs, no reshapes).
    if (!workload.skip_summarization) {
        const double rows = static_cast<double>(workload.summarize_len);
        const double flops_layer = 2.0 * rows * params;
        const double util = std::min(1.0, spec_.matmul_util * 6.0);
        ns += layers * (flops_layer / (peak_fns * util));
        res.flops += layers * flops_layer;
        res.dram_bytes += layers * params * 4.0;
    }
    // Generation: matrix-vector, weight-stream bandwidth bound.
    for (std::size_t t = 0; t < workload.generate_len; ++t) {
        const double flops_layer = 2.0 * params;
        const double bytes_layer = params * 4.0;
        const double util = std::min(1.0, spec_.genvec_util * 6.0);
        const double op_ns =
            std::max(flops_layer / (peak_fns * util),
                     bytes_layer / (spec_.mem_bw_gbs * spec_.fc_gen_bw_eff));
        ns += layers * op_ns;
        res.flops += layers * flops_layer;
        res.dram_bytes += layers * bytes_layer;
    }

    res.seconds = ns * 1e-9;
    res.energy_j = res.seconds * spec_.dynamic_power_w;
    return res;
}

} // namespace spatten
