/// Quickstart: simulate a GPT-2 generation workload on the SpAtten
/// accelerator with the paper's pruning + progressive-quantization
/// policy, compare against a dense run and a GPU baseline, and serve a
/// few requests through the continuous-batching scheduler.
///
/// Build & run:
///   cmake -B build -G Ninja && cmake --build build
///   ./build/example_quickstart
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "accel/spatten_accelerator.hpp"
#include "baselines/platform_model.hpp"
#include "serve/continuous_batch_scheduler.hpp"

int
main()
{
    using namespace spatten;

    // 1. Describe the workload: GPT-2-Small generating 32 tokens from a
    //    992-token context (the paper's GPT-2 setting).
    WorkloadSpec workload;
    workload.name = "quickstart-gpt2";
    workload.model = ModelSpec::gpt2Small();
    workload.summarize_len = 992;
    workload.generate_len = 32;
    workload.skip_summarization = true; // measure the generation stage

    // 2. Describe the SpAtten policy: cascade token + head pruning,
    //    local value pruning, and 8+4-bit progressive quantization.
    PruningPolicy policy;
    policy.token_avg_ratio = 0.22;
    policy.head_avg_ratio = 0.08;
    policy.local_v_ratio = 0.35;
    policy.pq.enabled = true;
    policy.pq.setting = {8, 4};
    policy.pq.max_prob_threshold = 0.1;
    policy.lsb_fraction = 0.059;

    // 3. Run on the Table I accelerator configuration.
    SpAttenAccelerator accel;
    std::printf("SpAtten configuration:\n%s\n",
                accel.configTable().c_str());

    const RunResult pruned = accel.run(workload, policy);
    const RunResult dense = accel.run(workload, PruningPolicy::disabled());

    std::printf("%-28s %14s %14s\n", "", "dense", "SpAtten policy");
    std::printf("%-28s %11.3f ms %11.3f ms\n", "latency",
                dense.seconds * 1e3, pruned.seconds * 1e3);
    std::printf("%-28s %11.1f MB %11.1f MB\n", "DRAM traffic",
                dense.dram_bytes / 1e6, pruned.dram_bytes / 1e6);
    std::printf("%-28s %11.2f mJ %11.2f mJ\n", "energy",
                dense.energy.totalJ() * 1e3, pruned.energy.totalJ() * 1e3);
    std::printf("%-28s %14s %13.1fx\n", "DRAM reduction vs fp32", "-",
                pruned.dramReduction());
    std::printf("%-28s %14s %13.1fx\n", "computation reduction", "-",
                pruned.computeReduction());

    // 4. Compare against a TITAN Xp running dense fp32 attention.
    const PlatformModel gpu(PlatformSpec::titanXp());
    const PlatformResult gr = gpu.attention(workload);
    std::printf("\nTITAN Xp baseline: %.1f ms -> SpAtten speedup %.0fx, "
                "energy saving %.0fx\n", gr.seconds * 1e3,
                gr.seconds / pruned.seconds,
                gr.energy_j / pruned.energy.totalJ());

    // 5. Per-stage breakdown, landed in the stats by the stage graph.
    std::printf("\nPer-stage occupancy (stage graph stats):\n");
    for (const char* stage :
         {"fetcher", "qk", "softmax", "topk", "zero_eliminator", "pv"}) {
        const std::string key =
            std::string("stage.") + stage + ".busy_cycles";
        std::printf("  %-18s %12.0f cycles\n", stage,
                    pruned.stats.get(key));
    }

    // 6. Serve three requests arriving together through the
    //    continuous-batching scheduler on a one-slot SpAtten fleet,
    //    every decode iteration advancing all resident requests at once.
    //    Requests share their model and policy through a template: two
    //    run the SpAtten policy, the third runs dense.
    const auto templateOf = [&workload](const PruningPolicy& p) {
        return std::make_shared<const RequestTemplate>(RequestTemplate{
            workload.model, p, workload.skip_summarization});
    };
    const auto sparse = templateOf(policy);
    const auto unpruned = templateOf(PruningPolicy::disabled());
    std::vector<TracedRequest> trace(3);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        trace[i].id = i;
        trace[i].workload = {workload.summarize_len, workload.generate_len};
        trace[i].tmpl = i < 2 ? sparse : unpruned;
        trace[i].seed = i + 1;
    }
    const AcceleratorFleet fleet{std::make_shared<const SpAttenAccelerator>()};
    const ServeReport served =
        ContinuousBatchScheduler(fleet, ContinuousBatchConfig{}).run(trace);
    std::printf("\nServed %zu requests: TTFT p50 %.3f ms, ITL p99 %.3f ms, "
                "%.0f tokens/s, %.1fx DRAM reduction\n",
                served.requests.size(), served.ttft_p50_s * 1e3,
                served.itl_p99_s * 1e3, served.tokens_per_s,
                served.dram_reduction);
    return 0;
}
