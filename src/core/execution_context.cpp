#include "core/execution_context.hpp"

#include "core/schedule.hpp"

namespace spatten {

ExecutionContext
makeExecutionContext(const WorkloadSpec& workload,
                     const PruningPolicy& policy)
{
    ExecutionContext ctx;
    ctx.d_head = workload.model.d_head;
    ctx.num_layers = workload.model.num_layers;
    ctx.num_heads_total = workload.model.num_heads;

    ctx.total_bits = policy.pq.setting.totalBits();
    ctx.msb_bits =
        policy.pq.enabled ? policy.pq.setting.msb_bits : ctx.total_bits;
    ctx.lsb_bits = policy.pq.enabled ? policy.pq.setting.lsb_bits : 0;
    ctx.lsb_fraction = policy.pq.enabled ? policy.lsb_fraction : 0.0;
    ctx.fetch_bits = ctx.total_bits;
    ctx.active_lsb_fraction = 0.0;

    if (policy.token_pruning)
        ctx.token_ratios =
            makeTokenSchedule(ctx.num_layers, policy.token_avg_ratio)
                .ratios();
    if (policy.head_pruning)
        ctx.head_ratios =
            makeHeadSchedule(ctx.num_layers, policy.head_avg_ratio)
                .ratios();
    ctx.local_value_pruning = policy.local_value_pruning;
    ctx.local_v_ratio =
        policy.local_value_pruning ? policy.local_v_ratio : 0.0;

    ctx.alive_tokens = workload.summarize_len;
    ctx.alive_heads = workload.model.num_heads;
    return ctx;
}

} // namespace spatten
