/**
 * @file
 * Seeding the per-request ExecutionContext from a workload + policy.
 *
 * The SpAtten policy is one fixed per-layer rule: cascade token/head
 * pruning keep ceil(alive x (1 - r_l)) after layer l's top-k (§III-A/B)
 * and progressive quantization fetches MSBs first during generation
 * (§III-D). makeExecutionContext() stores that rule's per-layer ratios
 * and plane widths in the context, which applies them one layer at a
 * time (ExecutionContext::beginLayer/endLayer).
 */
#ifndef SPATTEN_CORE_EXECUTION_CONTEXT_HPP
#define SPATTEN_CORE_EXECUTION_CONTEXT_HPP

#include "core/model_spec.hpp"
#include "sim/stage_model.hpp"

namespace spatten {

/**
 * Seed an ExecutionContext from a workload + policy pair: static shape,
 * plane widths, and the policy — per-layer cascade ratios from the
 * paper's schedules (makeTokenSchedule/makeHeadSchedule), built only
 * for the pruning the policy turns on. Hardware-config-dependent fields
 * (max_context, sram_tokens) are set by DecodeSession, and
 * pass-dependent fields (pass_queries, alive counts, generation flag)
 * by ExecutionContext::beginPass — other callers must fill max_context
 * themselves or planeBase sizes slots for the 1024 default.
 */
ExecutionContext makeExecutionContext(const WorkloadSpec& workload,
                                      const PruningPolicy& policy);

} // namespace spatten

#endif // SPATTEN_CORE_EXECUTION_CONTEXT_HPP
