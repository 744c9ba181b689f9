/**
 * @file
 * Umbrella header: include everything a typical SpAtten user needs.
 *
 * @code
 *   #include "spatten/spatten.hpp"
 *   spatten::SpAttenAccelerator accel;
 *   auto result = accel.run(workload, policy);
 * @endcode
 */
#ifndef SPATTEN_SPATTEN_HPP
#define SPATTEN_SPATTEN_HPP

// Algorithms (§III).
#include "core/attention_ref.hpp"
#include "core/execution_context.hpp"
#include "core/importance.hpp"
#include "core/model_spec.hpp"
#include "core/progressive_quant.hpp"
#include "core/pruning.hpp"
#include "core/schedule.hpp"

// Quantization substrate.
#include "quant/bitplane.hpp"
#include "quant/linear_quant.hpp"

// Accelerator model (§IV) and baselines (§V).
#include "accel/e2e.hpp"
#include "accel/spatten_accelerator.hpp"
#include "accel/topk_engine.hpp"
#include "baselines/a3_model.hpp"
#include "baselines/mnnfast_model.hpp"
#include "baselines/platform_model.hpp"

// NLP substrate and workloads.
#include "nn/generation.hpp"
#include "nn/trainer.hpp"
#include "nn/transformer.hpp"
#include "workload/benchmarks.hpp"
#include "workload/synthetic_tasks.hpp"

// Stage-graph execution engine.
#include "sim/stage_graph.hpp"
#include "sim/stage_model.hpp"

// Co-design search (§V-B).
#include "hat/hat_search.hpp"

#endif // SPATTEN_SPATTEN_HPP
