/**
 * @file
 * The benchmark's workloads: one seeded arrival trace, one fleet and one
 * scheduler configuration each. Every workload is an open loop — the
 * trace fixes arrivals in simulated time whether or not earlier
 * requests have finished — and the host run replays the whole trace as
 * one offline job.
 */
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "serve/continuous_batch_scheduler.hpp"

namespace perfbench {

/** Everything one benchmark run serves. */
struct Workload
{
    std::vector<spatten::TracedRequest> trace;
    spatten::AcceleratorFleet fleet;
    spatten::ContinuousBatchConfig sched;
    double trace_gen_s = 0; ///< Host seconds spent generating the trace.
};

/** The workload names makeWorkload accepts. */
const std::vector<std::string>& workloadNames();

/**
 * Build workload @p name from @p seed: the same seed gives a
 * bit-identical trace. @p num_requests overrides the workload's request
 * count when non-zero (the self-tests use short traces). Throws
 * std::invalid_argument on an unknown name.
 */
Workload makeWorkload(const std::string& name, std::uint64_t seed,
                      std::size_t num_requests = 0);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
