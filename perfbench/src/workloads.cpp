#include "workloads.hpp"

#include <chrono>
#include <memory>
#include <stdexcept>

#include "accel/spatten_accelerator.hpp"
#include "baselines/baseline_backends.hpp"

namespace perfbench {

namespace {

using namespace spatten;

/** Time one trace generator call into @p w.trace_gen_s. */
template <class Gen>
void
timedTrace(Workload& w, Gen&& gen)
{
    const auto t0 = std::chrono::steady_clock::now();
    w.trace = gen();
    w.trace_gen_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
}

AcceleratorFleet
spattenFleet(std::size_t slots, const SpAttenConfig& cfg = SpAttenConfig{})
{
    return AcceleratorFleet(slots,
                            std::make_shared<const SpAttenAccelerator>(cfg));
}

/// Many short requests on 4 slots under a day/night rate swing.
Workload
diurnalDay(std::uint64_t seed, std::size_t n)
{
    Workload w;
    DiurnalTraceConfig dtc;
    dtc.base.num_requests = n ? n : 40000;
    dtc.base.mean_interarrival_s = 125e-6;
    dtc.base.seed = seed;
    dtc.base.min_prompt = 64;
    dtc.base.max_prompt = 256;
    dtc.base.min_output = 4;
    dtc.base.max_output = 16;
    dtc.day_s = 0.01;
    dtc.amplitude = 0.8;
    timedTrace(w, [&] { return generateDiurnalTrace(dtc); });
    w.fleet = spattenFleet(4);
    w.sched.max_active = 16;
    w.sched.queue = QueuePolicy::Fifo;
    w.sched.slo_ttft_s = 25e-3;
    w.sched.slo_itl_s = 2e-3;
    return w;
}

/// Long dense prompts on 2 slots: every decode step misses the memo.
Workload
denseLong(std::uint64_t seed, std::size_t n)
{
    Workload w;
    ArrivalTraceConfig tc;
    tc.num_requests = n ? n : 6000;
    tc.mean_interarrival_s = 10e-3;
    tc.seed = seed;
    tc.policy = PruningPolicy::disabled();
    tc.min_prompt = 512;
    tc.max_prompt = 768;
    tc.min_output = 4;
    tc.max_output = 12;
    timedTrace(w, [&] { return generatePoissonTrace(tc); });
    w.fleet = spattenFleet(2);
    w.sched.max_active = 8;
    w.sched.slo_ttft_s = 50e-3;
    w.sched.slo_itl_s = 4e-3;
    return w;
}

/// Shared system prompts and multi-turn follow-ups through every KV
/// mechanism: prefix cache, COW, DRAM cold tier, chunked prefill.
Workload
prefixTiered(std::uint64_t seed, std::size_t n)
{
    Workload w;
    SharedPrefixTraceConfig sp;
    sp.base.num_requests = n ? n : 25000;
    sp.base.mean_interarrival_s = 1.5e-3;
    sp.base.seed = seed;
    sp.base.min_output = 16;
    sp.base.max_output = 32;
    sp.num_system_prompts = 8;
    sp.system_prompt_tokens = 192;
    sp.followup_prob = 0.5;
    timedTrace(w, [&] { return generateSharedPrefixTrace(sp); });
    w.fleet = spattenFleet(1);
    w.sched.max_active = 16;
    w.sched.slo_ttft_s = 25e-3;
    w.sched.slo_itl_s = 2e-3;
    w.sched.kv_block_tokens = 16;
    w.sched.enable_prefix_caching = true;
    w.sched.far_memory.capacity_gb = 64.0 / 1024.0;
    w.sched.prefill_chunk_tokens = 128;
    w.sched.iteration_token_budget = 256;
    w.sched.kv_capacity_bytes = kvBudgetForWorstRequest(w.trace, 1.25,
                                                        w.sched);
    return w;
}

/// SpAtten-1/8 and A3 slots behind capability-aware routing under
/// bursty heavy-tailed demand and a tight per-slot KV budget.
Workload
fleetMixed(std::uint64_t seed, std::size_t n)
{
    Workload w;
    ArrivalTraceConfig tc;
    tc.num_requests = n ? n : 60000;
    tc.seed = seed;
    tc.process = ArrivalProcess::OnOffBurst;
    tc.mean_interarrival_s = 0.4e-3;
    tc.burst_on_mean_s = 2e-3;
    tc.burst_off_mean_s = 10e-3;
    tc.prompt_dist = PromptLengthDist::BoundedPareto;
    tc.pareto_alpha = 1.2;
    tc.min_output = 16;
    tc.max_output = 32;
    timedTrace(w, [&] { return generateArrivalTrace(tc); });
    const auto spatten8 =
        std::make_shared<const SpAttenAccelerator>(SpAttenConfig::eighth());
    const auto a3 = std::make_shared<const A3Backend>();
    w.fleet = {spatten8, spatten8, a3, a3};
    w.sched.max_active = 8;
    w.sched.shard = ShardPolicy::CapabilityAware;
    w.sched.slo_ttft_s = 25e-3;
    w.sched.slo_itl_s = 4e-3;
    w.sched.kv_block_tokens = 4;
    w.sched.kv_capacity_bytes = kvBudgetForWorstRequest(w.trace, 1.25,
                                                        w.sched);
    return w;
}

} // namespace

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names{
        "diurnal-day", "dense-long", "prefix-tiered", "fleet-mixed"};
    return names;
}

Workload
makeWorkload(const std::string& name, std::uint64_t seed,
             std::size_t num_requests)
{
    Workload w;
    if (name == "diurnal-day")
        w = diurnalDay(seed, num_requests);
    else if (name == "dense-long")
        w = denseLong(seed, num_requests);
    else if (name == "prefix-tiered")
        w = prefixTiered(seed, num_requests);
    else if (name == "fleet-mixed")
        w = fleetMixed(seed, num_requests);
    else
        throw std::invalid_argument("unknown workload '" + name + "'");
    // One host thread: the coordinator then makes every timed backend
    // call itself, so per-layer host times partition run()'s wall time.
    w.sched.num_threads = 1;
    return w;
}

} // namespace perfbench
