/// Simulator host performance: how many simulated decode tokens (and
/// whole requests) one host CPU-second buys, on the decode-session
/// scenario the serving layer is made of. The optimized path (CSR
/// survivor compaction + HBM fast path + steady-state step memo) is
/// measured against the pre-optimization path run LIVE on the same
/// machine (reference HBM serving + memo off), so the recorded speedup
/// is container-invariant — never a comparison against a number
/// measured on different iron.
/// Emits the BENCH_sim.json records the CI perf floor checks.
#include <chrono>
#include <cstdio>
#include <ctime>
#include <vector>

#include "accel/decode_session.hpp"
#include "bench_util.hpp"

namespace {

using namespace spatten;
using namespace spatten::bench;

double
cpuSeconds()
{
    return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

double
wallSeconds()
{
    using clk = std::chrono::steady_clock;
    static const clk::time_point t0 = clk::now();
    return std::chrono::duration<double>(clk::now() - t0).count();
}

WorkloadSpec
servingWorkload()
{
    WorkloadSpec w;
    w.name = "decode-session";
    w.summarize_len = 384;
    w.generate_len = 256;
    return w;
}

struct Measured
{
    double cpu_s = 0;
    double wall_s = 0;
    double decode_cpu_s = 0; ///< CPU share of the decode loops alone.
    std::size_t requests = 0;
    std::size_t tokens = 0;
};

/** Serve whole requests (prefill + full decode) until the measured
 *  region has consumed ~@p target_cpu_s, at least @p min_requests. */
Measured
serveSessions(bool optimized, double target_cpu_s,
              std::size_t min_requests)
{
    const WorkloadSpec w = servingWorkload();
    Measured m;
    const double cpu0 = cpuSeconds();
    const double wall0 = wallSeconds();
    while (m.requests < min_requests ||
           cpuSeconds() - cpu0 < target_cpu_s) {
        DecodeSession session(SpAttenConfig{}, w, PruningPolicy{},
                              /*request_seed=*/m.requests + 1);
        if (!optimized) {
            session.setStepMemo(false);
            session.setReferenceServing(true);
        }
        session.prefill();
        const double d0 = cpuSeconds();
        while (!session.done()) {
            session.decodeStep();
            ++m.tokens;
        }
        m.decode_cpu_s += cpuSeconds() - d0;
        ++m.requests;
    }
    m.cpu_s = cpuSeconds() - cpu0;
    m.wall_s = wallSeconds() - wall0;
    return m;
}

} // namespace

int
main()
{
    banner("Simulator host performance",
           "simulated decode tokens per host CPU-second, optimized vs "
           "the pre-optimization path measured live");

    const WorkloadSpec w = servingWorkload();
    std::printf("workload: prompt %zu, generate %zu, cascade pruning "
                "on, %zu layers\n\n",
                w.summarize_len, w.generate_len, w.model.num_layers);

    // The baseline path is ~25x slower per step, so it gets a smaller
    // CPU budget — both regions still serve enough whole requests that
    // per-request noise averages out.
    const Measured opt = serveSessions(/*optimized=*/true, 0.5, 16);
    const Measured base = serveSessions(/*optimized=*/false, 0.5, 4);

    SimPerfRecord ro;
    ro.scenario = "decode-session";
    ro.cpu_s = opt.cpu_s;
    ro.wall_s = opt.wall_s;
    ro.sim_tokens = static_cast<double>(opt.tokens);
    // The requests counter is the number of sessions fully served in
    // the measured region — never 0 when tokens were produced.
    ro.requests = static_cast<double>(opt.requests);
    ro.ns_per_decode_step =
        opt.decode_cpu_s / static_cast<double>(opt.tokens) * 1e9;
    ro.context_len = static_cast<double>(w.summarize_len);

    SimPerfRecord rb;
    rb.scenario = "decode-session-baseline";
    rb.cpu_s = base.cpu_s;
    rb.wall_s = base.wall_s;
    rb.sim_tokens = static_cast<double>(base.tokens);
    rb.requests = static_cast<double>(base.requests);
    rb.ns_per_decode_step =
        base.decode_cpu_s / static_cast<double>(base.tokens) * 1e9;
    rb.context_len = static_cast<double>(w.summarize_len);
    finishSimRecord(rb);

    ro.baseline_tokens_per_cpu_s = rb.sim_tokens_per_cpu_s;
    finishSimRecord(ro);

    std::printf("%-24s %10s %10s %14s %12s %10s\n", "scenario",
                "requests", "tokens", "tok/cpu_s", "req/cpu_s",
                "ns/step");
    rule();
    for (const SimPerfRecord* r : {&ro, &rb})
        std::printf("%-24s %10.0f %10.0f %14.0f %12.1f %10.0f\n",
                    r->scenario.c_str(), r->requests, r->sim_tokens,
                    r->sim_tokens_per_cpu_s, r->requests_per_cpu_s,
                    r->ns_per_decode_step);
    rule();
    std::printf("speedup vs live pre-optimization baseline: %.1fx\n",
                ro.speedup_vs_baseline);

    if (ro.requests == 0 || rb.requests == 0) {
        std::printf("FAIL: a measured region served zero requests\n");
        return 1;
    }
    // The acceptance bar this bench exists to pin: >= 5x decode-session
    // sim_tokens_per_cpu_s against the pre-optimization path.
    if (ro.speedup_vs_baseline < 5.0) {
        std::printf("FAIL: optimized decode-session throughput must be "
                    ">= 5x the live baseline (got %.1fx)\n",
                    ro.speedup_vs_baseline);
        return 1;
    }

    writeSimJson({ro, rb});
    return 0;
}
