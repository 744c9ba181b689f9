/**
 * @file
 * Serving-simulator benchmark program: one workload per process.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * --trace 0 measures the end-to-end metrics: set-up time (median of
 * several set-ups), peak RSS through the first untraced
 * ContinuousBatchScheduler run, and the simulated serving metrics of that
 * run; further runs fill --seconds and must reproduce it. --trace 1
 * measures the per-layer metrics: untraced and traced runs alternate for
 * --seconds;
 * the traced runs wrap every fleet slot in a TracedBackend, and the
 * scheduler's self time is run() wall time minus the time inside the
 * decorator's calls. Every run passes the correctness gate, and every
 * run's simulated report must be bit-identical to the first run's.
 *
 * Human-readable lines go to stdout first; the last line is one JSON
 * object {"correct", "attempted", "failed", "metrics"}. The exit status
 * is non-zero when any check fails.
 */
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "gate.hpp"
#include "traced_backend.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using spatten::ServeReport;

constexpr std::size_t kSetupReps = 25;
/// Untraced replays per --trace 0 run, at least: the second one checks
/// that a replay reproduces the first bit for bit.
constexpr std::size_t kMinRuns = 2;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed "
                 "<n> --seconds <s> --trace <0|1>\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage("missing value");
        const std::string value = argv[++i];
        if (key == "--workload")
            o.workload = value;
        else if (key == "--seed")
            o.seed = std::stoull(value);
        else if (key == "--seconds")
            o.seconds = std::stod(value);
        else if (key == "--trace")
            o.trace = value == "1";
        else
            usage("unknown argument");
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
currentRssBytes()
{
    long pages = 0, resident = 0;
    if (FILE* f = std::fopen("/proc/self/statm", "r")) {
        if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2)
            resident = 0;
        std::fclose(f);
    }
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE));
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux.
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Metrics in print order, each with its unit. */
class Metrics
{
  public:
    void put(const std::string& name, double value, const char* unit)
    {
        order_.push_back(name);
        values_[name] = {value, unit};
    }

    std::string json() const
    {
        std::string s = "{";
        for (std::size_t i = 0; i < order_.size(); ++i) {
            const auto& [value, unit] = values_.at(order_[i]);
            char buf[96];
            std::snprintf(buf, sizeof buf, "%.17g",
                          std::isfinite(value) ? value : 0.0);
            s += (i ? ", \"" : "\"") + order_[i] + "\": {\"value\": " + buf +
                 ", \"unit\": \"" + unit + "\"}";
        }
        return s + "}";
    }

    void print() const
    {
        for (const std::string& name : order_) {
            const auto& [value, unit] = values_.at(name);
            std::printf("  %-40s %18.6g %s\n", name.c_str(), value, unit);
        }
    }

  private:
    std::vector<std::string> order_;
    std::map<std::string, std::pair<double, const char*>> values_;
};

/** One served replay of the workload's trace. */
struct Served
{
    ServeReport report;
    double wall_s = 0;
    double cpu_s = 0;
};

Served
serve(const Workload& w, const spatten::AcceleratorFleet& fleet)
{
    spatten::ContinuousBatchScheduler sched(fleet, w.sched);
    Served s;
    const double c0 = cpuNow(), t0 = wallNow();
    s.report = sched.run(w.trace);
    s.wall_s = wallNow() - t0;
    s.cpu_s = cpuNow() - c0;
    return s;
}

/** Correctness bookkeeping across every run of the process. */
struct Checks
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> errors;
    ReportDigest reference;
    bool have_reference = false;

    /** Gate @p rep and compare it to the first run's report. */
    GateResult admit(const Workload& w, const ServeReport& rep,
                     const char* label)
    {
        GateResult g = checkReport(w.trace, rep);
        ReportDigest d = digestOf(rep);
        if (!have_reference) {
            reference = std::move(d);
            have_reference = true;
        } else if (const std::string diff = firstDifference(reference, d);
                   !diff.empty()) {
            g.fail(std::string(label) +
                   " run differs from the first run: " + diff);
        }
        attempted += g.attempted;
        failed += g.failed;
        for (std::string& e : g.errors)
            errors.push_back(std::string(label) + ": " + e);
        return g;
    }

    bool ok() const { return failed == 0 && errors.empty(); }
};

std::size_t
samplesBeyondP99(std::size_t samples)
{
    return samples / 100;
}

/** The simulated end-to-end metrics: exact, they come from the report. */
void
simulatedEndToEnd(const Workload& w, const ServeReport& r,
                  const GateResult& gate, Checks& checks, Metrics& m)
{
    // Pooled inter-token gaps. Their median sits on a staircase — a
    // decode-only iteration costs a whole number of memoized lane steps —
    // so it jumps between stairs from seed to seed; the mean does not.
    std::size_t gaps = 0;
    double gap_sum_s = 0;
    for (const auto& req : r.requests) {
        if (req.token_times_s.size() < 2)
            continue;
        gaps += req.token_times_s.size() - 1;
        gap_sum_s += req.token_times_s.back() - req.token_times_s.front();
    }
    std::printf("samples: ttft %zu (%zu beyond p99), itl %zu (%zu beyond "
                "p99)\n",
                r.requests.size(), samplesBeyondP99(r.requests.size()), gaps,
                samplesBeyondP99(gaps));
    if (samplesBeyondP99(r.requests.size()) < 10 ||
        samplesBeyondP99(gaps) < 10)
        checks.errors.push_back("too few samples beyond p99");

    const double met = static_cast<double>(sloMet(r, gate, w.sched));
    m.put("ttft_p50_ms", r.ttft_p50_s * 1e3, "ms");
    m.put("ttft_p99_ms", r.ttft_p99_s * 1e3, "ms");
    m.put("itl_mean_us", ratio(gap_sum_s * 1e6, static_cast<double>(gaps)),
          "us");
    m.put("itl_p99_us", r.itl_p99_s * 1e6, "us");
    m.put("slo_attainment", ratio(met, static_cast<double>(gate.attempted)),
          "ratio");
    m.put("goodput_rps", ratio(met, r.makespan_s), "req/s");
    m.put("energy_uj_per_token",
          ratio(r.total_energy_j * 1e6, static_cast<double>(r.total_tokens)),
          "uJ/tok");
    m.put("dram_reduction", r.dram_reduction, "x");
}

/** Per-layer simulated counts, exact: they come from the report. */
void
simulatedLayers(const Workload& w, const ServeReport& r, Metrics& m)
{
    double prompt_tokens = 0;
    for (const auto& t : w.trace)
        prompt_tokens += static_cast<double>(t.workload.summarize_len);
    const double n = static_cast<double>(r.requests.size());
    double util = 0;
    for (double u : r.accel_util)
        util += u;
    m.put("serve.queue_delay_p50_ms", r.queue_delay_p50_s * 1e3, "ms");
    m.put("serve.queue_delay_p99_ms", r.queue_delay_p99_s * 1e3, "ms");
    m.put("serve.accel_util_mean",
          ratio(util, static_cast<double>(r.accel_util.size())), "ratio");
    m.put("serve.kv_pool.prefix_hit_ratio",
          ratio(static_cast<double>(r.prefix_cache_hits),
                n + static_cast<double>(r.preemptions)),
          "ratio");
    m.put("serve.kv_pool.cached_token_share",
          ratio(static_cast<double>(r.prefix_cached_tokens), prompt_tokens),
          "ratio");
    m.put("serve.kv_pool.preemptions", static_cast<double>(r.preemptions),
          "count");
    m.put("serve.kv_pool.recompute_token_share",
          ratio(static_cast<double>(r.recompute_tokens),
                static_cast<double>(r.total_tokens)),
          "ratio");
    m.put("serve.kv_pool.peak_concurrency",
          static_cast<double>(r.peak_concurrency), "count");
    m.put("serve.kv_pool.demoted_blocks",
          static_cast<double>(r.kv_demoted_blocks), "count");
    m.put("serve.kv_pool.promoted_blocks",
          static_cast<double>(r.kv_promoted_blocks), "count");
    m.put("serve.kv_pool.evicted_blocks",
          static_cast<double>(r.kv_evicted_blocks), "count");
    m.put("serve.kv_pool.cow_copied_blocks",
          static_cast<double>(r.cow_copied_blocks), "count");
    m.put("serve.kv_pool.migrated_mib",
          static_cast<double>(r.kv_migrated_bytes) / (1024.0 * 1024.0),
          "MiB");
    m.put("serve.kv_pool.promotion_stall_ms", r.promotion_stall_s * 1e3,
          "ms");

    static const char* const kStages[] = {"fetcher", "qk",
                                          "softmax", "topk",
                                          "zero_eliminator", "pv"};
    std::map<std::string, double> sums;
    for (const auto& req : r.requests)
        for (const auto& [name, value] : req.sim.stats.all())
            sums[name] += value;
    for (const char* stage : kStages)
        m.put(std::string("sim.stage.") + stage + ".busy_cycles",
              sums[std::string("stage.") + stage + ".busy_cycles"],
              "cycles");
    m.put("activity.topk_comparisons", sums["activity.topk_comparisons"],
          "count");
    m.put("hbm.bytes_read", sums["hbm.bytes_read"], "bytes");
    m.put("hbm.row_activations", sums["hbm.row_activations"], "count");
    m.put("energy.migration_share",
          ratio(r.migration_energy_j, r.total_energy_j), "ratio");
}

/** Per-layer host times of the traced runs, averaged per run. */
void
hostLayers(const LedgerTotals& all, const LedgerTotals& a3, double runs,
           double traced_wall_s, double tokens, Metrics& m)
{
    const auto at = [](const LedgerTotals& t, Call c) {
        return t[static_cast<std::size_t>(c)];
    };
    const auto sec = [&](const CallTotals& c) {
        return static_cast<double>(c.ns) * 1e-9 / runs;
    };
    const auto per = [](const CallTotals& c, double scale, double units) {
        return ratio(static_cast<double>(c.ns) * scale, units);
    };
    const double self_s =
        traced_wall_s / runs - static_cast<double>(totalNs(all)) * 1e-9 / runs;
    m.put("trace.run_wall_s", traced_wall_s / runs, "s");
    m.put("serve.scheduler.self_s", self_s, "s");
    m.put("serve.scheduler.self_us_per_token", ratio(self_s * 1e6, tokens),
          "us");

    const CallTotals prefill = at(all, Call::Prefill);
    m.put("accel.prefill.calls", static_cast<double>(prefill.calls) / runs,
          "count");
    m.put("accel.prefill.host_s", sec(prefill), "s");
    m.put("accel.prefill.ns_per_token",
          per(prefill, 1.0, static_cast<double>(prefill.units)), "ns");
    const CallTotals chunk = at(all, Call::Chunk);
    m.put("accel.chunk.calls", static_cast<double>(chunk.calls) / runs,
          "count");
    m.put("accel.chunk.host_s", sec(chunk), "s");
    m.put("accel.chunk.ns_per_token",
          per(chunk, 1.0, static_cast<double>(chunk.units)), "ns");
    const CallTotals decode = at(all, Call::Decode);
    m.put("accel.decode.steps", static_cast<double>(decode.units) / runs,
          "count");
    m.put("accel.decode.host_s", sec(decode), "s");
    m.put("accel.decode.ns_per_step",
          per(decode, 1.0, static_cast<double>(decode.units)), "ns");
    const CallTotals batch = at(all, Call::DecodeBatch);
    m.put("accel.decode_batch.calls", static_cast<double>(batch.calls) / runs,
          "count");
    m.put("accel.decode_batch.lanes_per_call",
          ratio(static_cast<double>(batch.units),
                static_cast<double>(batch.calls)),
          "lanes");
    m.put("accel.decode_batch.ns_per_lane",
          per(batch, 1.0, static_cast<double>(batch.units)), "ns");
    m.put("accel.decode_batch.host_s", sec(batch), "s");
    const CallTotals make = at(all, Call::Make);
    const CallTotals fin = at(all, Call::Finalize);
    const CallTotals destroy = at(all, Call::Destroy);
    m.put("accel.make.us_per_call",
          per(make, 1e-3, static_cast<double>(make.calls)), "us");
    m.put("accel.finalize.us_per_call",
          per(fin, 1e-3, static_cast<double>(fin.calls)), "us");
    m.put("accel.destroy.us_per_call",
          per(destroy, 1e-3, static_cast<double>(destroy.calls)), "us");
    m.put("accel.lifecycle.host_s", sec(make) + sec(fin) + sec(destroy), "s");

    const CallTotals a3_decode = at(a3, Call::Decode);
    const CallTotals a3_batch = at(a3, Call::DecodeBatch);
    m.put("baselines.a3.decode_ns_per_step",
          ratio(static_cast<double>(a3_decode.ns + a3_batch.ns),
                static_cast<double>(a3_decode.units + a3_batch.units)),
          "ns");
    const CallTotals a3_prefill = at(a3, Call::Prefill);
    const CallTotals a3_chunk = at(a3, Call::Chunk);
    m.put("baselines.a3.prefill_ns_per_token",
          ratio(static_cast<double>(a3_prefill.ns + a3_chunk.ns),
                static_cast<double>(a3_prefill.units + a3_chunk.units)),
          "ns");
}

int
runBenchmark(const Options& opt)
{
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
#ifdef NDEBUG
    const char* ndebug = "NDEBUG";
#else
    const char* ndebug = "asserts-on";
#endif
    std::printf("build=%s %s nproc=%ld\n", PERFBENCH_BUILD_TYPE, ndebug,
                sysconf(_SC_NPROCESSORS_ONLN));

    // Set-up: trace generation plus fleet and scheduler construction,
    // repeated; the median is the reported set-up time. Only the first
    // set-up precedes the replays, so the set-up churn of large traces
    // never reaches the replays' peak RSS.
    std::vector<double> setup_s, trace_gen_s;
    Workload w;
    const auto setUp = [&] {
        w = Workload{};
        const double t0 = wallNow();
        w = makeWorkload(opt.workload, opt.seed);
        const spatten::ContinuousBatchScheduler probe(w.fleet, w.sched);
        setup_s.push_back(wallNow() - t0);
        trace_gen_s.push_back(w.trace_gen_s);
    };
    setUp();
    std::printf("requests=%zu slots=%zu num_threads=%zu max_active=%zu\n",
                w.trace.size(), w.fleet.size(), w.sched.num_threads,
                w.sched.max_active);

    Checks checks;
    Metrics m;
    const double deadline = wallNow() + opt.seconds;
    if (!opt.trace) {
        // Only the first run's report is kept long enough to read its
        // simulated metrics; later runs are checked against its digest.
        // Peak RSS is read at the same point: one set-up plus one replay
        // is what a user pays, and later replays would add the allocator's
        // fragmentation, which varies with how many replays fit.
        std::size_t runs = 0;
        double peak_rss_mib = 0;
        const double start = wallNow();
        do {
            Served s = serve(w, w.fleet);
            const GateResult g = checks.admit(w, s.report, "untraced");
            ++runs;
            std::printf("run %zu: %.3f s wall, %.3f s cpu, %.0f tok/s\n", runs,
                        s.wall_s, s.cpu_s,
                        ratio(static_cast<double>(s.report.total_tokens),
                              s.wall_s));
            if (runs == 1) {
                simulatedEndToEnd(w, s.report, g, checks, m);
                peak_rss_mib = peakRssMib();
            }
        } while (runs < kMinRuns ||
                 wallNow() + (wallNow() - start) / static_cast<double>(runs) <=
                     deadline);
        m.put("peak_rss_mib", peak_rss_mib, "MiB");
    } else {
        // Untraced and traced replays alternate, flipping the order every
        // pair so that slow drift of the machine cancels in the overhead.
        double untraced_wall = 0, traced_wall = 0, cpu = 0;
        std::size_t pairs = 0;
        LedgerTotals all{}, a3{};
        const auto untraced = [&] {
            const double rss0 = currentRssBytes();
            Served s = serve(w, w.fleet);
            checks.admit(w, s.report, "untraced");
            if (untraced_wall == 0) {
                m.put("host.rss_bytes_per_request",
                      ratio(currentRssBytes() - rss0,
                            static_cast<double>(w.trace.size())),
                      "bytes");
                simulatedLayers(w, s.report, m);
            }
            untraced_wall += s.wall_s;
            cpu += s.cpu_s;
            return s.wall_s;
        };
        const auto traced = [&] {
            const auto slots = traceFleet(w.fleet);
            Served s = serve(w, asFleet(slots));
            checks.admit(w, s.report, "traced");
            const LedgerTotals run_all = sumLedgers(slots);
            const LedgerTotals run_a3 = sumLedgers(slots, "a3");
            for (std::size_t i = 0; i < kNumCalls; ++i) {
                all[i] += run_all[i];
                a3[i] += run_a3[i];
            }
            traced_wall += s.wall_s;
            return s.wall_s;
        };
        const double start = wallNow();
        do {
            double u_s = 0, t_s = 0;
            if (pairs % 2 == 0) {
                u_s = untraced();
                t_s = traced();
            } else {
                t_s = traced();
                u_s = untraced();
            }
            ++pairs;
            std::printf("pair %zu: untraced %.3f s, traced %.3f s\n", pairs,
                        u_s, t_s);
        } while (wallNow() + (wallNow() - start) / static_cast<double>(pairs) <=
                 deadline);
        std::size_t tokens = 0;
        for (const auto& t : w.trace)
            tokens += t.workload.generate_len;
        hostLayers(all, a3, static_cast<double>(pairs), traced_wall,
                   static_cast<double>(tokens), m);
        m.put("host.tokens_per_s",
              ratio(static_cast<double>(tokens * pairs), untraced_wall),
              "tok/s");
        m.put("host.offcpu_share", 1.0 - ratio(cpu, untraced_wall), "ratio");
        m.put("trace.overhead_share", ratio(traced_wall, untraced_wall) - 1.0,
              "ratio");
    }

    while (setup_s.size() < kSetupReps)
        setUp();
    m.put(opt.trace ? "workload.trace_gen_s" : "setup_s",
          median(opt.trace ? trace_gen_s : setup_s), "s");

    for (const std::string& e : checks.errors)
        std::printf("FAIL %s\n", e.c_str());
    std::printf("metrics (%s):\n", opt.trace ? "per-layer" : "end-to-end");
    m.print();
    const bool correct = checks.ok();
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", checks.attempted, checks.failed,
                m.json().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        return runBenchmark(parseArgs(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
