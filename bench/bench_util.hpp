/**
 * @file
 * Shared helpers for the benchmark harness binaries: geometric means,
 * table printing, the standard banner that cites which paper
 * table/figure a binary regenerates, and machine-readable BENCH_*.json
 * emission so successive PRs accumulate a perf trajectory.
 */
#ifndef SPATTEN_BENCH_BENCH_UTIL_HPP
#define SPATTEN_BENCH_BENCH_UTIL_HPP

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "accel/pipeline.hpp"
#include "serve/continuous_batch_scheduler.hpp"

namespace spatten {
namespace bench {

/** Geometric mean of positive values. */
inline double
geomean(const std::vector<double>& xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0.0;
    for (double x : xs)
        s += std::log(x);
    return std::exp(s / static_cast<double>(xs.size()));
}

/** Arithmetic mean. */
inline double
mean(const std::vector<double>& xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0.0;
    for (double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

/** Print the standard experiment banner. */
inline void
banner(const char* experiment, const char* description)
{
    std::printf("==============================================================\n");
    std::printf("SpAtten reproduction — %s\n", experiment);
    std::printf("%s\n", description);
    std::printf("==============================================================\n");
}

/** Print a horizontal rule. */
inline void
rule()
{
    std::printf("--------------------------------------------------------------\n");
}

/** One perf data point of a bench run. */
struct BenchRecord
{
    std::string workload;
    double cycles = 0;
    double seconds = 0;
    double tflops = 0;         ///< Effective attention TFLOPS.
    double dram_reduction = 1; ///< Dense fp32 bytes / fetched bytes.

    /// Serving-only tail metrics (recordFromServe): emitted as extra
    /// JSON fields so BENCH_serving.json carries the latency story —
    /// chunk-size sweeps read as an ITL-p99 curve, and queue-delay
    /// percentiles make admission latency visible, not just TTFT.
    /// Single-workload records (recordFromRun) keep
    /// the legacy five-field schema.
    bool has_serving = false;
    double ttft_p99_s = 0;
    double itl_p99_s = 0;
    double queue_delay_p50_s = 0;
    double queue_delay_p99_s = 0;
    /// Prefix-cache / tiered-KV accounting (serving records only):
    /// hit-rate numerators plus the cache-churn counters, so the
    /// tiered-vs-flat sweep reads as a hit-rate vs migration-traffic
    /// curve straight out of BENCH_serving.json.
    double prefix_cache_hits = 0;
    double prefix_cached_tokens = 0;
    double kv_evicted_blocks = 0;
    double kv_demoted_blocks = 0;
    double kv_promoted_blocks = 0;
    double kv_migrated_bytes = 0;
};

/** The BENCH_*.json record of a single-workload simulation result. */
inline BenchRecord
recordFromRun(const std::string& workload, const RunResult& r)
{
    return {workload, static_cast<double>(r.cycles), r.seconds,
            r.effectiveTflops(), r.dramReduction()};
}

/** The BENCH_*.json record of one ContinuousBatchScheduler run:
 *  makespan-based effective TFLOPS over the whole served trace. */
inline BenchRecord
recordFromServe(const std::string& workload, const ServeReport& r)
{
    BenchRecord rec{workload, r.total_cycles, r.makespan_s,
                    r.makespan_s > 0
                        ? r.total_flops / r.makespan_s * 1e-12
                        : 0.0,
                    r.dram_reduction};
    rec.has_serving = true;
    rec.ttft_p99_s = r.ttft_p99_s;
    rec.itl_p99_s = r.itl_p99_s;
    rec.queue_delay_p50_s = r.queue_delay_p50_s;
    rec.queue_delay_p99_s = r.queue_delay_p99_s;
    rec.prefix_cache_hits = static_cast<double>(r.prefix_cache_hits);
    rec.prefix_cached_tokens =
        static_cast<double>(r.prefix_cached_tokens);
    rec.kv_evicted_blocks = static_cast<double>(r.kv_evicted_blocks);
    rec.kv_demoted_blocks = static_cast<double>(r.kv_demoted_blocks);
    rec.kv_promoted_blocks = static_cast<double>(r.kv_promoted_blocks);
    rec.kv_migrated_bytes = static_cast<double>(r.kv_migrated_bytes);
    return rec;
}

/** Escape backslashes and double quotes for a JSON string literal. */
inline std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

/**
 * Emit `BENCH_<name>.json` in the working directory: one record per
 * workload plus the record count, so CI and later PRs can diff perf
 * without scraping stdout tables.
 */
inline void
writeBenchJson(const std::string& name,
               const std::vector<BenchRecord>& records)
{
    const std::string path = "BENCH_" + name + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "warn: cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"records\": [\n",
                 name.c_str());
    for (std::size_t i = 0; i < records.size(); ++i) {
        const BenchRecord& r = records[i];
        std::fprintf(f,
                     "    {\"workload\": \"%s\", \"cycles\": %.0f, "
                     "\"seconds\": %.9g, \"tflops\": %.6g, "
                     "\"dram_reduction\": %.6g",
                     jsonEscape(r.workload).c_str(), r.cycles, r.seconds,
                     r.tflops, r.dram_reduction);
        if (r.has_serving)
            std::fprintf(f,
                         ", \"ttft_p99_s\": %.9g, \"itl_p99_s\": %.9g, "
                         "\"queue_delay_p50_s\": %.9g, "
                         "\"queue_delay_p99_s\": %.9g, "
                         "\"prefix_cache_hits\": %.0f, "
                         "\"prefix_cached_tokens\": %.0f, "
                         "\"kv_evicted_blocks\": %.0f, "
                         "\"kv_demoted_blocks\": %.0f, "
                         "\"kv_promoted_blocks\": %.0f, "
                         "\"kv_migrated_bytes\": %.0f",
                         r.ttft_p99_s, r.itl_p99_s, r.queue_delay_p50_s,
                         r.queue_delay_p99_s, r.prefix_cache_hits,
                         r.prefix_cached_tokens, r.kv_evicted_blocks,
                         r.kv_demoted_blocks, r.kv_promoted_blocks,
                         r.kv_migrated_bytes);
        std::fprintf(f, "}%s\n", i + 1 < records.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu records)\n", path.c_str(), records.size());
}

// ---------------------------------------------------------------------
// BENCH_sim.json: host-performance records (how fast the simulator
// itself runs, as opposed to what it simulates). Written by bench_sim
// and bench_decode_step_kernel; the CI perf floor reads the headline
// decode-session record's sim_tokens_per_cpu_s.
// ---------------------------------------------------------------------

/** One host-perf data point of BENCH_sim.json. */
struct SimPerfRecord
{
    std::string scenario;
    double cpu_s = 0;      ///< Host CPU seconds of the measured region.
    double wall_s = 0;     ///< Host wallclock seconds of the same region.
    double sim_tokens = 0; ///< Simulated decode tokens produced.
    double requests = 0;   ///< Requests (sessions) fully served. Always
                           ///< the count actually completed — a 0 here
                           ///< with nonzero sim_tokens is a bug, not a
                           ///< placeholder.
    double sim_tokens_per_cpu_s = 0;
    double requests_per_cpu_s = 0; ///< requests / cpu_s (0 if cpu_s 0).
    double ns_per_decode_step = 0; ///< Decode-region ns per step.
    double context_len = 0;        ///< Kernel records: entering context.
    double survivor_fraction = 0;  ///< Kernel records: steady-state
                                   ///< survivors / context.
    double baseline_tokens_per_cpu_s = 0; ///< Pre-optimization path,
                                          ///< measured live on this
                                          ///< machine (0 = not measured).
    double speedup_vs_baseline = 0;
};

/** Derive the per-cpu-second rates from the raw counters. */
inline void
finishSimRecord(SimPerfRecord& r)
{
    if (r.cpu_s > 0) {
        r.sim_tokens_per_cpu_s = r.sim_tokens / r.cpu_s;
        r.requests_per_cpu_s = r.requests / r.cpu_s;
    }
    if (r.baseline_tokens_per_cpu_s > 0 && r.sim_tokens_per_cpu_s > 0)
        r.speedup_vs_baseline =
            r.sim_tokens_per_cpu_s / r.baseline_tokens_per_cpu_s;
}

inline std::string
simRecordLine(const SimPerfRecord& r)
{
    char buf[768];
    std::snprintf(
        buf, sizeof buf,
        "    {\"scenario\": \"%s\", \"cpu_s\": %.6g, \"wall_s\": %.6g, "
        "\"sim_tokens\": %.0f, \"requests\": %.0f, "
        "\"sim_tokens_per_cpu_s\": %.6g, \"requests_per_cpu_s\": %.6g, "
        "\"ns_per_decode_step\": %.6g, \"context_len\": %.0f, "
        "\"survivor_fraction\": %.4g, "
        "\"baseline_tokens_per_cpu_s\": %.6g, "
        "\"speedup_vs_baseline\": %.4g}",
        jsonEscape(r.scenario).c_str(), r.cpu_s, r.wall_s, r.sim_tokens,
        r.requests, r.sim_tokens_per_cpu_s, r.requests_per_cpu_s,
        r.ns_per_decode_step, r.context_len, r.survivor_fraction,
        r.baseline_tokens_per_cpu_s, r.speedup_vs_baseline);
    return buf;
}

/**
 * Write (or merge into) BENCH_sim.json: existing records whose scenario
 * key is not being replaced are preserved, so bench_sim and
 * bench_decode_step_kernel can each own their rows of the same file
 * regardless of run order. The parse is line-based over our own
 * emitter's format (one record per line, four-space indent).
 */
inline void
writeSimJson(const std::vector<SimPerfRecord>& records)
{
    const char* path = "BENCH_sim.json";
    std::vector<std::string> lines;
    if (std::FILE* f = std::fopen(path, "r")) {
        char buf[1024];
        while (std::fgets(buf, sizeof buf, f)) {
            std::string line(buf);
            if (line.rfind("    {\"scenario\": \"", 0) != 0)
                continue;
            const std::size_t key_at = 18; // strlen of the prefix above.
            const std::size_t key_end = line.find('"', key_at);
            if (key_end == std::string::npos)
                continue;
            const std::string key = line.substr(key_at, key_end - key_at);
            bool replaced = false;
            for (const SimPerfRecord& r : records)
                replaced = replaced || r.scenario == key;
            if (!replaced) {
                while (!line.empty() &&
                       (line.back() == '\n' || line.back() == ','))
                    line.pop_back();
                lines.push_back(line);
            }
        }
        std::fclose(f);
    }
    for (const SimPerfRecord& r : records)
        lines.push_back(simRecordLine(r));

    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "warn: cannot write %s\n", path);
        return;
    }
    std::fprintf(f, "{\n  \"bench\": \"sim\",\n  \"records\": [\n");
    for (std::size_t i = 0; i < lines.size(); ++i)
        std::fprintf(f, "%s%s\n", lines[i].c_str(),
                     i + 1 < lines.size() ? "," : "");
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu records)\n", path, lines.size());
}

} // namespace bench
} // namespace spatten

#endif // SPATTEN_BENCH_BENCH_UTIL_HPP
