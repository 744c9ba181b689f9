/**
 * @file
 * The benchmark's correctness gate and report fingerprint.
 *
 * checkReport() validates one ServeReport against the trace it served:
 * every request finishes exactly once with all its tokens, token times
 * run forward from arrival, and the token total matches the trace.
 * digestOf() fingerprints every simulated field of a report, so two runs
 * of one workload — repeated, or with and without the timing decorator —
 * can be compared bit for bit without keeping both reports resident.
 */
#ifndef PERFBENCH_GATE_HPP
#define PERFBENCH_GATE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "serve/continuous_batch_scheduler.hpp"

namespace perfbench {

/** Outcome of checkReport. */
struct GateResult
{
    std::size_t attempted = 0; ///< Requests in the trace.
    std::size_t failed = 0;    ///< Requests with a missing or bad record.
    /// Per trace request: its record passed every check.
    std::vector<bool> request_ok;
    /// Human-readable findings (capped), run-level ones included.
    std::vector<std::string> errors;

    bool ok() const { return failed == 0 && errors.empty(); }
    /** Record a run-level finding (e.g. a digest mismatch). */
    void fail(std::string why);
};

/** Validate @p rep as the result of serving @p trace. */
GateResult checkReport(const std::vector<spatten::TracedRequest>& trace,
                       const spatten::ServeReport& rep);

/**
 * Requests that passed the gate and met the scheduler's SLO: TTFT within
 * slo_ttft_s and (below two tokens, vacuously) mean ITL within
 * slo_itl_s. A failed request counts as a miss.
 */
std::size_t sloMet(const spatten::ServeReport& rep, const GateResult& gate,
                   const spatten::ContinuousBatchConfig& sched);

/** Fingerprint of every simulated field of a report. */
struct ReportDigest
{
    std::uint64_t aggregate = 0;          ///< Every run-level field.
    std::vector<std::uint64_t> requests;  ///< One per request record.
};

ReportDigest digestOf(const spatten::ServeReport& rep);

/** Where @p a and @p b first differ; empty when they are identical. */
std::string firstDifference(const ReportDigest& a, const ReportDigest& b);

} // namespace perfbench

#endif // PERFBENCH_GATE_HPP
