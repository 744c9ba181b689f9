/**
 * @file
 * Request lifecycle state of the continuous-batching scheduler.
 *
 * Every traced request moves through a strict FSM:
 *
 *   Queued --admit--> Prefill --first pass--> Decoding --last token-->
 *   Finished
 *
 * (a request with generate_len == 0 jumps Prefill -> Finished). Under
 * KV-capacity pressure the scheduler may preempt a Prefill/Decoding
 * request: its KV blocks are released, its emitted tokens are discarded
 * (recompute-style preemption), and it re-enters Queued to be admitted
 * again later — preemptions/recompute_tokens record the overhead, and
 * the timing trail reflects the final (completed) incarnation. The
 * ServedRequest record keeps the full timing trail — arrival, admission,
 * first token, per-token emission times, completion — plus the per-step
 * KV trajectory and the finalized per-request simulation result, so the
 * serving metrics (TTFT, ITL, goodput) and the determinism properties
 * are all derivable from it after the run.
 */
#ifndef SPATTEN_SERVE_REQUEST_STATE_HPP
#define SPATTEN_SERVE_REQUEST_STATE_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "accel/pipeline.hpp"
#include "sim/stats.hpp"

namespace spatten {

/** Lifecycle phase of one request. */
enum class RequestPhase
{
    Queued,   ///< Arrived, waiting for an accelerator slot.
    Prefill,  ///< Admitted; prompt pass not yet run.
    Decoding, ///< Prompt processed; emitting tokens.
    Finished, ///< All tokens emitted, result finalized.
};

/** Full service record of one request after a scheduler run. */
struct ServedRequest
{
    std::size_t id = 0;      ///< Trace id.
    int accel = -1;          ///< Accelerator that served it.
    RequestPhase phase = RequestPhase::Queued;
    int priority = 0;        ///< From the trace; higher is more urgent.

    double arrival_s = 0;     ///< From the trace.
    double admit_s = -1;      ///< Admission onto the accelerator (the
                              ///< final one, after any preemptions).
    double first_token_s = -1;///< First decode completion (or prefill
                              ///< completion for 0-token requests).
    double finish_s = -1;     ///< Last token emitted.
    double service_seconds = 0; ///< Busy time consumed on the accelerator,
                                ///< including preempted (wasted) work.

    std::size_t preemptions = 0; ///< Times this request was evicted.
    std::size_t recompute_tokens = 0; ///< Tokens discarded by preemption
                                      ///< and generated again.
    /// Prompt tokens whose prefill compute the shared-prefix cache
    /// skipped at the final admission (0 with caching off or on a
    /// cache miss).
    std::size_t cached_prefix_tokens = 0;
    /// Prompt passes of the final incarnation: 1 for a monolithic
    /// prefill, the chunk count under chunked prefill (a cached prefix
    /// shortens the chunk stream — it starts at the cached boundary).
    std::size_t prefill_chunks = 0;

    std::size_t tokens = 0;             ///< Tokens emitted.
    std::vector<double> token_times_s;  ///< Emission time of each token.
    /// KV survivors after prefill and after each decode step, copied
    /// from the session's trail at finish. 32-bit (4 B per step, half
    /// the session's size_t): a resident KV length is bounded by the
    /// context, and the scheduler asserts every entry fits.
    std::vector<std::uint32_t> kv_trace;
    /// Finalized simulation result. Its `workload` name is empty: the
    /// scheduler opens sessions with TracedRequest::sessionSpec(), so
    /// no record holds a copy of a name. A record's name is its trace
    /// entry's name() (records are in trace order: requests[i] serves
    /// trace[i]).
    RunResult sim;

    /** Queueing delay: admission minus arrival. */
    double queueDelaySeconds() const { return admit_s - arrival_s; }

    /** Time to first token, measured from arrival (includes queueing). */
    double ttftSeconds() const { return first_token_s - arrival_s; }

    /** Gaps between consecutive token emissions (empty below 2 tokens). */
    std::vector<double> interTokenGaps() const
    {
        std::vector<double> gaps;
        if (token_times_s.size() >= 2) {
            gaps.reserve(token_times_s.size() - 1);
            for (std::size_t i = 1; i < token_times_s.size(); ++i)
                gaps.push_back(token_times_s[i] - token_times_s[i - 1]);
        }
        return gaps;
    }

    /** This request's own ITL p99 (interpolated quantile over its
     *  gaps; 0 when fewer than two tokens) — the per-request tail the
     *  pooled ServeReport percentiles over-weight long requests on. */
    double itlP99Seconds() const
    {
        std::vector<double> scratch;
        return itlP99Seconds(scratch);
    }

    /** itlP99Seconds() with its sorted gaps built in @p scratch, whose
     *  storage a caller can reuse across requests (no per-call
     *  allocation once it has grown). */
    double itlP99Seconds(std::vector<double>& scratch) const
    {
        scratch.clear();
        for (std::size_t i = 1; i < token_times_s.size(); ++i)
            scratch.push_back(token_times_s[i] - token_times_s[i - 1]);
        std::sort(scratch.begin(), scratch.end());
        return sortedQuantile(scratch, 0.99);
    }

    /** Mean inter-token latency (0 when fewer than two tokens).
     *  This — not a percentile — is what the scheduler's ITL SLO
     *  tests; below two tokens there are no gaps, so such requests
     *  auto-pass the ITL half of the SLO. */
    double avgItlSeconds() const
    {
        const std::size_t n = token_times_s.size();
        if (n < 2)
            return 0.0;
        double s = 0.0;
        for (std::size_t i = 1; i < n; ++i)
            s += token_times_s[i] - token_times_s[i - 1];
        return s / static_cast<double>(n - 1);
    }
};

} // namespace spatten

#endif // SPATTEN_SERVE_REQUEST_STATE_HPP
