/**
 * @file
 * Seeded arrival traces for the continuous-batching serving model.
 *
 * A trace is the demand side of a serving experiment: requests arriving
 * over simulated time, each with a prompt length, an output length, and
 * a priority drawn from seeded distributions over a shared model/policy
 * template. Two arrival processes are modeled — a Poisson process
 * (i.i.d. exponential interarrival gaps) and an ON/OFF burst process
 * (Poisson arrivals during exponential ON periods separated by
 * exponential OFF gaps, the classic interrupted-Poisson bursty-traffic
 * model) — and prompt lengths can be uniform or bounded-Pareto
 * heavy-tailed, the regime where a KV-capacity-aware scheduler actually
 * gets exercised. The trace is a pure function of its config (including
 * the seed), so every scheduler experiment replays the exact same
 * demand — the determinism anchor the property tests and
 * BENCH_serving.json trajectories rely on.
 *
 * A request stores only what is its own: lengths, arrival, seed,
 * priority and a view of its prompt content. What a whole trace shares
 * (model, policy, the name kind) lives once in an immutable
 * RequestTemplate every request points at, and a request's name is
 * computed when read, so a generated trace costs 88 B and no heap
 * allocation per request.
 */
#ifndef SPATTEN_WORKLOAD_ARRIVAL_TRACE_HPP
#define SPATTEN_WORKLOAD_ARRIVAL_TRACE_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "common/tokens.hpp"
#include "core/model_spec.hpp"

namespace spatten {

/**
 * What the requests of one trace share, held once and pointed at by
 * each of them. Immutable once built; a trace mixing models or policies
 * holds one template per combination.
 */
struct RequestTemplate
{
    ModelSpec model;
    PruningPolicy policy;
    /// Pre-summarized prompts (WorkloadSpec::skip_summarization).
    bool skip_summarization = false;
    /// A request's name is "<kind>-<id>-p<prompt>-g<output>" (the
    /// generators' "trace-12-p193-g13" and "prefix-…").
    std::string kind = "trace";

    /** The template a request without one reads: WorkloadSpec's and
     *  PruningPolicy's defaults. */
    static const RequestTemplate& defaults();
};

/** The per-request lengths of a traced request. */
struct RequestShape
{
    std::size_t summarize_len = 128; ///< Prompt tokens.
    std::size_t generate_len = 0;    ///< Output tokens.
};

/** One request of an arrival trace. */
struct TracedRequest
{
    std::size_t id = 0;      ///< Position in the trace (stable identity).
    double arrival_s = 0;    ///< Simulated arrival time.
    RequestShape workload;   ///< Prompt/output lengths of this request.
    /// Model, policy and name kind, shared with the rest of the trace;
    /// null reads RequestTemplate::defaults().
    std::shared_ptr<const RequestTemplate> tmpl;
    std::uint64_t seed = kDefaultRequestSeed; ///< Per-request PRNG seed.
    int priority = 0; ///< Scheduling priority; higher is more urgent.
    /// Prompt *content* identity, one synthetic token id per prompt
    /// token (size == workload.summarize_len when present). Empty for
    /// legacy traces: every prompt is unique content, so the serving
    /// layer's shared-prefix cache can never match it. Filled by
    /// generateSharedPrefixTrace so requests sharing a system prompt
    /// or conversation history share a literal token prefix; every
    /// turn of one conversation views the same stored run list.
    PromptTokens prompt_tokens;

    const RequestTemplate& requestTemplate() const
    {
        return tmpl ? *tmpl : RequestTemplate::defaults();
    }
    const ModelSpec& model() const { return requestTemplate().model; }
    const PruningPolicy& policy() const { return requestTemplate().policy; }
    /** The request's name, formatted on each call. */
    std::string name() const;
    /** The WorkloadSpec a session of this request opens with: model,
     *  lengths and skip_summarization, with an empty name, so a served
     *  record's RunResult::workload holds no copy of name(). */
    WorkloadSpec sessionSpec() const;
};

/** How arrival times are generated. */
enum class ArrivalProcess
{
    /// i.i.d. exponential interarrival gaps at rate 1/mean.
    Poisson,
    /// Interrupted Poisson: gaps accrue only during exponential ON
    /// periods (mean burst_on_mean_s); crossing into an OFF period
    /// inserts an exponential silence (mean burst_off_mean_s). Arrivals
    /// cluster into bursts with long gaps between them.
    OnOffBurst,
};

/** How prompt lengths are drawn. */
enum class PromptLengthDist
{
    Uniform, ///< Uniform over [min_prompt, max_prompt].
    /// Bounded Pareto over [min_prompt, max_prompt] with shape
    /// pareto_alpha: mostly short prompts with a heavy tail of
    /// near-max ones (production prompt-length mixes).
    BoundedPareto,
};

/** Distribution parameters of a synthetic arrival trace. */
struct ArrivalTraceConfig
{
    std::size_t num_requests = 64;
    /// Mean interarrival gap of the Poisson process (rate = 1/mean).
    /// For OnOffBurst this is the in-burst gap mean.
    double mean_interarrival_s = 1e-3;
    std::uint64_t seed = kDefaultRequestSeed;
    ModelSpec model = ModelSpec::gpt2Small();
    PruningPolicy policy;         ///< Applied to every request.
    std::size_t min_prompt = 64;  ///< Prompt-length bounds.
    std::size_t max_prompt = 384;
    std::size_t min_output = 4;   ///< Uniform output-length bounds.
    std::size_t max_output = 32;

    ArrivalProcess process = ArrivalProcess::Poisson;
    double burst_on_mean_s = 2e-3;  ///< Mean ON-period length.
    double burst_off_mean_s = 10e-3; ///< Mean OFF-period length.

    PromptLengthDist prompt_dist = PromptLengthDist::Uniform;
    double pareto_alpha = 1.2; ///< Shape of the bounded Pareto tail.

    /// Priorities are uniform draws in [0, priority_levels); 1 keeps
    /// every request at priority 0 (and consumes no PRNG draws, so
    /// default traces are bit-identical to pre-priority ones).
    std::size_t priority_levels = 1;
};

/**
 * Generate an arrival trace under @p cfg's process and distributions:
 * arrival times are the running sum of (possibly burst-interrupted)
 * exponential gaps, prompt/output lengths and priorities are seeded
 * draws, and each request gets a distinct derived seed. Every request
 * points at one template of cfg.model and cfg.policy and is named
 * "trace-<id>-p<prompt>-g<output>". Deterministic: the same config
 * yields a bit-identical trace. Arrivals are non-decreasing and ids run
 * 0..n-1 in arrival order.
 */
std::vector<TracedRequest> generateArrivalTrace(
    const ArrivalTraceConfig& cfg);

/** Back-compat alias: generateArrivalTrace with cfg as given. */
std::vector<TracedRequest> generatePoissonTrace(
    const ArrivalTraceConfig& cfg);

/**
 * Demand with shared prompt prefixes — the regime prefix caching
 * serves: a pool of system prompts every conversation opens with, and
 * multi-turn follow-ups that re-send a growing conversation history.
 */
struct SharedPrefixTraceConfig
{
    /// Arrival process, output lengths, model/policy, and the base
    /// seed. The base prompt-length draws are consumed (stream
    /// compatibility) but overridden by the composition below.
    ArrivalTraceConfig base;
    /// Distinct system prompts; each request's conversation opens with
    /// one drawn uniformly.
    std::size_t num_system_prompts = 4;
    /// Tokens of every system prompt (block-aligned values maximize
    /// cache hits; misaligned ones exercise partial-block fallback).
    std::size_t system_prompt_tokens = 128;
    /// Probability a request is a follow-up turn: it re-sends a prior
    /// conversation's full context (prompt + generated reply) plus a
    /// fresh user turn, instead of opening a new conversation.
    double followup_prob = 0.5;
    /// Fresh user-turn length bounds (uniform draw per request).
    std::size_t user_turn_min = 16;
    std::size_t user_turn_max = 64;
    /// Conversations whose re-sent context would exceed this many
    /// prompt tokens start over instead (bounds the context under
    /// SpAttenConfig::max_context).
    std::size_t max_prompt_tokens = 768;
};

/**
 * Demand following a day/night cycle — the regime a day-scale serving
 * experiment needs: a non-homogeneous Poisson process whose rate swings
 * sinusoidally around the base mean, peaking mid-"day" and bottoming
 * out at "night".
 */
struct DiurnalTraceConfig
{
    /// Request shapes, model/policy, seed, and the *day-average* rate
    /// (1 / mean_interarrival_s). process must be Poisson (asserted):
    /// the diurnal process re-draws every arrival, so the burst knobs
    /// would have no effect. The base's one gap draw per request is
    /// consumed (stream compatibility) but never used.
    ArrivalTraceConfig base;
    /// Length of one day/night cycle in simulated seconds. Day-scale
    /// benches compress the wall day: what matters to the scheduler is
    /// the rate swing relative to service time, not the absolute 86400.
    double day_s = 60.0;
    /// Rate swing in [0, 1): rate(t) = mean_rate * (1 + amplitude *
    /// cos(2*pi*(t/day_s - peak_frac))). 0 degenerates to homogeneous
    /// Poisson; 0.9 means the night trough runs at 10% of the peak ~
    /// 19x swing.
    double amplitude = 0.8;
    /// Fraction of the day at which the rate peaks (0.5 = mid-day).
    double peak_frac = 0.5;
};

/**
 * Generate a diurnal trace: request shapes, priorities, per-request
 * seeds, the template and the "trace" names come from
 * generateArrivalTrace(cfg.base) (bit-identical attribute streams),
 * then arrival times are re-drawn from a separate PRNG stream as a
 * non-homogeneous Poisson process via Lewis-Shedler
 * thinning: candidate gaps at the peak rate, accepted with probability
 * rate(t)/peak_rate. Deterministic: the same config yields a
 * bit-identical trace; arrivals are non-decreasing.
 */
std::vector<TracedRequest> generateDiurnalTrace(
    const DiurnalTraceConfig& cfg);

/**
 * Generate a shared-prefix trace: arrivals, output lengths, priorities,
 * and per-request seeds come from generateArrivalTrace(cfg.base)
 * (bit-identical streams — a legacy consumer ignoring prompt_tokens
 * sees the same demand shape), then a *separate* content PRNG stream
 * (derived from base.seed) composes each prompt: system prompt or
 * re-sent conversation history, plus fresh user-turn tokens. Every
 * request carries its full prompt as a PromptTokens view of its
 * conversation's one exact-size list of (start, seed) runs — system
 * prompt, then per turn its user turn and (if non-empty) its reply —
 * so a conversation costs 16 B per run, not 8 B per token; ids are
 * computed when read. workload.summarize_len is overridden to match
 * the view's size, and requests are named "prefix-<id>-…" through one
 * template of their own. Deterministic: the same config yields a
 * bit-identical trace.
 */
std::vector<TracedRequest> generateSharedPrefixTrace(
    const SharedPrefixTraceConfig& cfg);

} // namespace spatten

#endif // SPATTEN_WORKLOAD_ARRIVAL_TRACE_HPP
