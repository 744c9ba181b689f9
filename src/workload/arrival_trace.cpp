#include "workload/arrival_trace.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <memory>

#include "common/logging.hpp"

namespace spatten {

namespace {

/** Exponential draw via inverse transform; 1-u keeps the argument of
 *  log strictly positive (uniform() is in [0, 1)). */
double
expDraw(Prng& prng, double mean)
{
    return -std::log(1.0 - prng.uniform()) * mean;
}

/**
 * Bounded Pareto draws over [lo, hi] with shape alpha (inverse CDF of
 * the Pareto truncated at hi): heavy-tailed but never out of bounds.
 * The inverse CDF's constants are computed once per trace; lo == hi
 * consumes no draw.
 */
class BoundedPareto
{
  public:
    BoundedPareto(std::size_t lo, std::size_t hi, double alpha)
        : lo_(lo), hi_(hi), l_(static_cast<double>(lo)),
          span_(1.0 - std::pow(l_ / static_cast<double>(hi), alpha)),
          inv_alpha_(1.0 / alpha)
    {
    }

    std::size_t operator()(Prng& prng) const
    {
        if (lo_ == hi_)
            return lo_;
        const double u = prng.uniform();
        const double x = l_ / std::pow(1.0 - u * span_, inv_alpha_);
        const auto v = static_cast<std::size_t>(std::llround(x));
        return std::clamp(v, lo_, hi_);
    }

  private:
    std::size_t lo_, hi_;
    double l_;         ///< lo as a double.
    double span_;      ///< 1 - (lo/hi)^alpha: the CDF mass below hi.
    double inv_alpha_; ///< 1 / alpha.
};

/** What an arrival trace does with its arrival-time draws. */
enum class Arrivals
{
    Kept,
    /// Consumed without their log: a caller that re-draws every
    /// arrival (the diurnal trace) keeps only the streams' positions.
    Discarded,
};

/**
 * Arrival trace under @p cfg whose requests all point at one template
 * of cfg.model and cfg.policy, named "<kind>-<id>-p<prompt>-g<output>".
 */
std::vector<TracedRequest>
arrivalTrace(const ArrivalTraceConfig& cfg, const char* kind,
             Arrivals arrivals = Arrivals::Kept)
{
    SPATTEN_ASSERT(cfg.mean_interarrival_s > 0, "bad interarrival mean");
    SPATTEN_ASSERT(cfg.min_prompt >= 1 && cfg.min_prompt <= cfg.max_prompt,
                   "bad prompt bounds [%zu, %zu]", cfg.min_prompt,
                   cfg.max_prompt);
    SPATTEN_ASSERT(cfg.min_output <= cfg.max_output,
                   "bad output bounds [%zu, %zu]", cfg.min_output,
                   cfg.max_output);
    SPATTEN_ASSERT(cfg.priority_levels >= 1, "no priority levels");
    const bool bursty = cfg.process == ArrivalProcess::OnOffBurst;
    if (bursty) {
        SPATTEN_ASSERT(cfg.burst_on_mean_s > 0 && cfg.burst_off_mean_s > 0,
                       "bad burst period means");
    }
    const bool pareto_prompts =
        cfg.prompt_dist == PromptLengthDist::BoundedPareto;
    if (pareto_prompts)
        SPATTEN_ASSERT(cfg.pareto_alpha > 0, "bad Pareto shape");

    const auto tmpl = std::make_shared<const RequestTemplate>(
        RequestTemplate{cfg.model, cfg.policy, false, kind});
    const BoundedPareto pareto(cfg.min_prompt, cfg.max_prompt,
                               cfg.pareto_alpha);
    const Prng::Bound prompts(cfg.max_prompt - cfg.min_prompt + 1);
    const Prng::Bound outputs(cfg.max_output - cfg.min_output + 1);
    const Prng::Bound priorities(cfg.priority_levels);
    Prng prng(cfg.seed);
    std::vector<TracedRequest> trace;
    trace.reserve(cfg.num_requests);
    double t = 0.0;
    // Remaining length of the current ON period (OnOffBurst only).
    double on_left = bursty ? expDraw(prng, cfg.burst_on_mean_s) : 0.0;
    for (std::size_t i = 0; i < cfg.num_requests; ++i) {
        if (arrivals == Arrivals::Discarded) {
            prng();
        } else {
            double gap = expDraw(prng, cfg.mean_interarrival_s);
            if (bursty) {
                // Consume the gap from ON time only; every ON/OFF
                // boundary crossed inserts an exponential silence.
                while (gap > on_left) {
                    gap -= on_left;
                    t += on_left + expDraw(prng, cfg.burst_off_mean_s);
                    on_left = expDraw(prng, cfg.burst_on_mean_s);
                }
                on_left -= gap;
            }
            t += gap;
        }

        const std::size_t prompt = pareto_prompts
                                       ? pareto(prng)
                                       : cfg.min_prompt + prng.below(prompts);
        const std::size_t output = cfg.min_output + prng.below(outputs);
        const std::uint64_t seed = prng();
        // Guarded draw: priority_levels == 1 consumes no PRNG state, so
        // pre-priority traces replay bit-identically from the same seed.
        const int priority =
            cfg.priority_levels > 1
                ? static_cast<int>(prng.below(priorities))
                : 0;
        trace.push_back({i, t, {prompt, output}, tmpl, seed, priority, {}});
    }
    return trace;
}

} // namespace

const RequestTemplate&
RequestTemplate::defaults()
{
    static const RequestTemplate defaults;
    return defaults;
}

std::string
TracedRequest::name() const
{
    const RequestTemplate& t = requestTemplate();
    // "-<id>-p<prompt>-g<output>": three 20-digit numbers and four
    // separator characters, formatted on the stack and appended once.
    char buf[3 * 20 + 4];
    char* const end = buf + sizeof buf;
    char* p = buf;
    const auto sep = [&p, end](const char* s) {
        for (; *s != '\0' && p != end; ++s)
            *p++ = *s;
    };
    sep("-");
    p = std::to_chars(p, end, id).ptr;
    sep("-p");
    p = std::to_chars(p, end, workload.summarize_len).ptr;
    sep("-g");
    p = std::to_chars(p, end, workload.generate_len).ptr;
    std::string name;
    name.reserve(t.kind.size() + static_cast<std::size_t>(p - buf));
    name.append(t.kind).append(buf, p);
    return name;
}

WorkloadSpec
TracedRequest::sessionSpec() const
{
    const RequestTemplate& t = requestTemplate();
    return {std::string(), t.model, workload.summarize_len,
            workload.generate_len, t.skip_summarization};
}

std::vector<TracedRequest>
generateArrivalTrace(const ArrivalTraceConfig& cfg)
{
    return arrivalTrace(cfg, "trace");
}

std::vector<TracedRequest>
generatePoissonTrace(const ArrivalTraceConfig& cfg)
{
    return generateArrivalTrace(cfg);
}

std::vector<TracedRequest>
generateDiurnalTrace(const DiurnalTraceConfig& cfg)
{
    SPATTEN_ASSERT(cfg.day_s > 0, "bad day period %f", cfg.day_s);
    SPATTEN_ASSERT(cfg.amplitude >= 0.0 && cfg.amplitude < 1.0,
                   "amplitude %f outside [0, 1)", cfg.amplitude);

    // Every arrival is re-drawn below, so the base's burst process
    // would be silently ignored.
    SPATTEN_ASSERT(cfg.base.process == ArrivalProcess::Poisson,
                   "a diurnal trace needs a Poisson base process");

    // Attributes (shapes, priorities, seeds): the exact base streams.
    std::vector<TracedRequest> trace =
        arrivalTrace(cfg.base, "trace", Arrivals::Discarded);
    // Arrival times run on their own stream so the demand *shape* never
    // shifts when the diurnal knobs change.
    Prng prng(mix64(cfg.base.seed ^ 0x646975726e616cULL)); // "diurnal"
    constexpr double kTwoPi = 6.283185307179586476925286766559;
    const double mean_rate = 1.0 / cfg.base.mean_interarrival_s;
    const double peak_rate = mean_rate * (1.0 + cfg.amplitude);
    const double peak_gap = 1.0 / peak_rate;
    double t = 0.0;
    for (TracedRequest& req : trace) {
        // Lewis-Shedler thinning: candidate arrivals at the peak rate,
        // each kept with probability rate(t) / peak_rate.
        for (;;) {
            t += expDraw(prng, peak_gap);
            const double rate =
                mean_rate *
                (1.0 + cfg.amplitude *
                           std::cos(kTwoPi *
                                    (t / cfg.day_s - cfg.peak_frac)));
            if (prng.uniform() * peak_rate <= rate)
                break;
        }
        req.arrival_s = t;
    }
    return trace;
}

std::vector<TracedRequest>
generateSharedPrefixTrace(const SharedPrefixTraceConfig& cfg)
{
    SPATTEN_ASSERT(cfg.num_system_prompts >= 1, "no system prompts");
    SPATTEN_ASSERT(cfg.system_prompt_tokens >= 1,
                   "empty system prompts");
    SPATTEN_ASSERT(cfg.user_turn_min >= 1 &&
                       cfg.user_turn_min <= cfg.user_turn_max,
                   "bad user-turn bounds [%zu, %zu]", cfg.user_turn_min,
                   cfg.user_turn_max);
    SPATTEN_ASSERT(cfg.followup_prob >= 0.0 && cfg.followup_prob <= 1.0,
                   "follow-up probability %f outside [0, 1]",
                   cfg.followup_prob);
    SPATTEN_ASSERT(cfg.system_prompt_tokens + cfg.user_turn_max <=
                       cfg.max_prompt_tokens,
                   "a single opening turn cannot fit max_prompt_tokens");

    // Arrivals / outputs / priorities / seeds: the exact base streams.
    std::vector<TracedRequest> trace = arrivalTrace(cfg.base, "prefix");
    // Content composition runs on its own stream so the base demand
    // shape never shifts when the sharing knobs change.
    Prng content(mix64(cfg.base.seed ^ 0x70726566697865ULL)); // "prefixe"

    // Pass 1 — structure. Every draw depends only on lengths, so the
    // conversations, their system prompts, every prompt length and each
    // conversation's run count are fixed before any run exists.
    // conversations[c] is the latest request of conversation c, open or
    // retired: its prompt plus its regenerated reply is the re-sendable
    // context.
    std::vector<std::size_t> conversations;
    std::vector<std::size_t> system_prompt; // Per conversation.
    std::vector<std::size_t> run_count;     // Per conversation.
    std::vector<std::size_t> conversation(trace.size()); // Per request.
    conversations.reserve(trace.size());
    system_prompt.reserve(trace.size());
    run_count.reserve(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        TracedRequest& req = trace[i];
        const std::size_t turn =
            cfg.user_turn_min +
            content.below(cfg.user_turn_max - cfg.user_turn_min + 1);

        std::size_t context = 0; // Re-sent history; 0 opens fresh.
        if (!conversations.empty() && content.chance(cfg.followup_prob)) {
            const std::size_t pick = content.below(conversations.size());
            // A history that can no longer grow a turn within the
            // prompt cap retires; the request opens fresh instead.
            const TracedRequest& prev = trace[conversations[pick]];
            const std::size_t resent =
                prev.workload.summarize_len + prev.workload.generate_len;
            if (resent + turn <= cfg.max_prompt_tokens) {
                context = resent;
                conversation[i] = pick;
                conversations[pick] = i;
                // The reply (none when it is empty) and the user turn.
                run_count[pick] += prev.workload.generate_len > 0 ? 2 : 1;
            }
        }
        if (context == 0) {
            context = cfg.system_prompt_tokens;
            conversation[i] = conversations.size();
            system_prompt.push_back(content.below(cfg.num_system_prompts));
            conversations.push_back(i);
            run_count.push_back(2); // System prompt and user turn.
        }
        req.workload.summarize_len = context + turn;
    }

    // Pass 2 — content, in request order. Each conversation's run list
    // is sized once to its final (latest) prompt's run count; a turn
    // pushes the system prompt (opener) or its predecessor's synthetic
    // reply, then its fresh user turn, and views the runs so far. A
    // run's token at absolute position p is mix64(seed ^ p).
    std::vector<std::shared_ptr<PromptTokens::Runs>> runs(
        conversations.size());
    std::vector<std::size_t> tail(conversations.size()); // Latest seen.
    for (std::size_t i = 0; i < trace.size(); ++i) {
        TracedRequest& req = trace[i];
        const std::size_t c = conversation[i];
        std::shared_ptr<PromptTokens::Runs>& list = runs[c];
        std::size_t context = cfg.system_prompt_tokens;
        if (!list) {
            list = std::make_shared<PromptTokens::Runs>();
            list->reserve(run_count[c]);
            list->push_back(
                {0, mix64(cfg.base.seed ^ (0x5953ULL + system_prompt[c]))});
        } else {
            const TracedRequest& last = trace[tail[c]];
            context = last.workload.summarize_len + last.workload.generate_len;
            if (last.workload.generate_len > 0)
                list->push_back({last.workload.summarize_len,
                                 mix64(last.seed ^ 0x7265706cULL)});
        }
        tail[c] = i;
        // Fresh user turn: content unique to this request.
        list->push_back({context, mix64(req.seed ^ 0x7475726eULL)});
        req.prompt_tokens = PromptTokens(list, req.workload.summarize_len);
    }
    return trace;
}

} // namespace spatten
