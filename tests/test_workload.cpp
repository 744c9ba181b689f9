/// Tests for the benchmark suite definitions, synthetic attention traces,
/// the synthetic task generators, and the arrival-trace generator's edge
/// cases (degenerate bounds, seed-stability goldens, burst/heavy-tail
/// modes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "workload/arrival_trace.hpp"
#include "workload/attention_trace.hpp"
#include "workload/benchmarks.hpp"
#include "workload/synthetic_tasks.hpp"

namespace spatten {
namespace {

TEST(Benchmarks, ThirtyTotal)
{
    const auto all = paperBenchmarks();
    EXPECT_EQ(all.size(), 30u);
    EXPECT_EQ(bertBenchmarks().size(), 22u);
    EXPECT_EQ(gptBenchmarks().size(), 8u);
}

TEST(Benchmarks, NamesUnique)
{
    std::set<std::string> names;
    for (const auto& b : paperBenchmarks())
        names.insert(b.workload.name);
    EXPECT_EQ(names.size(), 30u);
}

TEST(Benchmarks, BertConfigsCorrect)
{
    // Bind the list first: findBenchmark returns a reference into it,
    // which would dangle past a temporary (caught by the ASan CI job).
    const auto all = paperBenchmarks();
    const auto& b = findBenchmark(all, "bert-large-sst-2");
    EXPECT_EQ(b.workload.model.num_layers, 24u);
    EXPECT_EQ(b.workload.model.num_heads, 16u);
    EXPECT_EQ(b.workload.generate_len, 0u);
    EXPECT_FALSE(b.generative);
    EXPECT_FALSE(b.policy.pq.enabled); // BERT: static quantization
}

TEST(Benchmarks, GptConfigsCorrect)
{
    const auto all = paperBenchmarks();
    const auto& g = findBenchmark(all, "gpt2-small-ptb");
    EXPECT_EQ(g.workload.summarize_len, 992u);
    EXPECT_EQ(g.workload.generate_len, 32u);
    EXPECT_TRUE(g.generative);
    EXPECT_TRUE(g.policy.pq.enabled);
    EXPECT_NEAR(g.policy.lsb_fraction, 0.059, 1e-9);
}

TEST(Benchmarks, LongerTasksPruneMore)
{
    const auto all = paperBenchmarks();
    const auto& cola = findBenchmark(all, "bert-base-cola");   // len 11
    const auto& squad = findBenchmark(all, "bert-base-squad-v1"); // len 320
    EXPECT_LT(cola.policy.token_avg_ratio, squad.policy.token_avg_ratio);
}

TEST(Benchmarks, FindUnknownDies)
{
    const auto all = paperBenchmarks();
    EXPECT_DEATH(findBenchmark(all, "nope"), "unknown benchmark");
}

TEST(AttentionTrace, DominanceRaisesMaxProb)
{
    Prng p(1);
    double flat_sum = 0, dom_sum = 0;
    for (int i = 0; i < 20; ++i) {
        flat_sum += maxSoftmaxProb(syntheticScoreRow(64, 0.0, p));
        dom_sum += maxSoftmaxProb(syntheticScoreRow(64, 8.0, p));
    }
    EXPECT_LT(flat_sum / 20, 0.35);
    EXPECT_GT(dom_sum / 20, 0.9);
}

TEST(AttentionTrace, BatchCoversDominanceRange)
{
    Prng p(2);
    const auto rows = syntheticScoreRows(200, 48, 8.0, p);
    ASSERT_EQ(rows.size(), 200u);
    double min_p = 1.0, max_p = 0.0;
    for (const auto& r : rows) {
        const double mp = maxSoftmaxProb(r);
        min_p = std::min(min_p, mp);
        max_p = std::max(max_p, mp);
    }
    EXPECT_LT(min_p, 0.2);
    EXPECT_GT(max_p, 0.9);
}

TEST(KeywordTask, ExamplesWellFormed)
{
    KeywordTask task;
    const auto ex = task.sample(50);
    for (const auto& e : ex) {
        EXPECT_EQ(e.ids.size(), task.seqLen());
        EXPECT_LT(e.label, task.numClasses());
        std::size_t keywords = 0;
        for (auto id : e.ids) {
            EXPECT_LT(id, task.vocabSize());
            keywords += task.isKeyword(id);
        }
        EXPECT_GE(keywords, 1u);
    }
}

TEST(KeywordTask, KeywordsMatchLabelClass)
{
    KeywordTask task;
    const auto ex = task.sample(50);
    const auto& cfg = task.config();
    for (const auto& e : ex) {
        for (auto id : e.ids) {
            if (!task.isKeyword(id))
                continue;
            const std::size_t cls =
                (id - cfg.num_fillers) / cfg.keywords_per_class;
            EXPECT_EQ(cls, e.label);
        }
    }
}

TEST(KeywordTask, TokenNamesNonEmpty)
{
    KeywordTask task;
    for (std::size_t id = 0; id < task.vocabSize(); ++id)
        EXPECT_FALSE(task.tokenName(id).empty());
}

TEST(CopyLmTask, StructureCorrect)
{
    CopyLmTask task;
    const auto& cfg = task.config();
    const auto ex = task.sample(20);
    const std::size_t bos = cfg.num_symbols + cfg.num_fillers;
    const std::size_t sep = bos + 1;
    for (const auto& e : ex) {
        EXPECT_EQ(e.ids.size(), task.seqLen());
        EXPECT_EQ(e.ids.front(), bos);
        // SEP present and payload copied after it.
        const auto sep_it =
            std::find(e.ids.begin(), e.ids.end(), sep);
        ASSERT_NE(sep_it, e.ids.end());
        const std::size_t sep_pos =
            static_cast<std::size_t>(sep_it - e.ids.begin());
        // Payload symbols (stride filler_gap+1 after BOS) match the copy.
        for (std::size_t i = 0; i < cfg.payload_len; ++i) {
            const std::size_t orig = e.ids[1 + i * (1 + cfg.filler_gap)];
            const std::size_t copy = e.ids[sep_pos + 1 + i];
            EXPECT_EQ(orig, copy);
            EXPECT_TRUE(task.isSymbol(orig));
        }
    }
}

TEST(CopyLmTask, DeterministicWithSeed)
{
    CopyLmTaskConfig cfg;
    CopyLmTask a(cfg), b(cfg);
    const auto ea = a.sample(5);
    const auto eb = b.sample(5);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(ea[i].ids, eb[i].ids);
}

// ---------------------------------------------------------------------
// Arrival-trace generator: edge cases and distribution modes
// ---------------------------------------------------------------------

// A request stores its own data only; model, policy and name kind live
// in the trace's shared template (the request was 256 B with them).
static_assert(sizeof(TracedRequest) <= 96,
              "TracedRequest must hold per-request data only");

TEST(TracedRequestTemplate, OneTemplatePerTraceAndNamesComputedWhenRead)
{
    ArrivalTraceConfig tc;
    tc.num_requests = 16;
    tc.model = ModelSpec::gpt2Medium();
    tc.policy = PruningPolicy::disabled();
    const auto trace = generateArrivalTrace(tc);
    for (const TracedRequest& r : trace) {
        EXPECT_EQ(r.tmpl, trace.front().tmpl);
        EXPECT_EQ(r.model().name, "gpt2-medium");
        EXPECT_FALSE(r.policy().token_pruning);
        EXPECT_EQ(r.name(), "trace-" + std::to_string(r.id) + "-p" +
                                std::to_string(r.workload.summarize_len) +
                                "-g" +
                                std::to_string(r.workload.generate_len));
        const WorkloadSpec w = r.sessionSpec();
        EXPECT_TRUE(w.name.empty());
        EXPECT_EQ(w.model.num_layers, tc.model.num_layers);
        EXPECT_EQ(w.summarize_len, r.workload.summarize_len);
        EXPECT_EQ(w.generate_len, r.workload.generate_len);
        EXPECT_FALSE(w.skip_summarization);
    }

    SharedPrefixTraceConfig sp;
    sp.base.num_requests = 8;
    const auto prefixed = generateSharedPrefixTrace(sp);
    EXPECT_NE(prefixed.front().tmpl, nullptr);
    for (const TracedRequest& r : prefixed) {
        EXPECT_EQ(r.tmpl, prefixed.front().tmpl);
        EXPECT_EQ(r.name().rfind("prefix-" + std::to_string(r.id) + "-p" +
                                     std::to_string(r.workload.summarize_len),
                                 0),
                  0u);
    }

    // No template reads WorkloadSpec's and PruningPolicy's defaults,
    // named like a generated request.
    const TracedRequest bare;
    EXPECT_EQ(bare.tmpl, nullptr);
    EXPECT_EQ(bare.name(), "trace-0-p128-g0");
    EXPECT_EQ(bare.model().name, ModelSpec{}.name);
    EXPECT_EQ(bare.policy().token_avg_ratio, PruningPolicy{}.token_avg_ratio);
    EXPECT_EQ(bare.workload.summarize_len, WorkloadSpec{}.summarize_len);
    EXPECT_EQ(bare.workload.generate_len, WorkloadSpec{}.generate_len);
}

TEST(ArrivalTraceGen, DegenerateMinEqualsMaxBounds)
{
    ArrivalTraceConfig tc;
    tc.num_requests = 24;
    tc.min_prompt = tc.max_prompt = 96;
    tc.min_output = tc.max_output = 7;
    const auto trace = generatePoissonTrace(tc);
    ASSERT_EQ(trace.size(), tc.num_requests);
    for (const TracedRequest& r : trace) {
        EXPECT_EQ(r.workload.summarize_len, 96u);
        EXPECT_EQ(r.workload.generate_len, 7u);
    }
}

TEST(ArrivalTraceGen, ZeroOutputBoundsAllowed)
{
    ArrivalTraceConfig tc;
    tc.num_requests = 8;
    tc.min_output = tc.max_output = 0; // BERT-style classification mix.
    const auto trace = generatePoissonTrace(tc);
    for (const TracedRequest& r : trace)
        EXPECT_EQ(r.workload.generate_len, 0u);
}

TEST(ArrivalTraceGen, ArrivalsMonotoneNonDecreasingAndPositive)
{
    for (const std::uint64_t seed : {1ull, 42ull, 0x5eedull}) {
        ArrivalTraceConfig tc;
        tc.num_requests = 128;
        tc.seed = seed;
        const auto trace = generatePoissonTrace(tc);
        double prev = 0.0;
        for (const TracedRequest& r : trace) {
            EXPECT_GE(r.arrival_s, prev) << "seed " << seed;
            prev = r.arrival_s;
        }
        EXPECT_GT(trace.front().arrival_s, 0.0);
    }
}

// Pinned golden: the default (Poisson, uniform, no priorities) stream
// must replay bit-identically from a fixed seed across refactors of the
// generator — any drift silently re-baselines every serving experiment.
TEST(ArrivalTraceGen, SeedStabilityGolden)
{
    ArrivalTraceConfig tc;
    tc.num_requests = 4;
    tc.mean_interarrival_s = 1e-3;
    tc.seed = 0x5eed;
    const auto trace = generatePoissonTrace(tc);
    ASSERT_EQ(trace.size(), 4u);
    const struct
    {
        double arrival_s;
        std::size_t prompt;
        std::size_t output;
        std::uint64_t seed;
    } golden[] = {
        {0.0027239713595298923, 251, 32, 0xf985e1f2fb897b03ULL},
        {0.0038812628217176522, 299, 22, 0x6c13fd25a3155716ULL},
        {0.0053748991525125883, 146, 30, 0xacaedbe9142e2838ULL},
        {0.0061533030372219214, 155, 11, 0x3f4c13e909495775ULL},
    };
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_DOUBLE_EQ(trace[i].arrival_s, golden[i].arrival_s);
        EXPECT_EQ(trace[i].workload.summarize_len, golden[i].prompt);
        EXPECT_EQ(trace[i].workload.generate_len, golden[i].output);
        EXPECT_EQ(trace[i].seed, golden[i].seed);
        EXPECT_EQ(trace[i].priority, 0);
    }
}

TEST(ArrivalTraceGen, OnOffBurstClustersArrivals)
{
    ArrivalTraceConfig tc;
    tc.num_requests = 256;
    tc.mean_interarrival_s = 0.1e-3;
    tc.process = ArrivalProcess::OnOffBurst;
    tc.burst_on_mean_s = 1e-3;   // ~10 arrivals per burst.
    tc.burst_off_mean_s = 20e-3; // Long silences between bursts.
    const auto trace = generateArrivalTrace(tc);

    double prev = 0.0;
    std::size_t long_gaps = 0;
    for (const TracedRequest& r : trace) {
        ASSERT_GE(r.arrival_s, prev);
        if (r.arrival_s - prev > 5e-3) // >> any in-burst gap scale.
            ++long_gaps;
        prev = r.arrival_s;
    }
    EXPECT_GE(long_gaps, 5u)
        << "OFF periods must show up as long inter-arrival silences";
    // Deterministic replay.
    const auto again = generateArrivalTrace(tc);
    for (std::size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(trace[i].arrival_s, again[i].arrival_s);
}

TEST(ArrivalTraceGen, BoundedParetoPromptsAreHeavyTailedWithinBounds)
{
    ArrivalTraceConfig tc;
    tc.num_requests = 512;
    tc.min_prompt = 32;
    tc.max_prompt = 512;
    tc.prompt_dist = PromptLengthDist::BoundedPareto;
    tc.pareto_alpha = 1.1;
    const auto trace = generateArrivalTrace(tc);

    std::size_t below_mid = 0;
    std::size_t near_max = 0;
    for (const TracedRequest& r : trace) {
        ASSERT_GE(r.workload.summarize_len, tc.min_prompt);
        ASSERT_LE(r.workload.summarize_len, tc.max_prompt);
        below_mid += r.workload.summarize_len < 272 ? 1 : 0; // Midpoint.
        near_max += r.workload.summarize_len >= 384 ? 1 : 0;
    }
    EXPECT_GT(below_mid, trace.size() * 3 / 4)
        << "Pareto mass must concentrate on short prompts";
    EXPECT_GE(near_max, 1u) << "the heavy tail must still reach far";
}

TEST(ArrivalTraceGen, PriorityLevelsDrawnWithinRangeAndDeterministic)
{
    ArrivalTraceConfig tc;
    tc.num_requests = 128;
    tc.priority_levels = 4;
    const auto trace = generateArrivalTrace(tc);
    std::set<int> seen;
    for (const TracedRequest& r : trace) {
        ASSERT_GE(r.priority, 0);
        ASSERT_LT(r.priority, 4);
        seen.insert(r.priority);
    }
    EXPECT_EQ(seen.size(), 4u) << "all levels should appear in 128 draws";
    const auto again = generateArrivalTrace(tc);
    for (std::size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(trace[i].priority, again[i].priority);
}

// ---------------------------------------------------------------------
// Shared-prefix traces (system-prompt pools + multi-turn follow-ups)
// ---------------------------------------------------------------------

SharedPrefixTraceConfig
sharedPrefixConfig(std::size_t n = 32, std::uint64_t seed = 0x5eed)
{
    SharedPrefixTraceConfig sp;
    sp.base.num_requests = n;
    sp.base.seed = seed;
    sp.num_system_prompts = 2;
    sp.system_prompt_tokens = 64;
    sp.followup_prob = 0.5;
    sp.user_turn_min = 8;
    sp.user_turn_max = 24;
    sp.max_prompt_tokens = 512;
    return sp;
}

TEST(DiurnalTrace, AttributesMatchBaseStreamsAndArrivalsMonotone)
{
    DiurnalTraceConfig dc;
    dc.base.num_requests = 512;
    dc.base.mean_interarrival_s = 1e-3;
    dc.base.seed = 0xdadd;
    dc.day_s = 0.25;
    const auto trace = generateDiurnalTrace(dc);
    const auto base = generateArrivalTrace(dc.base);
    ASSERT_EQ(trace.size(), base.size());
    double prev = 0.0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        // Shapes, seeds, and priorities are the exact base streams;
        // only the arrival times are re-drawn.
        EXPECT_EQ(trace[i].workload.summarize_len,
                  base[i].workload.summarize_len);
        EXPECT_EQ(trace[i].workload.generate_len,
                  base[i].workload.generate_len);
        EXPECT_EQ(trace[i].seed, base[i].seed);
        EXPECT_EQ(trace[i].priority, base[i].priority);
        EXPECT_GE(trace[i].arrival_s, prev);
        prev = trace[i].arrival_s;
    }
    EXPECT_GT(trace.front().arrival_s, 0.0);

    // Deterministic: the same config replays bit-identically.
    const auto again = generateDiurnalTrace(dc);
    for (std::size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(trace[i].arrival_s, again[i].arrival_s);
}

TEST(DiurnalTrace, RateFollowsTheDayNightCycle)
{
    // Bin arrivals by phase-of-day: the half-day centered on the peak
    // must hold substantially more arrivals than the trough half, and
    // amplitude 0 must degenerate to the flat Poisson profile.
    DiurnalTraceConfig dc;
    dc.base.num_requests = 4096;
    dc.base.mean_interarrival_s = 1e-3;
    dc.day_s = 0.5;
    dc.amplitude = 0.9;
    dc.peak_frac = 0.5;
    const auto trace = generateDiurnalTrace(dc);

    const auto peakHalfCount = [&](const std::vector<TracedRequest>& t) {
        std::size_t peak = 0;
        for (const TracedRequest& r : t) {
            const double phase = r.arrival_s / dc.day_s -
                                 std::floor(r.arrival_s / dc.day_s);
            if (phase >= 0.25 && phase < 0.75)
                ++peak;
        }
        return peak;
    };
    const std::size_t peak = peakHalfCount(trace);
    const std::size_t trough = trace.size() - peak;
    // At amplitude 0.9 the expected split is ~79/21; demand 2x as a
    // loose, seed-robust bound.
    EXPECT_GT(peak, 2 * trough);

    DiurnalTraceConfig flat = dc;
    flat.amplitude = 0.0;
    const auto flat_trace = generateDiurnalTrace(flat);
    const std::size_t flat_peak = peakHalfCount(flat_trace);
    EXPECT_LT(flat_peak, flat_trace.size() * 6 / 10);
    EXPECT_GT(flat_peak, flat_trace.size() * 4 / 10);
}

TEST(SharedPrefixTrace, BaseStreamsUnchanged)
{
    // Arrivals, outputs, priorities, and per-request seeds must come
    // from the exact base generator streams: a consumer ignoring
    // prompt_tokens sees the same demand, and the content knobs can
    // never shift the arrival process.
    const auto sp = sharedPrefixConfig();
    const auto shared = generateSharedPrefixTrace(sp);
    const auto base = generateArrivalTrace(sp.base);
    ASSERT_EQ(shared.size(), base.size());
    for (std::size_t i = 0; i < shared.size(); ++i) {
        EXPECT_EQ(shared[i].arrival_s, base[i].arrival_s);
        EXPECT_EQ(shared[i].workload.generate_len,
                  base[i].workload.generate_len);
        EXPECT_EQ(shared[i].seed, base[i].seed);
        EXPECT_EQ(shared[i].priority, base[i].priority);
    }
}

TEST(SharedPrefixTrace, PromptContentWellFormedAndShared)
{
    const auto sp = sharedPrefixConfig(64);
    const auto trace = generateSharedPrefixTrace(sp);
    // Content length always matches the declared prompt length, and
    // every prompt opens with one of num_system_prompts pools (fresh)
    // or extends another request's prompt (follow-up).
    std::size_t openers = 0, followups = 0;
    std::set<std::uint64_t> first_tokens;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const auto& p = trace[i].prompt_tokens;
        ASSERT_EQ(p.size(), trace[i].workload.summarize_len);
        ASSERT_LE(p.size(), sp.max_prompt_tokens);
        first_tokens.insert(p.front());
        bool is_followup = false;
        for (std::size_t j = 0; j < i && !is_followup; ++j) {
            const auto& q = trace[j].prompt_tokens;
            if (p.size() > q.size() &&
                std::equal(q.begin(), q.end(), p.begin()))
                is_followup = true;
        }
        if (is_followup)
            ++followups;
        else
            ++openers;
    }
    EXPECT_LE(first_tokens.size(), sp.num_system_prompts)
        << "every conversation opens from the system-prompt pool";
    EXPECT_GE(followups, 1u) << "50% follow-up prob over 64 requests";
    EXPECT_GE(openers, 1u);
    // Deterministic: same config, bit-identical content.
    const auto again = generateSharedPrefixTrace(sp);
    for (std::size_t i = 0; i < trace.size(); ++i)
        EXPECT_EQ(trace[i].prompt_tokens, again[i].prompt_tokens);
}

TEST(SharedPrefixTrace, FollowupsReuseConversationHistory)
{
    auto sp = sharedPrefixConfig(48);
    sp.followup_prob = 1.0; // After the opener, every request follows up.
    const auto trace = generateSharedPrefixTrace(sp);
    std::size_t extending = 0;
    for (std::size_t i = 1; i < trace.size(); ++i) {
        const auto& p = trace[i].prompt_tokens;
        for (std::size_t j = 0; j < i; ++j) {
            const auto& q = trace[j].prompt_tokens;
            // A follow-up re-sends a prior prompt *plus its reply*,
            // then appends a fresh turn: strict prefix extension.
            if (p.size() > q.size() &&
                std::equal(q.begin(), q.end(), p.begin())) {
                ++extending;
                break;
            }
        }
    }
    EXPECT_GE(extending, trace.size() / 2)
        << "forced follow-ups must extend earlier conversations "
           "(fresh restarts only at the prompt cap)";
}

// A request's prompt view costs what the vector it replaced did.
static_assert(sizeof(PromptTokens) == sizeof(std::vector<std::uint64_t>),
              "PromptTokens must not grow TracedRequest");

/// The ids of stream @p seed at absolute positions [from, to), appended
/// to @p out: the token at position p is mix64(seed ^ p).
void
appendStream(std::vector<std::uint64_t>& out, std::uint64_t seed,
             std::size_t from, std::size_t to)
{
    for (std::size_t p = from; p < to; ++p)
        out.push_back(mix64(seed ^ p));
}

TEST(SharedPrefixTrace, ConversationTurnsShareOneBuffer)
{
    // The default shape, and one with zero-token replies (min_output =
    // 0): a turn after an empty reply pushes no reply run, so its user
    // turn starts where its predecessor's view ends.
    auto zero_replies = sharedPrefixConfig(256, 0x2e20);
    zero_replies.base.min_output = 0;
    zero_replies.base.max_output = 2;
    for (const SharedPrefixTraceConfig& sp :
         {sharedPrefixConfig(256), zero_replies}) {
        SCOPED_TRACE(sp.base.min_output);
        TracedRequest survivor;
        std::size_t survivor_idx = 0;
        {
            const auto trace = generateSharedPrefixTrace(sp);
            // Conversations from content alone: a turn's predecessor is
            // the longest earlier prompt it strictly extends (user turns
            // are unique per request, so only a conversation's own
            // history is a strict prefix of its prompt).
            const std::size_t none = trace.size();
            std::vector<std::size_t> pred(trace.size(), none);
            std::vector<bool> extended(trace.size(), false);
            std::set<const PromptTokens::Runs*> seen;
            std::size_t followups = 0, zero_reply_followups = 0;
            // Reference ids from the content streams: an opener is a
            // system prompt then its user turn; a follow-up re-sends its
            // predecessor's prompt and reply, then its user turn.
            std::vector<std::vector<std::uint64_t>> ref(trace.size());
            for (std::size_t i = 0; i < trace.size(); ++i) {
                const TracedRequest& req = trace[i];
                const auto& p = req.prompt_tokens;
                for (std::size_t j = 0; j < i; ++j) {
                    const auto& q = trace[j].prompt_tokens;
                    if (q.size() < p.size() &&
                        std::equal(q.begin(), q.end(), p.begin()) &&
                        (pred[i] == none ||
                         q.size() > trace[pred[i]].prompt_tokens.size()))
                        pred[i] = j;
                }
                const PromptTokens::Runs* runs = p.runs().get();
                ASSERT_NE(runs, nullptr);
                std::size_t turn_start = sp.system_prompt_tokens;
                if (pred[i] == none) {
                    EXPECT_TRUE(seen.insert(runs).second)
                        << "request " << i
                        << " opens a conversation on another's runs";
                    std::size_t k = 0;
                    while (k < sp.num_system_prompts &&
                           p.front() !=
                               mix64(mix64(sp.base.seed ^ (0x5953ULL + k))))
                        ++k;
                    ASSERT_LT(k, sp.num_system_prompts) << "request " << i;
                    appendStream(ref[i],
                                 mix64(sp.base.seed ^ (0x5953ULL + k)), 0,
                                 turn_start);
                } else {
                    const TracedRequest& prev = trace[pred[i]];
                    ++followups;
                    extended[pred[i]] = true;
                    EXPECT_EQ(runs, prev.prompt_tokens.runs().get())
                        << "follow-up " << i << " copied its history";
                    zero_reply_followups +=
                        prev.workload.generate_len == 0 ? 1 : 0;
                    ref[i] = ref[pred[i]];
                    turn_start = prev.workload.summarize_len +
                                 prev.workload.generate_len;
                    appendStream(ref[i], mix64(prev.seed ^ 0x7265706cULL),
                                 prev.workload.summarize_len, turn_start);
                }
                appendStream(ref[i], mix64(req.seed ^ 0x7475726eULL),
                             turn_start, req.workload.summarize_len);

                // Every read path equals the reference at every position.
                ASSERT_EQ(p.size(), ref[i].size());
                EXPECT_TRUE(std::equal(p.begin(), p.end(), ref[i].begin()))
                    << "iteration, request " << i;
                for (std::size_t pos = 0; pos < p.size(); ++pos)
                    ASSERT_EQ(p.at(pos), ref[i][pos])
                        << "request " << i << " position " << pos;
                EXPECT_EQ(p.front(), ref[i].front());
                EXPECT_EQ(p.back(), ref[i].back());
                std::vector<std::uint64_t> ids;
                p.copyTo(ids);
                EXPECT_EQ(ids, ref[i]) << "copyTo, request " << i;
            }
            EXPECT_GE(followups, trace.size() / 4);
            if (sp.base.min_output == 0) {
                EXPECT_GE(zero_reply_followups, 4u)
                    << "the zero-reply case must actually occur";
            }

            // Stored runs: each conversation once, sized exactly to its
            // final (last) turn, with no slack and no empty run; every
            // shorter view of it ends exactly on a run boundary and
            // reads only its own prefix.
            std::size_t boundary_views = 0;
            for (std::size_t i = 0; i < trace.size(); ++i) {
                if (extended[i])
                    continue;
                const PromptTokens& last = trace[i].prompt_tokens;
                const PromptTokens::Runs& runs = *last.runs();
                EXPECT_EQ(runs.capacity(), runs.size());
                ASSERT_EQ(runs.front().start, 0u);
                for (std::size_t r = 1; r < runs.size(); ++r) {
                    ASSERT_LT(runs[r - 1].start, runs[r].start)
                        << "empty run in request " << i << "'s history";
                    const PromptTokens view(last.runs(), runs[r].start);
                    std::vector<std::uint64_t> ids;
                    view.copyTo(ids);
                    const std::vector<std::uint64_t> want(
                        ref[i].begin(),
                        ref[i].begin() +
                            static_cast<std::ptrdiff_t>(runs[r].start));
                    EXPECT_EQ(ids, want) << "request " << i << " run " << r;
                    EXPECT_TRUE(std::equal(view.begin(), view.end(),
                                           want.begin()));
                    EXPECT_EQ(view.back(), want.back());
                    ++boundary_views;
                }
                EXPECT_LT(runs.back().start, last.size());
            }
            EXPECT_GE(boundary_views, followups)
                << "every re-sent turn ends on a run boundary";

            // Keep a mid-conversation turn past the trace's lifetime.
            survivor_idx = trace.size() / 2;
            while (pred[survivor_idx] == none)
                ++survivor_idx;
            survivor = trace[survivor_idx];
        }
        // The copy co-owns its runs: its tokens outlive the trace.
        const auto again = generateSharedPrefixTrace(sp);
        EXPECT_EQ(survivor.prompt_tokens, again[survivor_idx].prompt_tokens);
        EXPECT_EQ(survivor.prompt_tokens.size(),
                  survivor.workload.summarize_len);
    }
}

/// 64-bit digest of every field a trace generator fills: id, arrival
/// time (its bit pattern), name, both lengths, seed, priority and the
/// prompt content. Any drift in any request changes it.
std::uint64_t
traceDigest(const std::vector<TracedRequest>& trace)
{
    std::uint64_t h = mix64(trace.size());
    const auto fold = [&h](std::uint64_t x) { h = mix64(h ^ x); };
    for (const TracedRequest& r : trace) {
        fold(r.id);
        std::uint64_t bits = 0;
        std::memcpy(&bits, &r.arrival_s, sizeof bits);
        fold(bits);
        const std::string name = r.name();
        fold(name.size());
        for (const char c : name)
            fold(static_cast<unsigned char>(c));
        fold(r.workload.summarize_len);
        fold(r.workload.generate_len);
        fold(r.seed);
        fold(static_cast<std::uint64_t>(static_cast<std::int64_t>(r.priority)));
        fold(r.prompt_tokens.size());
        for (const std::uint64_t t : r.prompt_tokens)
            fold(t);
    }
    return h;
}

// Pinned digests of five whole traces, so a rewrite of any generator
// (name formatting, content composition, retirement) must reproduce
// every request bit for bit.
TEST(TraceIdentity, ArrivalTraceDigestPinned)
{
    ArrivalTraceConfig tc;
    tc.num_requests = 2048;
    tc.seed = 0x1d;
    tc.process = ArrivalProcess::OnOffBurst;
    tc.prompt_dist = PromptLengthDist::BoundedPareto;
    tc.priority_levels = 3;
    const auto trace = generateArrivalTrace(tc);
    ASSERT_EQ(trace.size(), 2048u);
    EXPECT_EQ(traceDigest(trace), 0x73036d61eeec37f1ULL);
}

TEST(TraceIdentity, DiurnalTraceDigestPinned)
{
    DiurnalTraceConfig dc;
    dc.base.num_requests = 2048;
    dc.base.seed = 0xd1;
    dc.day_s = 1.0;
    dc.amplitude = 0.8;
    const auto trace = generateDiurnalTrace(dc);
    ASSERT_EQ(trace.size(), 2048u);
    EXPECT_EQ(traceDigest(trace), 0x9dcc9254ddb33a28ULL);
}

TEST(TraceIdentity, FleetMixedShapeDigestPinned)
{
    // perfbench's fleet-mixed demand: bursty arrivals, heavy-tailed
    // prompts, uniform outputs and no priority draw.
    ArrivalTraceConfig tc;
    tc.num_requests = 2048;
    tc.seed = 0xf1;
    tc.process = ArrivalProcess::OnOffBurst;
    tc.mean_interarrival_s = 0.4e-3;
    tc.burst_on_mean_s = 2e-3;
    tc.burst_off_mean_s = 10e-3;
    tc.prompt_dist = PromptLengthDist::BoundedPareto;
    tc.pareto_alpha = 1.2;
    tc.min_output = 16;
    tc.max_output = 32;
    const auto trace = generateArrivalTrace(tc);
    ASSERT_EQ(trace.size(), 2048u);
    EXPECT_EQ(traceDigest(trace), 0xcd8a22c439e45b95ULL);
}

TEST(TraceIdentity, PoissonUniformPromptDigestPinned)
{
    // perfbench's dense-long demand: Poisson arrivals, uniform prompts.
    ArrivalTraceConfig tc;
    tc.num_requests = 2048;
    tc.seed = 0xde;
    tc.mean_interarrival_s = 10e-3;
    tc.policy = PruningPolicy::disabled();
    tc.min_prompt = 512;
    tc.max_prompt = 768;
    tc.min_output = 4;
    tc.max_output = 12;
    const auto trace = generatePoissonTrace(tc);
    ASSERT_EQ(trace.size(), 2048u);
    EXPECT_EQ(traceDigest(trace), 0x931b354fe0cec1c9ULL);
}

TEST(TraceIdentity, SharedPrefixTraceWithRetirementDigestPinned)
{
    auto sp = sharedPrefixConfig(2048, 0x5a);
    sp.followup_prob = 1.0; // Only retirement opens a new conversation.
    sp.base.min_output = 16;
    sp.max_prompt_tokens = 256;
    const auto trace = generateSharedPrefixTrace(sp);
    ASSERT_EQ(trace.size(), 2048u);
    // A follow-up carries at least sys + turn + reply + turn tokens, so
    // any shorter prompt opened a conversation; past the first request
    // that only happens when the picked history hit the cap.
    const std::size_t opener_max = sp.system_prompt_tokens + sp.user_turn_max;
    ASSERT_GT(sp.system_prompt_tokens + 2 * sp.user_turn_min +
                  sp.base.min_output,
              opener_max);
    std::size_t openers = 0;
    for (const TracedRequest& r : trace)
        if (r.prompt_tokens.size() <= opener_max)
            ++openers;
    EXPECT_GT(openers, 16u) << "conversations must retire at the cap";
    EXPECT_EQ(traceDigest(trace), 0xe752db2fd30ce923ULL);
}

TEST(SharedPrefixTrace, SeedStabilityGolden)
{
    // Pinned content values: any change to the composition streams is
    // a conscious re-baseline, because checked-in BENCH trajectories
    // and the scheduler cache tests replay these exact prompts.
    const auto trace = generateSharedPrefixTrace(sharedPrefixConfig());
    ASSERT_EQ(trace.size(), 32u);
    const struct
    {
        std::size_t idx;
        std::size_t prompt_len;
        std::uint64_t first_token;
        std::uint64_t last_token;
    } golden[] = {
        {0, 79, 0xec343d7abf34fb5ULL, 0x7501a4e7fb63e40ULL},
        {1, 76, 0x55df428ea21fba22ULL, 0x682bc3f08e9f1c78ULL},
        {7, 76, 0x55df428ea21fba22ULL, 0xc54cec6ce118e90eULL},
        {31, 105, 0x55df428ea21fba22ULL, 0x703168ee8276906eULL},
    };
    for (const auto& g : golden) {
        EXPECT_EQ(trace[g.idx].prompt_tokens.size(), g.prompt_len);
        EXPECT_EQ(trace[g.idx].prompt_tokens.front(), g.first_token);
        EXPECT_EQ(trace[g.idx].prompt_tokens.back(), g.last_token);
    }
}

} // namespace
} // namespace spatten
