/// Golden regression suite: six named workload x policy combos with
/// cycles / DRAM-reduction / energy pinned against checked-in golden
/// values, so any change to the timing, traffic, or energy model is a
/// conscious decision, never an accident.
///
/// A second table pins the full exported stat surface (every name, value
/// and counter/gauge kind, in order) of one run and one decode session.
///
/// Re-baselining intentionally:
///   SPATTEN_GOLDEN_DUMP=1 ./test_golden_regression
/// prints fresh `kGoldens`, `kRunStats` and `kSessionStats` tables;
/// paste each over the one below.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "accel/decode_session.hpp"
#include "accel/spatten_accelerator.hpp"

namespace spatten {
namespace {

struct Metrics
{
    double cycles = 0;         ///< Simulated core cycles (summed for batches).
    double dram_reduction = 1; ///< Dense fp32 bytes / fetched bytes.
    double energy_j = 0;       ///< Total energy (summed for batches).
};

struct Golden
{
    const char* name;
    double cycles;
    double dram_reduction;
    double energy_j;
};

// Measured on the current model (see file header for the re-baseline
// recipe). Workload x policy combos cover the paper's main scenarios:
// discriminative prefill, generative decode with carried pruned KV,
// BERT, MemNet-style memory hops, beam search, and batched serving.
constexpr Golden kGoldens[] = {
    {"gpt2-prefill", 2553202, 3.9037407672146771, 0.0067539634951},
    {"gpt2-decode", 713571, 36.482948854267796, 0.0019153460735400014},
    {"bert", 1439268, 3.9021911718005717, 0.0038977779987000001},
    {"memnet", 965, 2.8985507246376812, 2.1028826000000002e-06},
    {"beam-search", 318336, 6.6982921781093312, 0.0026592823845695999},
    {"batch-of-8", 6279128, 3.6367933481243346, 0.023001340760403201},
};

struct StatGolden
{
    const char* name;
    double value;
    bool gauge;
};

// Full ordered stat surface of runStatSurface() / sessionStatSurface(),
// compared bit for bit.
constexpr StatGolden kRunStats[] = {
    {"activity.pv_macs", 945794304, true},
    {"activity.qk_macs", 1352154155.5200012, true},
    {"activity.softmax_elems", 21127408.680000018, true},
    {"activity.topk_comparisons", 63401529, true},
    {"crossbar.conflicts", 0, true},
    {"hbm.bytes_read", 105319932, false},
    {"hbm.bytes_written", 0, false},
    {"hbm.energy_pj", 3412885550.4000001, false},
    {"hbm.requests", 9648, false},
    {"hbm.row_activations", 139608, false},
    {"pipeline.compute_bound_ns", 2553202, true},
    {"pipeline.compute_reduction", 2.1723960675962219, true},
    {"pipeline.dram_reduction", 6.3731498801195583, true},
    {"pipeline.effective_tflops", 1.5981905049759384, true},
    {"pipeline.generate_seconds", 0.00031861800000000011, true},
    {"pipeline.memory_bound_ns", 318618, true},
    {"pipeline.summarize_seconds", 0.0025532020000000001, true},
    {"sram.key_bytes_read", 2023595136, true},
    {"sram.value_bytes_read", 1418691456, true},
    {"stage.fetcher.busy_cycles", 361254, false},
    {"stage.fetcher.dram_bytes", 105320981.75999996, false},
    {"stage.fetcher.energy_pj", 185513760, false},
    {"stage.pv.busy_cycles", 1863540, false},
    {"stage.pv.dram_bytes", 0, false},
    {"stage.pv.energy_pj", 1229532595.1999998, false},
    {"stage.qk.busy_cycles", 2655348, false},
    {"stage.qk.dram_bytes", 0, false},
    {"stage.qk.energy_pj", 1757800402.1760015, false},
    {"stage.softmax.busy_cycles", 2655348, false},
    {"stage.softmax.dram_bytes", 0, false},
    {"stage.softmax.energy_pj", 1162007477.3999989, false},
    {"stage.topk.busy_cycles", 2666181, false},
    {"stage.topk.dram_bytes", 0, false},
    {"stage.topk.energy_pj", 158503822.5, false},
    {"stage.zero_eliminator.busy_cycles", 9312, false},
    {"stage.zero_eliminator.dram_bytes", 0, false},
    {"stage.zero_eliminator.energy_pj", 0, false},
};

constexpr StatGolden kSessionStats[] = {
    {"activity.pv_macs", 229287168, true},
    {"activity.qk_macs", 325877569.53600031, true},
    {"activity.softmax_elems", 5091837.0240000049, true},
    {"activity.topk_comparisons", 15280515, true},
    {"crossbar.conflicts", 0, true},
    {"hbm.bytes_read", 8609424, false},
    {"hbm.bytes_written", 0, false},
    {"hbm.energy_pj", 285117832.80000001, false},
    {"hbm.requests", 5040, false},
    {"hbm.row_activations", 18156, false},
    {"pipeline.compute_bound_ns", 644469, true},
    {"pipeline.compute_reduction", 2.2452187001947936, true},
    {"pipeline.dram_reduction", 21.169315856670551, true},
    {"pipeline.effective_tflops", 1.6343986609725611, true},
    {"pipeline.generate_seconds", 3.4830000000000017e-05, true},
    {"pipeline.memory_bound_ns", 34830, true},
    {"pipeline.summarize_seconds", 0.00064446900000000005, true},
    {"sram.key_bytes_read", 488753280, true},
    {"sram.value_bytes_read", 343930752, true},
    {"stage.fetcher.busy_cycles", 57093.5, false},
    {"stage.fetcher.dram_bytes", 8609952.7679999936, false},
    {"stage.fetcher.energy_pj", 11561760, false},
    {"stage.pv.busy_cycles", 455100, false},
    {"stage.pv.dram_bytes", 0, false},
    {"stage.pv.energy_pj", 298073318.40000159, false},
    {"stage.qk.busy_cycles", 645468, false},
    {"stage.qk.dram_bytes", 0, false},
    {"stage.qk.energy_pj", 423640840.39679992, false},
    {"stage.softmax.busy_cycles", 645468, false},
    {"stage.softmax.dram_bytes", 0, false},
    {"stage.softmax.energy_pj", 280051036.3199991, false},
    {"stage.topk.busy_cycles", 646212, false},
    {"stage.topk.dram_bytes", 0, false},
    {"stage.topk.energy_pj", 38201287.5, false},
    {"stage.zero_eliminator.busy_cycles", 3160, false},
    {"stage.zero_eliminator.dram_bytes", 0, false},
    {"stage.zero_eliminator.energy_pj", 0, false},
};

Metrics
fromRun(const RunResult& r)
{
    return {static_cast<double>(r.cycles), r.dramReduction(),
            r.energy.totalJ()};
}

/// One request of a multi-request combo, run on its own seed.
struct Request
{
    WorkloadSpec workload;
    PruningPolicy policy;
    std::uint64_t seed;
};

/// Run @p requests one after another through SpAttenAccelerator::run,
/// summing cycles and energy in request order; the DRAM reduction is
/// summed dense bytes over summed fetched bytes.
Metrics
fromRuns(const std::vector<Request>& requests)
{
    SpAttenAccelerator accel;
    Metrics m;
    double dram_bytes = 0, dram_bytes_dense = 0;
    for (const Request& q : requests) {
        const RunResult r = accel.run(q.workload, q.policy, q.seed);
        m.cycles += static_cast<double>(r.cycles);
        m.energy_j += r.energy.totalJ();
        dram_bytes += r.dram_bytes;
        dram_bytes_dense += r.dram_bytes_dense;
    }
    m.dram_reduction = dram_bytes_dense / dram_bytes;
    return m;
}

/// GPT-2 Small prefill over a 512-token prompt, full SpAtten policy.
Metrics
runGpt2Prefill()
{
    WorkloadSpec w;
    w.name = "gpt2-prefill";
    w.model = ModelSpec::gpt2Small();
    w.summarize_len = 512;
    SpAttenAccelerator accel;
    return fromRun(accel.run(w, PruningPolicy{}));
}

/// GPT-2 Small token-by-token decode (256 + 16) through a DecodeSession:
/// every generated token re-enters the graph with the cascade-pruned KV.
Metrics
runGpt2Decode()
{
    WorkloadSpec w;
    w.name = "gpt2-decode";
    w.model = ModelSpec::gpt2Small();
    w.summarize_len = 256;
    w.generate_len = 16;
    const SpAttenAccelerator accel;
    return fromRun(accel.runDecode(w, PruningPolicy{}).result);
}

/// BERT-Base over a 384-token input (SQuAD-length), full policy.
Metrics
runBert()
{
    WorkloadSpec w;
    w.name = "bert";
    w.model = ModelSpec::bertBase();
    w.summarize_len = 384;
    SpAttenAccelerator accel;
    return fromRun(accel.run(w, PruningPolicy{}));
}

/// MemNet-style shape (3 hops x 1 head over 50 memory slots) with
/// aggressive cumulative token pruning between hops (paper SVI).
Metrics
runMemnet()
{
    WorkloadSpec w;
    w.name = "memnet";
    w.model = {"memnet", 3, 1, 32, 4};
    w.summarize_len = 50;
    PruningPolicy p = PruningPolicy::disabled();
    p.token_pruning = true;
    p.token_avg_ratio = 0.5;
    SpAttenAccelerator accel;
    return fromRun(accel.run(w, p));
}

/// Beam search (width 4): four decode streams over a shared
/// pre-summarized 192-token prompt — pruned prompt KV is shared and
/// skipped by every beam (paper SV-B).
Metrics
runBeamSearch()
{
    WorkloadSpec w;
    w.name = "beam-search";
    w.model = ModelSpec::gpt2Small();
    w.summarize_len = 192;
    w.generate_len = 8;
    w.skip_summarization = true;
    std::vector<Request> beams;
    for (std::uint64_t b = 0; b < 4; ++b)
        beams.push_back({w, PruningPolicy{}, b + 1});
    return fromRuns(beams);
}

/// A batch of 8 mixed requests (BERT + GPT-2, pruned and dense), run
/// in request order.
Metrics
runBatchOf8()
{
    WorkloadSpec bert;
    bert.name = "bert-b8";
    bert.model = ModelSpec::bertBase();
    bert.summarize_len = 192;
    WorkloadSpec gpt;
    gpt.name = "gpt2-b8";
    gpt.model = ModelSpec::gpt2Small();
    gpt.summarize_len = 256;
    gpt.generate_len = 8;
    std::vector<Request> batch;
    for (std::uint64_t i = 0; i < 4; ++i) {
        batch.push_back({bert, i % 2 ? PruningPolicy{}
                                     : PruningPolicy::disabled(),
                         i + 1});
        batch.push_back({gpt, i % 2 ? PruningPolicy::disabled()
                                    : PruningPolicy{},
                         i + 100});
    }
    return fromRuns(batch);
}

Metrics
runCombo(const std::string& name)
{
    if (name == "gpt2-prefill")
        return runGpt2Prefill();
    if (name == "gpt2-decode")
        return runGpt2Decode();
    if (name == "bert")
        return runBert();
    if (name == "memnet")
        return runMemnet();
    if (name == "beam-search")
        return runBeamSearch();
    if (name == "batch-of-8")
        return runBatchOf8();
    ADD_FAILURE() << "unknown combo " << name;
    return {};
}

const Golden&
findGolden(const std::string& name)
{
    for (const Golden& g : kGoldens)
        if (name == g.name)
            return g;
    static Golden none{"", 0, 0, 0};
    ADD_FAILURE() << "no golden entry for " << name;
    return none;
}

/// One-line re-baseline recipe appended to every failure message.
#define GOLDEN_RECIPE                                                     \
    "  [to re-baseline intentionally: SPATTEN_GOLDEN_DUMP=1 "             \
    "./test_golden_regression and paste the printed table over "          \
    "kGoldens in tests/test_golden_regression.cpp]"

void
checkCombo(const std::string& name)
{
    const Metrics m = runCombo(name);
    if (std::getenv("SPATTEN_GOLDEN_DUMP") != nullptr) {
        std::printf("    {\"%s\", %.0f, %.17g, %.17g},\n", name.c_str(),
                    m.cycles, m.dram_reduction, m.energy_j);
        GTEST_SKIP() << "dump mode: golden line printed, nothing checked";
    }
    const Golden& g = findGolden(name);
    EXPECT_EQ(m.cycles, g.cycles)
        << name << " cycles drifted from golden" << GOLDEN_RECIPE;
    EXPECT_NEAR(m.dram_reduction, g.dram_reduction,
                1e-6 * g.dram_reduction)
        << name << " DRAM reduction drifted from golden" << GOLDEN_RECIPE;
    EXPECT_NEAR(m.energy_j, g.energy_j, 1e-6 * g.energy_j)
        << name << " energy drifted from golden" << GOLDEN_RECIPE;
}

TEST(GoldenRegression, Gpt2Prefill) { checkCombo("gpt2-prefill"); }
TEST(GoldenRegression, Gpt2Decode) { checkCombo("gpt2-decode"); }
TEST(GoldenRegression, Bert) { checkCombo("bert"); }
TEST(GoldenRegression, Memnet) { checkCombo("memnet"); }
TEST(GoldenRegression, BeamSearch) { checkCombo("beam-search"); }
TEST(GoldenRegression, BatchOf8) { checkCombo("batch-of-8"); }

/// GPT-2 Small 512 + 16 through SpAttenAccelerator::run, full policy.
RunResult
runStatSurface()
{
    WorkloadSpec w;
    w.name = "gpt2-stats";
    w.model = ModelSpec::gpt2Small();
    w.summarize_len = 512;
    w.generate_len = 16;
    SpAttenAccelerator accel;
    return accel.run(w, PruningPolicy{});
}

/// One GPT-2 Small DecodeSession: prefill over 256 tokens, then 8
/// decode steps, full policy.
RunResult
sessionStatSurface()
{
    WorkloadSpec w;
    w.name = "gpt2-session-stats";
    w.model = ModelSpec::gpt2Small();
    w.summarize_len = 256;
    w.generate_len = 8;
    DecodeSession session(SpAttenConfig{}, w, PruningPolicy{});
    session.prefill();
    while (!session.done())
        session.decodeStep();
    return session.finalize();
}

template <std::size_t N>
void
checkStats(const char* table, const RunResult& r,
           const StatGolden (&golden)[N])
{
    if (std::getenv("SPATTEN_GOLDEN_DUMP") != nullptr) {
        std::printf("constexpr StatGolden %s[] = {\n", table);
        for (const auto& [name, value] : r.stats.all())
            std::printf("    {\"%s\", %.17g, %s},\n", name.c_str(), value,
                        r.stats.isGauge(name) ? "true" : "false");
        std::printf("};\n");
        GTEST_SKIP() << "dump mode: golden table printed, nothing checked";
    }
    ASSERT_EQ(r.stats.all().size(), N) << table << GOLDEN_RECIPE;
    std::size_t i = 0;
    for (const auto& [name, value] : r.stats.all()) {
        const StatGolden& g = golden[i++];
        EXPECT_EQ(name, g.name) << table << GOLDEN_RECIPE;
        EXPECT_EQ(value, g.value)
            << table << " " << name << " drifted" << GOLDEN_RECIPE;
        EXPECT_EQ(r.stats.isGauge(name), g.gauge)
            << table << " " << name << " changed kind" << GOLDEN_RECIPE;
    }
}

TEST(GoldenRegression, RunStatSurface)
{
    checkStats("kRunStats", runStatSurface(), kRunStats);
}

TEST(GoldenRegression, SessionStatSurface)
{
    checkStats("kSessionStats", sessionStatSurface(), kSessionStats);
}

// The goldens are only trustworthy if a combo is a pure function: two
// evaluations in one process must agree bit for bit.
TEST(GoldenRegression, CombosAreDeterministic)
{
    for (const Golden& g : kGoldens) {
        const Metrics a = runCombo(g.name);
        const Metrics b = runCombo(g.name);
        EXPECT_EQ(a.cycles, b.cycles) << g.name;
        EXPECT_EQ(a.dram_reduction, b.dram_reduction) << g.name;
        EXPECT_EQ(a.energy_j, b.energy_j) << g.name;
    }
}

} // namespace
} // namespace spatten
