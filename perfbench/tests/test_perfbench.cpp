/// Self-tests of the benchmark: the timing decorator must not change a
/// single simulated result, and the correctness gate must catch the
/// defects it exists for.
#include <gtest/gtest.h>

#include "gate.hpp"
#include "traced_backend.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using spatten::ContinuousBatchScheduler;
using spatten::ServeReport;

constexpr std::size_t kShortTrace = 48;

ServeReport
serve(const Workload& w, const spatten::AcceleratorFleet& fleet)
{
    return ContinuousBatchScheduler(fleet, w.sched).run(w.trace);
}

class EveryWorkload : public ::testing::TestWithParam<std::string>
{
};

// One short trace from each generator (diurnal, Poisson, shared-prefix,
// on/off burst with bounded-Pareto prompts), served plain and traced.
// Four host threads exercise the decorator's ledger from StepPool
// helpers concurrently.
TEST_P(EveryWorkload, DecoratorIsTransparent)
{
    Workload w = makeWorkload(GetParam(), 7, kShortTrace);
    w.sched.num_threads = 4;
    const ServeReport plain = serve(w, w.fleet);
    const auto traced = traceFleet(w.fleet);
    const ServeReport wrapped = serve(w, asFleet(traced));

    EXPECT_TRUE(checkReport(w.trace, plain).ok());
    EXPECT_TRUE(checkReport(w.trace, wrapped).ok());
    EXPECT_EQ(firstDifference(digestOf(plain), digestOf(wrapped)), "");

    // Every session made was destroyed, and every request's final
    // incarnation was finalized.
    const LedgerTotals t = sumLedgers(traced);
    const auto at = [&](Call c) { return t[static_cast<std::size_t>(c)]; };
    EXPECT_EQ(at(Call::Make).calls, at(Call::Destroy).calls);
    EXPECT_GE(at(Call::Finalize).calls, w.trace.size());
    std::size_t decoded = 0;
    for (const auto& req : wrapped.requests)
        decoded += req.tokens + req.recompute_tokens;
    EXPECT_EQ(at(Call::Decode).units + at(Call::DecodeBatch).units, decoded);
}

INSTANTIATE_TEST_SUITE_P(Perfbench, EveryWorkload,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto& param_info) {
                             std::string name = param_info.param;
                             for (char& c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });

TEST(Perfbench, BatchedDecodeKeepsTheBackendFastPath)
{
    // The decorator must hand SpAtten its own sessions: if the lanes
    // reached SpAttenAccelerator::stepDecodeBatch wrapped, every step
    // would take the serial fallback and show up as per-session decode.
    const Workload w = makeWorkload("diurnal-day", 3, kShortTrace);
    const auto traced = traceFleet(w.fleet);
    serve(w, asFleet(traced));
    const LedgerTotals t = sumLedgers(traced);
    EXPECT_GT(t[static_cast<std::size_t>(Call::DecodeBatch)].calls, 0u);
}

class Gate : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        w_ = makeWorkload("diurnal-day", 11, kShortTrace);
        rep_ = serve(w_, w_.fleet);
        ASSERT_TRUE(checkReport(w_.trace, rep_).ok());
    }

    Workload w_;
    ServeReport rep_;
};

TEST_F(Gate, RejectsADroppedToken)
{
    spatten::ServedRequest& r = rep_.requests[5];
    r.token_times_s.pop_back();
    r.tokens -= 1;
    rep_.total_tokens -= 1;
    const GateResult g = checkReport(w_.trace, rep_);
    EXPECT_FALSE(g.ok());
    EXPECT_EQ(g.failed, 1u);
    EXPECT_FALSE(g.request_ok[5]);
}

TEST_F(Gate, RejectsADuplicateFinish)
{
    rep_.requests.push_back(rep_.requests[9]);
    const GateResult g = checkReport(w_.trace, rep_);
    EXPECT_FALSE(g.ok());
    EXPECT_EQ(g.failed, 1u);
    EXPECT_FALSE(g.request_ok[9]);
}

TEST_F(Gate, RejectsTokensBeforeArrival)
{
    spatten::ServedRequest& r = rep_.requests[2];
    r.first_token_s = r.arrival_s - 1e-6;
    r.token_times_s.front() = r.first_token_s;
    EXPECT_FALSE(checkReport(w_.trace, rep_).ok());
}

TEST_F(Gate, RejectsNonMonotoneTokenTimes)
{
    spatten::ServedRequest* r = nullptr;
    for (auto& req : rep_.requests)
        if (req.token_times_s.size() >= 3)
            r = &req;
    ASSERT_NE(r, nullptr);
    std::swap(r->token_times_s[1], r->token_times_s[2]);
    EXPECT_FALSE(checkReport(w_.trace, rep_).ok());
}

TEST_F(Gate, FailedRequestsMissTheSlo)
{
    const GateResult clean = checkReport(w_.trace, rep_);
    const std::size_t met = sloMet(rep_, clean, w_.sched);
    ASSERT_EQ(met, rep_.slo_met);
    ASSERT_GT(met, 0u);
    // Fail a request that met the SLO: it must now count as a miss.
    std::size_t victim = 0;
    GateResult only_victim = clean;
    for (;; ++victim) {
        ASSERT_LT(victim, rep_.requests.size());
        only_victim.request_ok.assign(rep_.requests.size(), false);
        only_victim.request_ok[victim] = true;
        if (sloMet(rep_, only_victim, w_.sched) == 1)
            break;
    }
    rep_.requests[victim].phase = spatten::RequestPhase::Decoding;
    const GateResult g = checkReport(w_.trace, rep_);
    EXPECT_EQ(g.failed, 1u);
    EXPECT_EQ(sloMet(rep_, g, w_.sched), met - 1);
}

TEST_F(Gate, DigestSeesEverySimulatedChange)
{
    const ReportDigest base = digestOf(rep_);
    ServeReport changed = rep_;
    changed.requests[3].sim.cycles += 1;
    EXPECT_NE(firstDifference(base, digestOf(changed)), "");
    changed = rep_;
    changed.kv_migrated_bytes += 1;
    EXPECT_NE(firstDifference(base, digestOf(changed)), "");
    EXPECT_EQ(firstDifference(base, digestOf(rep_)), "");
}

} // namespace
} // namespace perfbench
